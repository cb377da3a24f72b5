"""The reference's closed-form first layer, real arithmetic and trusted tables.

``general_reference`` is the reference as it ran before the first Hadamard
layer was written in closed form: a complex basis vector through
``_hadamard_all`` for both layers.  Every amplitude is an integer until the
one final scaling, so the fast path must agree with it bit for bit.
"""

import random
from collections.abc import ItemsView, ValuesView

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonwalk import algorithms as alg


def general_reference(scheme: str, f: alg.BooleanFn) -> np.ndarray:
    n = f.n
    mask = np.array(list(f.table), dtype=bool)
    if scheme == alg.NO_AUX:
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = 1.0
        alg._hadamard_all(vec, n)
        vec *= np.where(mask, -1.0, 1.0)
        alg._hadamard_all(vec, n)
        vec *= 2.0**-n
        return vec
    vec = np.zeros(2 ** (n + 1), dtype=complex)
    vec[1] = 1.0
    alg._hadamard_all(vec, n + 1)
    pairs = vec.reshape(-1, 2)
    pairs[mask] = pairs[mask, ::-1]
    alg._hadamard_all(vec, n)
    vec *= 2 ** (-(2 * n + 1) / 2)
    return vec


def tables(n: int) -> list:
    rng = random.Random(500 + n)
    half = [0] * 2 ** (n - 1) + [1] * 2 ** (n - 1)
    rng.shuffle(half)
    return [
        (0,) * 2**n,
        (1,) * 2**n,
        tuple(half),
        tuple(rng.getrandbits(1) for _ in range(2**n)),
    ]


def doubled_parity_table(s: str) -> tuple:
    """Parity of x & s, one bit of s per doubling of the table."""
    table = np.zeros(1, dtype=np.uint8)
    for ch in s:
        table = (table[:, None] ^ np.array([0, int(ch)], dtype=np.uint8)).ravel()
    return tuple(table.tolist())


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("n", range(1, 17))  # two Hadamard chunks from n = 7 on, three from 13
def test_the_reference_is_bit_identical_to_the_general_path(n, scheme):
    for table in tables(n):
        f = alg.BooleanFn(n, table)
        want = general_reference(scheme, f)
        got = alg.brute_force_reference(scheme, f)
        assert got.dtype == want.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        probs = (np.abs(want) ** 2).reshape(2**n, -1).sum(axis=1)
        assert alg._reference_probabilities(scheme, f).tobytes() == probs.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 14, 15])
def test_the_closed_form_start_is_the_first_hadamard_layer(n):
    no_aux = np.zeros(2**n, dtype=complex)
    no_aux[0] = 1.0  # |0...0>
    alg._hadamard_all(no_aux, n)
    assert no_aux.tobytes() == np.ones(2**n).astype(complex).tobytes()
    with_aux = np.zeros(2 ** (n + 1), dtype=complex)
    with_aux[1] = 1.0  # |0...0>|1>
    alg._hadamard_all(with_aux, n + 1)
    assert with_aux.tobytes() == np.tile([1.0, -1.0], 2**n).astype(complex).tobytes()


@pytest.mark.parametrize("make", [
    lambda: alg.BooleanFn(3, (0, 1, 1, 0, 1, 0, 0, 1)),
    lambda: alg.BooleanFn(3, [0.0, True, 1, 0, 1, 0, 0, 1]),
    lambda: alg.hidden_string_fn("111"),
], ids=["ints", "coerced", "hidden-string"])
def test_the_references_bool_view_of_the_table_is_read_only_and_matches_it(make):
    f = make()
    mask = np.frombuffer(f.table, bool)
    assert not mask.flags.writeable and mask.tolist() == [bool(b) for b in f.table]
    assert repr(f) == r"BooleanFn(n=3, table=b'\x00\x01\x01\x00\x01\x00\x00\x01')"


@pytest.mark.parametrize("n", [1, 2, 3, 10, 16, 17, 20])
def test_hidden_string_fn_is_the_checked_function_of_its_table(n):
    rng = random.Random(600 + n)
    for s in ("0" * n, "1" * n, "".join(rng.choice("01") for _ in range(n))):
        f = alg.hidden_string_fn(s)
        table = doubled_parity_table(s)
        assert f.table == bytes(table) and type(f.table) is bytes
        checked = alg.BooleanFn(n, table)
        assert f == checked and hash(f) == hash(checked)
        assert f.n == n and isinstance(f.n, int)


@pytest.mark.parametrize("n", [16, 20])
def test_the_transform_of_a_unit_vector_is_its_hidden_string_table(n):
    """H^n e_k has entry (-1)^(x . k): the last chunk's product from the right and
    the doubled table, checked against each other entry for entry."""
    rng = random.Random(700 + n)
    for k in (0, 1, 2**n - 1, rng.getrandbits(n)):
        table = alg.hidden_string_fn(format(k, f"0{n}b")).table
        signs = 1.0 - 2.0 * np.frombuffer(table, np.uint8)
        no_aux = np.zeros(2**n)
        no_aux[k] = 1.0
        alg._hadamard_all(no_aux, n)
        assert np.array_equal(no_aux, signs)
        with_aux = np.zeros(2 ** (n + 1))  # aux last, untouched: the S (x) I_2 product
        with_aux[2 * k + 1] = 1.0
        alg._hadamard_all(with_aux, n)
        assert np.array_equal(with_aux[1::2], signs) and not with_aux[0::2].any()


@given(st.text("01", min_size=1, max_size=20), st.lists(st.integers(0, 2**20 - 1), max_size=20))
def test_hidden_string_tables_are_the_parity_of_x_and_s_at_sampled_x(s, xs):
    table = alg.hidden_string_fn(s).table
    for x in [0, 2 ** len(s) - 1, *(x % 2 ** len(s) for x in xs)]:
        assert table[x] == bin(x & int(s, 2)).count("1") & 1


@st.composite
def tables_with_counted_ones(draw):
    size = 2 ** draw(st.integers(1, 8))
    ones = draw(st.sampled_from([0, size // 2, size]) | st.integers(0, size))
    return draw(st.permutations([1] * ones + [0] * (size - ones)))


@given(tables_with_counted_ones())
def test_classify_fn_agrees_with_the_sum_of_the_table(table):
    ones, size = sum(table), len(table)
    want = (
        alg.FnClass.CONSTANT if ones in (0, size)
        else alg.FnClass.BALANCED if 2 * ones == size
        else alg.FnClass.NEITHER
    )
    assert alg.classify_fn(alg.BooleanFn(size.bit_length() - 1, table)) is want


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_a_two_bit_hidden_string_hits_the_oracle_memo(scheme):
    for s, name in alg.BV_STRINGS:
        checked = dict(alg.two_bit_catalogue())[name]
        steps = alg._dj_oracle(checked, scheme)
        hits = alg._dj_oracle.cache_info().hits
        assert alg._dj_oracle(alg.hidden_string_fn(s), scheme) is steps
        assert alg._dj_oracle.cache_info().hits == hits + 1


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_the_bv_view_reads_in_x_order_and_reprs_without_lookups(monkeypatch, scheme):
    out = alg.run_bv("1011", scheme)
    view = out.distribution
    probs = view._probs.tolist()
    labels = [format(x, "04b") for x in range(16)]
    assert list(view.values()) == probs
    assert list(view.items()) == list(zip(labels, probs))
    assert isinstance(view.values(), ValuesView) and isinstance(view.items(), ItemsView)
    assert len(view.values()) == len(view.items()) == 16
    assert ("1011", out.probability) in view.items() and out.probability in view.values()
    assert ("1011", 0.5) not in view.items() and ("10110", 1.0) not in view.items()

    def no_lookup(self, label):
        raise AssertionError(f"looked up {label!r}")

    monkeypatch.setattr(alg._BitLabelView, "__getitem__", no_lookup)
    assert repr(view) == repr(dict(zip(labels, probs)))
