"""The dense brute-force reference against closed forms and a loop copy of itself.

The closed forms need neither the walk nor the reference: for a phase oracle,
the amplitude of |0...0> after H, oracle, H is 2^-n sum_x (-1)^f(x), and
Bernstein-Vazirani leaves all probability on the hidden string.
"""

import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import walk_core as wc


def closed_form_p_all_zero(table) -> float:
    signs = 1.0 - 2.0 * np.asarray(table, dtype=float)
    return float((signs.sum() / len(table)) ** 2)


def random_fn(rng: random.Random, n: int) -> alg.BooleanFn:
    return alg.BooleanFn(n, tuple(rng.getrandbits(1) for _ in range(2**n)))


# A loop copy of the reference as it stood before the vectorised one: one
# einsum per Hadamard, a Python loop for each oracle.
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _loop_apply_h(vec, qubit):
    t = vec.reshape(2**qubit, 2, -1)
    return np.einsum("ab,ibj->iaj", _H2, t).reshape(-1)


def loop_reference(scheme: str, f: alg.BooleanFn) -> np.ndarray:
    n = f.n
    if scheme == alg.NO_AUX:
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = 1.0
        for q in range(n):
            vec = _loop_apply_h(vec, q)
        vec = vec * np.array([(-1.0) ** f.value(x) for x in range(2**n)])
        for q in range(n):
            vec = _loop_apply_h(vec, q)
        return vec
    vec = np.zeros(2 ** (n + 1), dtype=complex)
    vec[1] = 1.0
    for q in range(n + 1):
        vec = _loop_apply_h(vec, q)
    out = np.zeros_like(vec)
    for x in range(2**n):
        for y in (0, 1):
            out[x * 2 + (y ^ f.value(x))] = vec[x * 2 + y]
    vec = out
    for q in range(n):
        vec = _loop_apply_h(vec, q)
    return vec


@pytest.mark.parametrize("n", [*range(1, 11), 16])
def test_p_all_zero_matches_the_closed_form(n):
    rng = random.Random(n)
    fns = [random_fn(rng, n) for _ in range(3 if n <= 10 else 1)]
    fns.append(alg.BooleanFn(n, (1,) * 2**n))
    half = [0] * 2 ** (n - 1) + [1] * 2 ** (n - 1)
    rng.shuffle(half)
    fns.append(alg.BooleanFn(n, tuple(half)))
    for f in fns:
        want = closed_form_p_all_zero(list(f.table))
        for scheme in alg.SCHEMES:
            assert abs(alg.brute_force_p_all_zero(scheme, f) - want) <= 1e-12


@pytest.mark.parametrize("n", range(3, 13))
def test_run_bv_puts_probability_one_on_the_hidden_string(n):
    rng = random.Random(100 + n)
    for s in ("0" * n, "1" * n, "".join(rng.choice("01") for _ in range(n))):
        for scheme in alg.SCHEMES:
            out = alg.run_bv(s, scheme)
            assert out.recovered == s
            assert abs(out.probability - 1.0) <= 1e-12
            assert list(out.distribution) == [format(x, f"0{n}b") for x in range(2**n)]
            rest = sum(p for k, p in out.distribution.items() if k != s)
            assert rest <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_agrees_with_the_loop_reference(n):
    rng = random.Random(200 + n)
    for _ in range(4):
        f = random_fn(rng, n)
        for scheme in alg.SCHEMES:
            got = alg.brute_force_reference(scheme, f)
            assert got.shape == (2 ** (n + (scheme == alg.WITH_AUX)),)
            assert np.max(np.abs(got - loop_reference(scheme, f))) <= 1e-12


def test_hidden_string_tables_are_the_parity_of_x_and_s():
    for n in range(1, 11):
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # x1 first
        parity = (bits @ bits.T) % 2  # parity[s, x] = x . s mod 2
        for si in range(2**n):
            s = format(si, f"0{n}b")
            assert alg.hidden_string_fn(s).table == bytes(parity[si].tolist()), s


def test_reference_runs_past_the_old_cap():
    f = alg.BooleanFn(11, (0,) * 2**11)
    assert abs(alg.brute_force_p_all_zero(alg.WITH_AUX, f) - 1.0) <= 1e-12


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_reference_rejects_n_above_the_limit(scheme):
    assert alg.REFERENCE_MAX_N == 20
    too_big = SimpleNamespace(n=alg.REFERENCE_MAX_N + 1)  # no table is built
    with pytest.raises(ValueError, match=r"^brute-force reference supports n <= 20, got n = 21$"):
        alg.brute_force_reference(scheme, too_big)


def test_reference_rejects_an_unknown_scheme():
    with pytest.raises(ValueError) as info:
        alg.brute_force_reference("bogus", alg.BooleanFn(2, (0, 0, 0, 0)))
    assert str(info.value) == "unknown scheme: 'bogus'"


@pytest.mark.parametrize("n", range(1, 15))
def test_the_reference_is_exact_on_the_promise(n):
    """Unnormalised Hadamards keep every amplitude an integer until the one
    final scaling, so a zero is exactly 0.0 and a one is within an ulp."""
    rng = random.Random(300 + n)
    half = [0] * 2 ** (n - 1) + [1] * 2 ** (n - 1)
    rng.shuffle(half)
    balanced = alg.BooleanFn(n, tuple(half))
    s = "".join(rng.choice("01") for _ in range(n))
    for scheme in alg.SCHEMES:
        assert alg.brute_force_p_all_zero(scheme, balanced) == 0.0
        for bit in (0, 1):
            p = alg.brute_force_p_all_zero(scheme, alg.BooleanFn(n, (bit,) * 2**n))
            assert abs(p - 1.0) <= 2.3e-16
        probs = alg._reference_probabilities(scheme, alg.hidden_string_fn(s))
        assert abs(probs[int(s, 2)] - 1.0) <= 2.3e-16
        assert np.count_nonzero(probs) == 1  # exactly 0.0 off s
        if n != 2:  # two bits run through the walk, not the reference
            out = alg.run_bv(s, scheme)
            assert out.recovered == s and out.probability == probs[int(s, 2)]
            assert list(out.distribution.values()) == probs.tolist()


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("n", [21, 30, 64])
def test_run_bv_rejects_n_above_the_limit_before_building_a_table(monkeypatch, scheme, n):
    real = alg.hidden_string_fn

    def guarded(s):
        assert len(s) <= alg.REFERENCE_MAX_N, f"hidden_string_fn built {len(s)} bits"
        return real(s)

    monkeypatch.setattr(alg, "hidden_string_fn", guarded)
    with pytest.raises(ValueError, match="supports n <= 20"):
        alg.run_bv("1" * n, scheme)


def old_bv_outcome(s: str, scheme: str):
    """``run_bv`` beyond two bits as it was: a label list and a dict in x order."""
    n = len(s)
    probs = alg._reference_probabilities(scheme, alg.hidden_string_fn(s))
    high = list(map("".join, itertools.product("01", repeat=n // 2)))
    low = list(map("".join, itertools.product("01", repeat=n - n // 2)))
    labels = [h + l for h in high for l in low]
    dist = dict(zip(labels, probs.tolist()))
    recovered = labels[int(np.argmax(probs))]
    return recovered, dist[recovered], dist


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("n", [1, *range(3, 15)])
def test_bv_view_matches_the_old_dict(n, scheme):
    rng = random.Random(400 + n)
    for s in ("0" * n, "".join(rng.choice("01") for _ in range(n))):
        recovered, probability, old = old_bv_outcome(s, scheme)
        out = alg.run_bv(s, scheme)
        assert (out.recovered, out.probability) == (recovered, probability)
        assert list(out.distribution.items()) == list(old.items())  # keys, order, values
        assert len(out.distribution) == len(old) and out.distribution == old
        if n == 3:
            assert dict(out.distribution) == old
            assert repr(out) == repr(alg.BVOutcome(scheme, s, recovered, probability, old))


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("s", [s for s, _ in alg.BV_STRINGS])
def test_a_two_bit_walk_distribution_reads_like_the_reference_view(s, scheme):
    out = alg.run_bv(s, scheme)
    ref = alg._BitLabelView(alg._reference_probabilities(scheme, alg.hidden_string_fn(s)), 2)
    assert isinstance(out.distribution, alg._BitLabelView)
    assert list(out.distribution) == list(ref)  # the same keys in the same order
    for (key, p), q in zip(out.distribution.items(), ref.values()):
        assert abs(p - q) <= wc.NORM_TOL, key


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize(
    "key", ["0b1", "1_0", " 01", "01 ", "+01", "1\u06610", "01", "0101", "", 5, b"101", None]
)
def test_bv_view_takes_only_n_bit_labels(key, scheme):
    out = alg.run_bv("101", scheme)
    view = out.distribution
    with pytest.raises(KeyError):
        view[key]
    assert key not in view
    assert view.get(key) is None and view.get(key, -1.0) == -1.0
    assert "101" in view and view.get("101") == view["101"] == out.probability


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_bv_view_owns_a_read_only_array(scheme):
    f = alg.hidden_string_fn("1101")
    probs = alg._reference_probabilities(scheme, f)
    view = alg._BitLabelView(probs, f.n)
    with pytest.raises(ValueError, match="read-only"):
        probs[0] = 0.5
    assert view["0000"] == 0.0


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_a_bv_outcome_retains_its_probabilities_and_no_labels(scheme):
    s = "10" * 8
    alg.run_bv(s, scheme)  # fill the memos outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = alg.run_bv(s, scheme)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.recovered == s
    assert retained < 2**20  # the 2^16 float64 probabilities take 512 KiB
