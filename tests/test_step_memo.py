"""One memoised matrix per walk step, the one-pass coin builder and the
reference's chunked Sylvester Hadamard: each gives what the code it replaced gave."""

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import walk_core as wc
from test_kernel_agreement import random_step

CASES = [(name, f) for name, f in alg.two_bit_catalogue()]
CASES += [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]


def evolve_fold(steps, topology):
    """The program's operator, ``evolve`` applied step by step to the identity columns."""
    m = np.eye(topology.dim, dtype=complex)
    columns = m.reshape(2, topology.size, topology.dim)
    for step in steps:
        wc.evolve(columns, step)
    return m


def programs():
    for scheme in alg.SCHEMES:
        for name, f in CASES:
            yield f"dj {name}/{scheme}", alg.build_dj_program(f, scheme), scheme
            if not name.startswith("bv"):
                yield f"oracle {name}/{scheme}", alg._dj_oracle(f, scheme), scheme
        for include_coin in (True, False):
            layer = alg.hadamard_layer(scheme, include_coin=include_coin)
            yield f"hadamard coin={include_coin}/{scheme}", layer, scheme


PROGRAMS = list(programs())


@pytest.mark.parametrize("name,steps,scheme", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_program_operator_equals_the_evolve_fold_exactly(name, steps, scheme):
    topo = alg.scheme_topology(scheme)
    assert np.array_equal(wc.program_operator(steps, topo), evolve_fold(steps, topo))


def test_step_memo_is_bounded():
    assert wc._kernel_matrix.cache_info().maxsize == 384


def test_step_matrices_are_read_only_and_shared():
    step = wc.WalkStep({1: alg.COIN_X}, wc.s_plus(0))
    m = wc._kernel_matrix(wc.evolve, alg.CYCLE4.size, step)
    same = wc.WalkStep({1: alg.COIN_X}, wc.s_plus(0))
    assert m is wc._kernel_matrix(wc.evolve, alg.CYCLE4.size, same)
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
    np.testing.assert_array_equal(m, evolve_fold([step], alg.CYCLE4))


def test_operators_are_new_writable_arrays():
    step = wc.WalkStep({0: alg.COIN_HADAMARD})
    memo = wc._kernel_matrix(wc.evolve, alg.LINE2.size, step)
    for _ in range(2):  # the second call comes after the first result was written
        op = wc.program_operator([step], alg.LINE2)
        assert op is not memo and not np.shares_memory(op, memo)
        op[0, 0] = 5.0  # writable, and the memo entry is untouched
        assert memo[0, 0] == alg.COIN_HADAMARD[0, 0]


@pytest.mark.parametrize("position", [7, -1], ids=["position", "negative-position"])
def test_a_bad_step_raises_on_every_call_and_is_never_cached(position):
    # Only the size tells a position out of range; every other bad coin is never built.
    step = wc.WalkStep({position: alg.COIN_X})
    message = f"^coin position {position} outside a topology of size 4$"
    for _ in range(3):
        with pytest.raises(wc.WalkError, match=message):
            wc.program_operator([step], alg.CYCLE4)
        with pytest.raises(wc.WalkError, match=message):
            wc._kernel_matrix(wc.evolve, alg.CYCLE4.size, step)
    wc._kernel_matrix(wc.evolve, alg.CYCLE4.size, wc.WalkStep())
    hits = wc._kernel_matrix.cache_info().hits
    with pytest.raises(wc.WalkError):
        wc._kernel_matrix(wc.evolve, alg.CYCLE4.size, step)
    assert wc._kernel_matrix.cache_info().hits == hits


@pytest.mark.parametrize(
    "coin,message",
    [
        (alg.COIN_X * 1.1, "^coin at position 1 is not unitary"),
        (np.eye(3), r"^coin at position 1 has shape \(3, 3\), not \(2, 2\)$"),
    ],
    ids=["non-unitary", "shape"],
)
def test_a_step_with_a_bad_coin_is_rejected_before_any_memo(coin, message):
    with pytest.raises(wc.WalkError, match=message):
        wc.WalkStep({1: coin})


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_the_topology_kind_never_changes_an_operator(size):
    """The step memo is keyed by size, so each kind must build the same bits."""
    rng = np.random.default_rng(2200 + size)
    line, cycle = wc.Topology(wc.OPEN_LINE, size), wc.Topology(wc.CLOSED_CYCLE, size)
    shifts = set()
    for _ in range(30):
        steps = [random_step(rng, size) for _ in range(int(rng.integers(1, 6)))]
        shifts |= {step.shift for step in steps}
        wc._kernel_matrix.cache_clear()  # each kind builds its own step matrices
        on_line = wc.program_operator(steps, line)
        wc._kernel_matrix.cache_clear()
        assert np.array_equal(on_line, wc.program_operator(steps, cycle))
    assert len(shifts) == 5  # no shift and all four


def test_a_nan_phase_fails_the_running_product_check_on_every_call():
    # WalkStep rejects a NaN phase, so the phase and the memo key built from it
    # are put past that check.
    step, nan = wc.WalkStep(), float("nan")
    object.__setattr__(step, "global_phase", nan)
    object.__setattr__(step, "_key", (None, None, nan, ()))
    object.__setattr__(step, "_hash", hash(step._key))
    for _ in range(2):
        with pytest.raises(wc.WalkError, match=r"not unitary \(max deviation nan\)"):
            wc.program_operator([wc.WalkStep(), step], alg.LINE2)


SUITE_ROWS = np.random.default_rng(20240917).uniform(-2 * np.pi, 2 * np.pi, size=(1000, 4))


def test_build_coins_rejects_a_nan_row():
    rows = SUITE_ROWS[:5].copy()
    rows[3, 2] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(wc.WalkError, match=r"not unitary \(max deviation nan\)"):
            wc.build_coins(rows)


def butterflies(vec, qubits):
    """Unscaled Walsh-Hadamard butterflies: one sum and difference per qubit."""
    for q in range(qubits):
        t = vec.reshape(2**q, 2, -1)
        diff = t[:, 0] - t[:, 1]
        t[:, 0] += t[:, 1]
        t[:, 1] = diff


@pytest.mark.parametrize("qubits", range(1, 15))
@pytest.mark.parametrize("extra", [0, 1], ids=["all", "aux-left"])
def test_dense_hadamard_matches_the_butterflies(qubits, extra):
    rng = np.random.default_rng(qubits)
    size = 2 ** (qubits + extra)
    signs = rng.choice([-1.0, 1.0], size=size) + 1j * rng.choice([-1.0, 1.0], size=size)
    small = rng.integers(-9, 10, size=size) + 1j * rng.integers(-9, 10, size=size)
    for exact in (signs, small):  # integer-valued: both sides are exact
        got, want = exact.copy(), exact.copy()
        alg._hadamard_all(got, qubits)
        butterflies(want, qubits)
        assert got.tobytes() == want.tobytes()
    want = rng.normal(size=size) + 1j * rng.normal(size=size)
    want /= np.linalg.norm(want)
    got = want.copy()
    alg._hadamard_all(got, qubits)
    butterflies(want, qubits)
    assert np.max(np.abs(got - want)) <= 1e-15 * 2 ** (qubits / 2)


def test_every_blas_product_is_small(monkeypatch):
    """At most 7 qubits and 2^19 multiply-adds: larger products go to OpenBLAS's threads."""
    products = []
    sylvester = alg._sylvester

    class Recording:
        def __init__(self, qubits):
            self.m = sylvester(qubits)

        def __matmul__(self, other):
            products.append((self.m.shape[0], other.shape[-1]))
            return self.m @ other

    monkeypatch.setattr(alg, "_sylvester", Recording)
    rng = np.random.default_rng(3)
    for n in (6, 10, 14):
        f = alg.BooleanFn(n, tuple(rng.integers(0, 2, size=2**n).tolist()))
        for scheme in alg.SCHEMES:
            alg.brute_force_reference(scheme, f)
    vec = np.zeros(2**20, dtype=complex)
    alg._hadamard_all(vec, 20)
    assert products and all(rows <= 128 and rows * rows * cols <= 2**19 for rows, cols in products)
    assert products[-3:] == [(64, 128), (128, 32), (128, 2)]  # 20 qubits in 6 + 7 + 7


def test_sylvester_matrices_are_read_only_hadamards():
    s = alg._sylvester(3)
    assert s is alg._sylvester(3)
    np.testing.assert_array_equal(s @ s, 8 * np.eye(8))
    with pytest.raises(ValueError):
        s[0, 0] = 0.0
