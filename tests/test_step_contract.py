"""Walk steps as values, and their input checks: shift labels, non-finite
phases and coins, and coin positions and shapes, each made when a step is built;
and the norm and boundary checks, which scale with the state's norm."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from photonwalk import algorithms as alg
from photonwalk import photonic as ph
from photonwalk import walk_core as wc
from photonwalk.walk_core import Shift, WalkState, WalkStep
from test_kernel_agreement import random_state

CYCLE4 = alg.CYCLE4
COINS = (
    alg.COIN_IDENTITY,
    alg.COIN_X,
    alg.COIN_PHASE_FLIP_1,
    alg.COIN_PHASE_FLIP_0,
    alg.COIN_NEG_IDENTITY,
    alg.COIN_HADAMARD,
)
NAN_COIN = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "coin,direction",
    [(True, 1), (np.bool_(True), 1), (1.0, 1)],
    ids=["bool", "np-bool", "float"],
)
def test_shift_rejects_a_coin_label_that_is_not_an_int(coin, direction):
    with pytest.raises(ValueError, match="shift coin label must be 0 or 1"):
        Shift(coin, direction)


def test_shift_rejects_a_direction_that_is_not_an_int():
    with pytest.raises(ValueError, match=r"shift direction must be \+1 or -1"):
        Shift(1, 1.0)


def test_shift_accepts_numpy_ints():
    assert Shift(np.int64(1), np.int64(-1)) == Shift(1, -1)


def test_nan_global_phase_raises_on_the_state_path():
    # WalkStep rejects a NaN phase, so the phase is put past that check.
    step = WalkStep()
    object.__setattr__(step, "global_phase", np.nan)
    with pytest.raises(wc.WalkError, match="step 0: step did not preserve the state norm"):
        wc.run_program(WalkState.basis(CYCLE4, 0, 0), [step])


def test_nan_coin_is_rejected_when_the_step_is_built():
    message = re.escape("coin at position 0 is not unitary (max deviation nan)")
    with pytest.raises(wc.WalkError, match=f"^{message}$"):
        WalkStep({0: NAN_COIN})


@pytest.mark.parametrize("entry", range(4))
def test_nan_in_any_coin_entry_fails_the_unitarity_check(entry):
    coin = np.eye(2, dtype=complex)
    coin.flat[entry] = complex(np.nan, 0.0) if entry % 2 else complex(0.0, np.nan)
    message = re.escape("step 0: operator is not unitary (max deviation nan)")
    with pytest.raises(wc.WalkError, match=f"^{message}$"):
        wc._check_unitary([coin], "step {}: operator".format)


def test_closed_form_deviation_matches_the_matrix_product(monkeypatch):
    monkeypatch.setattr(wc, "MATCH_TOL", math.inf)  # return every deviation, raise on none
    rng = np.random.default_rng(11)
    for scale in (1e-14, 1e-9, 1.0):
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            m = q + scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            want = np.max(np.abs(m.conj().T @ m - np.eye(2)))
            assert abs(wc._check_unitary(m[None], str)[0] - want) <= 1e-15 + 1e-12 * want


def test_non_unitary_coin_is_rejected_when_the_step_is_built():
    message = re.escape("coin at position 2 is not unitary (max deviation 3.000e+00)")
    with pytest.raises(wc.WalkError, match=f"^{message}$"):
        WalkStep({2: np.diag([1.0, 2.0])})


def test_each_coin_is_checked_for_position_then_shape_then_unitarity():
    bad = np.diag([1.0, 2.0])
    with pytest.raises(wc.WalkError, match="^coin position 'a' is not an int$"):
        WalkStep({"a": bad})
    with pytest.raises(wc.WalkError, match=re.escape("coin at position 1 has shape (3, 3)")):
        WalkStep({1: 2 * np.eye(3)})
    # Only the size tells a position out of range, so both paths check it when they run.
    step = WalkStep({0: alg.COIN_X, 7: alg.COIN_X})
    with pytest.raises(wc.WalkError, match="^step 0: coin position 7 outside a topology of size 4$"):
        wc.run_program(WalkState.basis(CYCLE4, 0, 0), [step])
    with pytest.raises(wc.WalkError, match="^step 1: coin position 7 outside a topology of size 4$"):
        wc.program_operator([WalkStep(), step], CYCLE4)


def test_first_non_unitary_coin_is_named():
    with pytest.raises(wc.WalkError, match="^coin at position 3 is not unitary"):
        WalkStep({0: alg.COIN_X, 3: np.diag([1.0, 0.5]), 1: 2 * np.eye(2)})


def test_nan_wave_plate_raises_in_simulate_photonic():
    # PhotonicCircuit rejects a NaN angle, so the stage is put past that check.
    circuit = ph.PhotonicCircuit(2, ())
    object.__setattr__(circuit, "stages", ((ph.HWP(np.nan, 0),),))
    with pytest.raises(ValueError, match="stage did not preserve the state norm"):
        ph.simulate_photonic(circuit, WalkState.basis(alg.LINE2, 0, 0))


@pytest.mark.parametrize("coin", [np.eye(3), np.array([1.0, 0.0])], ids=["3x3", "vector"])
def test_coin_that_is_not_2x2_is_rejected_when_the_step_is_built(coin):
    message = re.escape(f"coin at position 0 has shape {coin.shape}, not (2, 2)")
    with pytest.raises(wc.WalkError, match=f"^{message}$"):
        WalkStep({0: coin})


def test_step_coins_and_coin_map_are_read_only():
    step = WalkStep({1: alg.COIN_X.copy()})
    with pytest.raises(ValueError):
        step.coin_map[1][0, 0] = 5.0
    with pytest.raises(TypeError):
        step.coin_map[2] = alg.COIN_X


def test_mutating_the_source_after_construction_leaves_the_step_unchanged():
    source = alg.COIN_X.copy()
    step = WalkStep({1: source}, wc.s_plus(1), 0.25, "t")
    twin = WalkStep({1: alg.COIN_X.copy()}, wc.s_plus(1), 0.25, "t")
    op = wc.program_operator([step], CYCLE4)
    source[...] = alg.COIN_PHASE_FLIP_1
    assert step == twin and hash(step) == hash(twin)
    np.testing.assert_array_equal(step.coin_map[1], alg.COIN_X)
    np.testing.assert_array_equal(wc.program_operator([step], CYCLE4), op)


def test_a_numpy_int_position_is_stored_as_an_int():
    step = WalkStep({np.int64(2): alg.COIN_X})
    assert [type(l) for l in step.coin_map] == [int]
    assert WalkStep({2: alg.COIN_X}) == step and hash(WalkStep({2: alg.COIN_X})) == hash(step)
    assert WalkStep({2: alg.COIN_X}) == WalkStep({2: alg.COIN_X.copy()})
    assert WalkStep() != WalkStep(tag="t")


@st.composite
def steps(draw):
    coins = draw(st.dictionaries(st.integers(0, 3), st.integers(0, len(COINS) - 1)))
    as_numpy = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    coin_map = {(np.int64(l) if as_numpy[l] else l): COINS[k] for l, k in coins.items()}
    shift = draw(st.none() | st.builds(Shift, st.sampled_from((0, 1)), st.sampled_from((-1, 1))))
    phase = draw(st.floats(-2 * np.pi, 2 * np.pi))
    tag = draw(st.sampled_from((None, alg.TAG_ORACLE, alg.TAG_POSITION_HADAMARD)))
    return WalkStep(coin_map, shift, phase, tag)


def rebuilt(step):
    shift = step.shift and Shift(step.shift.coin, step.shift.direction)
    coins = {type(l)(l): np.array(c) for l, c in step.coin_map.items()}
    return WalkStep(coins, shift, float(step.global_phase), step.tag)


@settings(max_examples=60, deadline=None)
@given(steps())
def test_a_rebuilt_step_is_equal_hashes_alike_and_acts_alike(step):
    copy = rebuilt(step)
    assert copy is not step
    assert copy == step and hash(copy) == hash(step)
    np.testing.assert_array_equal(
        wc.program_operator([copy], CYCLE4), wc.program_operator([step], CYCLE4)
    )


@pytest.mark.parametrize(
    "coin,position",
    [(0, 4), (0, -1), (2, 0), (-1, 0), (True, 0), (0, True), (0.0, 0), (0, 1.0)],
    ids=["position-past-end", "negative-position", "coin-2", "negative-coin",
         "bool-coin", "bool-position", "float-coin", "float-position"],
)
def test_basis_rejects_an_out_of_range_or_non_int_lookup(coin, position):
    with pytest.raises(ValueError, match="basis (coin|position)"):
        WalkState.basis(CYCLE4, coin, position)


def test_basis_accepts_numpy_ints():
    state = WalkState.basis(CYCLE4, np.int64(1), np.int32(3))
    assert np.array_equal(state.amplitudes, np.eye(8)[7])


@pytest.mark.parametrize("size", [2.0, True, np.float64(4.0), "2", None, 0, -1])
@pytest.mark.parametrize("kind", [wc.OPEN_LINE, wc.CLOSED_CYCLE])
def test_topology_rejects_a_size_that_is_not_a_positive_int(kind, size):
    message = re.escape(f"topology size must be a positive int, got {size!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        wc.Topology(kind, size)


def test_topology_accepts_a_numpy_int_size():
    topo = wc.Topology(wc.OPEN_LINE, np.int64(2))
    assert topo == alg.LINE2 and topo.dim == 4
    assert np.array_equal(WalkState.basis(topo, 1, 1).amplitudes, np.eye(4)[3])


@pytest.mark.parametrize("size", [np.int64(2), np.int32(3), np.uint8(5)])
def test_a_numpy_int_size_is_stored_as_an_int_and_its_state_json_round_trips(size):
    topo = wc.Topology(wc.OPEN_LINE, size)
    assert type(topo.size) is int and topo.size == size
    blob = wc.state_to_json(WalkState.basis(topo, 1, 0))
    want = wc.state_to_json(WalkState.basis(wc.Topology(wc.OPEN_LINE, int(size)), 1, 0))
    assert json.loads(json.dumps(blob, allow_nan=False)) == want


BAD_PHASES = ["a", None, True, 0.5j, np.float32(0.25), np.nan, np.inf, -np.inf, 10**400]


@pytest.mark.parametrize("phase", BAD_PHASES, ids=[repr(p) for p in BAD_PHASES[:-1]] + ["10**400"])
def test_a_phase_that_is_not_a_finite_int_or_float_is_rejected(phase):
    with pytest.raises(ValueError) as info:
        WalkStep({0: alg.COIN_X}, global_phase=phase)
    assert str(info.value) == f"global phase must be a finite int or float, got {phase!r}"


@pytest.mark.parametrize(
    "phase",
    [0, np.int64(3), -2.5, np.float64(1e300), 10**300],
    ids=["0", "int64", "-2.5", "1e300", "10**300"],
)
def test_a_finite_phase_is_accepted_and_keeps_the_norm(phase):
    out = wc.run_program(WalkState.basis(CYCLE4, 0, 1), [WalkStep(global_phase=phase)])
    assert abs(out.norm() - 1.0) <= wc.NORM_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_a_state_with_an_amplitude_that_is_not_finite_is_rejected(bad):
    with pytest.raises(ValueError) as info:
        WalkState(alg.LINE2, [bad, 0, 0, 0])
    assert str(info.value) == "amplitudes must be finite"


def test_scheme_topology_rejects_an_unknown_scheme():
    with pytest.raises(ValueError, match=re.escape("unknown scheme: 'bogus'")):
        alg.scheme_topology("bogus")


# --- the state checks are relative to the state's norm


H_ON_CYCLE4 = WalkStep({l: alg.COIN_HADAMARD for l in range(4)}, wc.s_plus(0))


@pytest.mark.parametrize("norm", [1e3, 1e6])
def test_a_unitary_program_keeps_a_large_state_on_both_paths(norm):
    state = WalkState(CYCLE4, norm * random_state(np.random.default_rng(7), CYCLE4.dim))
    out = wc.run_program(state, [H_ON_CYCLE4] * 20)  # raised "step 0: ..." at 1e6
    want = wc.program_operator([H_ON_CYCLE4] * 20, CYCLE4) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - want)) <= 1e-12 * norm


def test_a_circuit_keeps_a_large_state():
    stages = [(ph.BeamSplitter(i % 4, (i + 1) % 4), ph.HWP(0.1 * i, (i + 2) % 4)) for i in range(30)]
    circuit = ph.PhotonicCircuit(4, stages)
    rng = np.random.default_rng(8)
    for _ in range(20):
        state = WalkState(CYCLE4, 1e5 * random_state(rng, CYCLE4.dim))
        out = ph.simulate_photonic(circuit, state)
        want = ph.circuit_operator(circuit) @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-12 * 1e5


@pytest.mark.parametrize("scale", [1e-13, 1e-11, 1.0])
def test_amplitude_crossing_the_wrap_edge_is_caught_at_any_scale(scale):
    line = wc.Topology(wc.OPEN_LINE, 4)
    state = WalkState(line, WalkState.basis(line, 0, 3).amplitudes * scale)
    with pytest.raises(wc.BoundaryViolation, match="^step 0: .* at position 3$"):
        wc.run_program(state, [WalkStep(shift=wc.s_plus(0))])


ALPHABET_STEPS = st.builds(
    WalkStep,
    st.dictionaries(st.integers(0, 6), st.sampled_from(COINS), max_size=3),
    st.none() | st.builds(Shift, st.sampled_from((0, 1)), st.sampled_from((-1, 1))),
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from((wc.OPEN_LINE, wc.CLOSED_CYCLE)),
    size=st.integers(2, 6),
    amps=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=12, max_size=12),
    exponent=st.integers(-12, 12),
    program=st.lists(ALPHABET_STEPS, max_size=8),
)
@example(kind=wc.CLOSED_CYCLE, size=4, amps=[1.0] * 12, exponent=12, program=[H_ON_CYCLE4] * 3)
def test_a_program_at_any_norm_runs_or_meets_a_boundary_or_a_range_error(
    kind, size, amps, exponent, program
):
    topology = wc.Topology(kind, size)
    amps = np.array(amps[: topology.dim])
    assume(np.linalg.norm(amps) > 1e-6)
    state = WalkState(topology, amps * (10.0**exponent / np.linalg.norm(amps)))
    try:
        out = wc.run_program(state, program)
    except wc.BoundaryViolation:
        return
    except wc.WalkError as exc:
        assert re.fullmatch(r"step \d+: coin position \d outside a topology of size \d", str(exc))
        return
    assert abs(out.norm() - state.norm()) <= wc.NORM_TOL * state.norm()


# --- program_operator checks its running products after the fold, in one pass


def per_step_fold(steps, topology):
    """program_operator as it checked each running product right after its step."""
    m = np.eye(topology.dim, dtype=complex)
    for i, step in enumerate(steps):
        try:
            m = wc._kernel_matrix(wc.evolve, topology.size, step).dot(m)
        except wc.WalkError as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        wc._check_unitary(m[None], lambda _: f"step {i}: operator")
    return m


def nan_phase_step():
    # WalkStep rejects a NaN phase, so the phase and the memo key built from it
    # are put past that check.
    step, nan = WalkStep(), float("nan")
    object.__setattr__(step, "global_phase", nan)
    object.__setattr__(step, "_key", (None, None, nan, ()))
    object.__setattr__(step, "_hash", hash(step._key))
    return step


def outcome(fold, steps, topology):
    """The operator's bytes, or the type and message of the error the fold raised."""
    try:
        return fold(steps, topology).tobytes()
    except (wc.WalkError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# diag(1, 1 + eps) deviates by about 2 eps: each coin passes, and a few of them on one
# position compound past MATCH_TOL.
SKEWED_COINS = st.floats(1e-13, 4.9e-13).map(lambda eps: np.diag([1.0, 1.0 + eps]))
SKEWED = WalkStep({0: np.diag([1.0, 1.0 + 4.9e-13])})


@st.composite
def folds(draw):
    size = draw(st.integers(1, 5))  # size 1 folds 2x2 products; a shift there raises
    topology = wc.Topology(draw(st.sampled_from((wc.OPEN_LINE, wc.CLOSED_CYCLE))), size)
    step = st.builds(
        WalkStep,
        st.dictionaries(st.integers(0, size - 1), st.sampled_from(COINS) | SKEWED_COINS, max_size=3),
        st.none() | st.builds(Shift, st.sampled_from((0, 1)), st.sampled_from((-1, 1))),
        st.sampled_from((0.0, 0.5)),
    )
    steps = draw(st.lists(step, max_size=12))
    # A step that raises in the fold (a coin out of range), or one whose product is NaN.
    for extra in (WalkStep({size: alg.COIN_X}), nan_phase_step()):
        if draw(st.integers(0, 3)) == 0:
            steps.insert(draw(st.integers(0, len(steps))), extra)
    return steps, topology


@settings(deadline=None)
@given(folds())
@example(([SKEWED] * 4, CYCLE4))  # fails at step 1, batched
@example(([SKEWED, SKEWED], wc.Topology(wc.CLOSED_CYCLE, 2)))  # fails at step 1, one by one
@example(([SKEWED] * 3, wc.Topology(wc.OPEN_LINE, 1)))  # 2x2 products, one by one
@example(([WalkStep(), WalkStep({4: alg.COIN_X})], CYCLE4))  # raises with every product unitary
@example(([WalkStep(), nan_phase_step(), WalkStep(), WalkStep({4: alg.COIN_X})], CYCLE4))
@example(([SKEWED] * 3 + [WalkStep(shift=wc.s_plus(0))], wc.Topology(wc.OPEN_LINE, 1)))
@example(([SKEWED] * 3 + [WalkStep({4: alg.COIN_X})], CYCLE4))  # the product's error wins
def test_the_batched_check_fails_where_and_as_the_per_step_fold_failed(fold):
    steps, topology = fold
    assert outcome(wc.program_operator, steps, topology) == outcome(per_step_fold, steps, topology)


# --- one unitarity check for a step's coins, a stack of coins and a fold's products

INT_DTYPES = (np.uint8, np.int8, np.int32, np.int64, np.uint64)
UINT8_COIN = np.array([[0, 0], [0, 1]], dtype=np.uint8)  # |a|^2 + |c|^2 - 1 wrapped to 255


@st.composite
def near_unitary_coins(draw):
    """2x2 matrices on either side of MATCH_TOL: QR unitaries with each entry scaled by
    1 + U(0, 2e-12), integer matrices, and unitaries with a NaN or infinite part."""
    kind = draw(st.sampled_from(("skewed", "integer", "non-finite")))
    if kind == "integer":
        return draw(hnp.arrays(st.sampled_from(INT_DTYPES), (2, 2)))
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8)))
    q, _ = np.linalg.qr((parts[:4] + 1j * parts[4:]).reshape(2, 2))
    if kind == "skewed":
        skews = draw(st.lists(st.floats(0, 2e-12), min_size=4, max_size=4))
        return q * (1 + np.reshape(skews, (2, 2)))
    bad = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    entry = draw(st.integers(0, 3))
    q.flat[entry] = complex(bad, q.flat[entry].imag) if draw(st.booleans()) else complex(0, bad)
    return q


def unitarity_outcome(check, *args):
    """None if the check passed, else the deviation its message printed."""
    try:
        check(*args)
    except wc.WalkError as exc:
        return re.fullmatch(r".* is not unitary \(max deviation (\S+)\)", str(exc)).group(1)
    return None


def one_coin_fold(m):
    # WalkStep rejects what is not unitary, so the coin is put past that check; the
    # fold's own product of an inf entry with 0 warns before the check sees its NaN.
    coin = np.array(m)
    coin.setflags(write=False)
    step = WalkStep._from_checked({0: coin}, None, 0.0)
    with np.errstate(invalid="ignore"):
        wc.program_operator([step], wc.Topology(wc.CLOSED_CYCLE, 1))


@settings(deadline=None)
@given(near_unitary_coins())
@example(UINT8_COIN)
@example(np.array([[0, 1], [1, 0]], dtype=np.int64))
@example(np.array([[np.inf, 1.0], [1.0, 1.0]]))  # inf in the closed form, NaN in the fold
@example(np.array([[1e200, 0.0], [0.0, 1.0]]))  # OverflowError from WalkStep once
def test_a_coin_a_coin_stack_and_a_fold_accept_or_reject_it_together(m):
    deviation = unitarity_outcome(WalkStep, {0: m})
    assert unitarity_outcome(wc._check_unitary, m[None], str) == deviation
    assert unitarity_outcome(wc._check_unitary, m.astype(complex)[None], str) == deviation
    assert unitarity_outcome(one_coin_fold, m) == deviation
    if m is UINT8_COIN:
        assert deviation == "1.000e+00"
