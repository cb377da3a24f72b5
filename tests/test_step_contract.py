"""Walk steps as values, and their input checks: shift labels, non-finite
phases and coins, and coin positions and shapes, each made when a step is built."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonwalk import algorithms as alg
from photonwalk import photonic as ph
from photonwalk import walk_core as wc
from photonwalk.walk_core import Shift, WalkState, WalkStep

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
    with pytest.raises(wc.WalkError, match="not unitary"):
        wc._check_unitary(coin)


def test_closed_form_deviation_matches_the_matrix_product():
    rng = np.random.default_rng(11)
    for scale in (1e-14, 1e-9, 1.0):
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            m = q + scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            want = np.max(np.abs(m.conj().T @ m - np.eye(2)))
            assert abs(wc._unitary_deviation(m) - want) <= 1e-15 + 1e-12 * want


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
    with pytest.raises(wc.WalkError, match="^coin position 7 outside a topology of size 4$"):
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
