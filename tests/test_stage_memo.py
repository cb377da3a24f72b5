"""One memoised matrix per optical stage: both optics paths read it, and it
agrees with folding the circuit one component at a time."""

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import photonic as ph
from photonwalk import walk_core as wc
from photonwalk.walk_core import Topology, WalkState
from test_kernel_agreement import fold_components, random_circuit, random_state

CASES = [(name, f) for name, f in alg.two_bit_catalogue()]
CASES += [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]


def fold_operator(circuit):
    """The circuit's operator, one component at a time on the identity columns."""
    return fold_components(circuit.n_modes, [comp for stage in circuit.stages for comp in stage])


def fold_state(circuit, amplitudes):
    """The output state, one component at a time."""
    amps = np.array(amplitudes, dtype=complex)
    view = amps.reshape(2, circuit.n_modes)
    for stage in circuit.stages:
        for comp in stage:
            ph._apply_stage(view, (comp,))
    return amps


def assert_paths_agree(circuit, amplitudes):
    state = WalkState(Topology(wc.CLOSED_CYCLE, circuit.n_modes), amplitudes)
    simulated = ph.simulate_photonic(circuit, state).amplitudes
    operator = ph.circuit_operator(circuit)
    assert np.max(np.abs(simulated - operator @ amplitudes)) <= 1e-12
    assert np.max(np.abs(operator - fold_operator(circuit))) <= 1e-12
    assert np.max(np.abs(simulated - fold_state(circuit, amplitudes))) <= 1e-12


def test_stage_memo_is_bounded():
    assert wc._kernel_matrix.cache_info().maxsize == 384


def test_stage_matrices_are_read_only_and_shared():
    stage = (ph.BeamSplitter(0, 1), ph.HWP(0.3, 2))
    m = wc._kernel_matrix(ph._apply_stage, 3, stage)
    assert m is wc._kernel_matrix(ph._apply_stage, 3, (ph.BeamSplitter(0, 1), ph.HWP(0.3, 2)))
    with pytest.raises(ValueError):
        m[0, 0] = 0.0
    np.testing.assert_array_equal(m, fold_components(3, stage))


def test_a_bad_stage_raises_on_every_call_and_is_never_cached():
    stage = (ph.HWP(0.3, 0), "not a component")
    for _ in range(3):
        with pytest.raises(TypeError, match="unknown component: 'not a component'"):
            wc._kernel_matrix(ph._apply_stage, 2, stage)
    wc._kernel_matrix(ph._apply_stage, 2, ())
    hits = wc._kernel_matrix.cache_info().hits
    with pytest.raises(TypeError):
        wc._kernel_matrix(ph._apply_stage, 2, stage)
    assert wc._kernel_matrix.cache_info().hits == hits


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_random_circuits_agree_with_the_component_fold(n_modes):
    rng = np.random.default_rng(4000 + n_modes)
    for _ in range(25):
        circuit = random_circuit(rng, n_modes, int(rng.integers(1, 8)))
        assert_paths_agree(circuit, random_state(rng, 2 * n_modes))


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_perturbed_compiled_circuits_agree_with_the_component_fold(name, f, scheme):
    circuit = cli._perturbed(
        ph.compile(alg.build_dj_program(f, scheme), scheme), {"hwp": 0.01}
    )
    rng = np.random.default_rng(len(name))
    for amplitudes in np.eye(2 * circuit.n_modes)[:3].tolist() + [
        random_state(rng, 2 * circuit.n_modes)
    ]:
        assert_paths_agree(circuit, np.asarray(amplitudes, dtype=complex))


def test_list_permutation_still_runs():
    permuter = ph.ModePermuter([2, 0, 1])
    assert permuter == ph.ModePermuter((2, 0, 1))
    assert hash(permuter) == hash(ph.ModePermuter((2, 0, 1)))
    circuit = ph.PhotonicCircuit(3, [[permuter], [ph.HWP(0.2, 0)]])
    assert_paths_agree(circuit, random_state(np.random.default_rng(5), 6))
    assert ph.circuit_to_json(circuit)["stages"][0] == [
        {"kind": "mode_permuter", "permutation": [2, 0, 1]}
    ]


def loop_lowering(coin, mode):
    """The lowering as one comparison per alphabet entry, in order."""
    for pattern, factory in ph._LOWERINGS:
        if np.max(np.abs(coin - pattern)) <= wc.MATCH_TOL:
            return None if factory is None else factory(mode)
    raise ph.UnsupportedCoin("no lowering")


@pytest.mark.parametrize("index", range(len(ph._LOWERINGS)))
@pytest.mark.parametrize("offset", [0.0, 5e-13, -5e-13j])
def test_lowering_matches_the_per_entry_loop(index, offset):
    coin = np.asarray(ph._LOWERINGS[index][0], dtype=complex) + offset
    for mode in (0, 3):
        assert ph._lower_coin(coin, mode) == loop_lowering(coin, mode)


@pytest.mark.parametrize("index", range(len(ph._LOWERINGS)))
def test_a_pattern_offset_past_the_tolerance_has_no_lowering(index):
    coin = ph._LOWERINGS[index][0] + 2e-12
    with pytest.raises(ph.UnsupportedCoin, match="no exact lowering"):
        ph._lower_coin(coin, 1)


def test_a_coin_near_no_pattern_has_no_lowering():
    coin = wc.build_coins([(0.1, 0.2, 0.3, 0.4)])[0]
    with pytest.raises(ph.UnsupportedCoin):
        loop_lowering(coin, 0)
    with pytest.raises(ph.UnsupportedCoin, match="no exact lowering"):
        ph._lower_coin(coin, 0)


@pytest.mark.parametrize(
    "comp",
    [ph.HWP(0.3, True), ph.HWP(0.3, 1.0), ph.PhaseShifter(0.3, False),
     ph.BeamSplitter(0, True), ph.ModePermuter((True, False))],
    ids=["hwp-bool", "hwp-float", "phase-bool", "bs-bool", "permuter-bool"],
)
def test_a_mode_that_is_not_an_int_is_rejected(comp):
    with pytest.raises(ValueError, match="is not an int"):
        ph.PhotonicCircuit(2, [[comp]])


def test_numpy_int_modes_share_the_int_stage():
    stage = (ph.HWP(0.3, np.int64(1)),)
    circuit = ph.PhotonicCircuit(2, [stage])
    np.testing.assert_array_equal(
        ph.circuit_operator(circuit), fold_components(2, [ph.HWP(0.3, 1)])
    )
