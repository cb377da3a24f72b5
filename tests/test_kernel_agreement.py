"""The state path and the operator path agree: walk and optics alike."""

import numpy as np
import pytest

from photonwalk import photonic as ph
from photonwalk import walk_core as wc
from photonwalk.walk_core import Topology, WalkError, WalkState, WalkStep

SHIFTS = (None, wc.s_plus(0), wc.s_plus(1), wc.s_minus(0), wc.s_minus(1))


def random_unitary(rng, k=2):
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_step(rng, size):
    sites = rng.permutation(size)[: int(rng.integers(size + 1))]
    coin_map = {int(l): random_unitary(rng) for l in sites}
    shift = SHIFTS[int(rng.integers(len(SHIFTS)))]
    phase = rng.uniform(0, 2 * np.pi) if rng.random() < 0.5 else 0.0
    return WalkStep(coin_map, shift, phase)


@pytest.mark.parametrize(
    "topo",
    [Topology(wc.CLOSED_CYCLE, n) for n in range(2, 7)] + [Topology(wc.OPEN_LINE, 2)],
)
def test_run_program_matches_program_operator(topo):
    rng = np.random.default_rng(1000 + topo.size)
    for _ in range(20):
        prog = [random_step(rng, topo.size) for _ in range(int(rng.integers(1, 9)))]
        state = WalkState(topo, random_state(rng, topo.dim))
        walked = wc.run_program(state, prog).amplitudes
        operated = wc.program_operator(prog, topo) @ state.amplitudes
        assert np.max(np.abs(walked - operated)) <= 1e-12


@pytest.mark.parametrize("size", [3, 4, 5])
def test_open_line_operator_matches_every_accepted_step(size):
    topo = Topology(wc.OPEN_LINE, size)
    rng = np.random.default_rng(2000 + size)
    compared = rejected = 0
    for _ in range(40):
        step = random_step(rng, size)
        op = wc.program_operator([step], topo)
        for coin in (0, 1):
            for position in range(size):
                state = WalkState.basis(topo, coin, position)
                try:
                    out = wc.run_program(state, [step])
                except wc.BoundaryViolation:
                    rejected += 1
                    continue
                assert np.max(np.abs(out.amplitudes - op @ state.amplitudes)) <= 1e-12
                compared += 1
    assert compared > 0
    assert rejected > 0


def test_operator_path_checks_unitarity_after_each_step():
    # Each step passes at 8.0e-13; two of them compound to 1.6e-12.
    topo = Topology(wc.CLOSED_CYCLE, 3)
    near = WalkStep({1: np.diag([1.0, 1.0 + 4e-13])})
    assert wc._check_unitary(near.coin_map[1][None], str)[0] <= wc.MATCH_TOL
    wc.program_operator([near], topo)
    with pytest.raises(wc.WalkError, match=r"^step 1: operator is not unitary \(max deviation 1\.6"):
        wc.program_operator([near, near], topo)
    with pytest.raises(wc.WalkError, match="^step 2: operator is not unitary"):
        wc.program_operator([near, WalkStep(shift=wc.s_plus(0)), near], topo)


class TestSizeOneTopology:
    topo = Topology(wc.CLOSED_CYCLE, 1)
    step = WalkStep(shift=wc.s_plus(0))

    def test_state_path_rejects_shift(self):
        state = WalkState.basis(self.topo, 0, 0)
        with pytest.raises(WalkError, match="^step 0: shift requires at least two positions$"):
            wc.run_program(state, [self.step])
        with pytest.raises(WalkError, match="^step 0: shift requires at least two positions$"):
            wc.run_program(state, [self.step])

    def test_operator_path_rejects_shift(self):
        with pytest.raises(WalkError, match="^step 0: shift requires at least two positions$"):
            wc.program_operator([self.step], self.topo)
        with pytest.raises(WalkError, match="^step 0: shift requires at least two positions$"):
            wc.program_operator([WalkStep(shift=self.step.shift)], self.topo)

    def test_both_paths_name_the_step_whose_shift_is_rejected(self):
        steps = [WalkStep(), self.step]
        message = "^step 1: shift requires at least two positions$"
        with pytest.raises(WalkError, match=message):
            wc.run_program(WalkState.basis(self.topo, 0, 0), steps)
        with pytest.raises(WalkError, match=message):
            wc.program_operator(steps, self.topo)

    def test_coin_only_step_is_accepted(self):
        state = WalkState.basis(self.topo, 0, 0)
        step = WalkStep({0: np.array([[0.0, 1.0], [1.0, 0.0]])})
        out = wc.run_program(state, [step])
        np.testing.assert_array_equal(out.amplitudes, [0, 1])
        op = wc.program_operator([step], self.topo)
        np.testing.assert_array_equal(op, [[0, 1], [1, 0]])


def fold_components(n_modes, components):
    """Matrix of the components applied in order to the identity columns, unmemoised."""
    m = np.eye(2 * n_modes, dtype=complex)
    columns = m.reshape(2, n_modes, 2 * n_modes)
    for comp in components:
        ph._apply_stage(columns, (comp,))
    return m


def random_circuit(rng, n_modes, n_stages):
    stages = []
    for _ in range(n_stages):
        if rng.random() < 0.2:
            perm = tuple(int(m) for m in rng.permutation(n_modes))
            stages.append((ph.ModePermuter(perm),))
            continue
        modes = [int(m) for m in rng.permutation(n_modes)]
        stage = []
        while modes:
            kind = int(rng.integers(4))
            if kind == 0:
                stage.append(ph.HWP(rng.uniform(0, np.pi), modes.pop()))
            elif kind == 1:
                stage.append(ph.PhaseShifter(rng.uniform(0, 2 * np.pi), modes.pop()))
            elif len(modes) >= 2:
                a, b = modes.pop(), modes.pop()
                stage.append(ph.BeamSplitter(a, b) if kind == 2 else ph.PBS(a, b))
            else:
                modes.pop()
        stages.append(tuple(stage))
    return ph.PhotonicCircuit(n_modes, tuple(stages))


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
def test_simulate_photonic_matches_circuit_operator(n_modes):
    rng = np.random.default_rng(3000 + n_modes)
    kinds = set()
    for _ in range(25):
        circuit = random_circuit(rng, n_modes, int(rng.integers(1, 8)))
        kinds |= {comp.kind for stage in circuit.stages for comp in stage}
        state = WalkState(
            Topology(wc.CLOSED_CYCLE, n_modes), random_state(rng, 2 * n_modes)
        )
        simulated = ph.simulate_photonic(circuit, state).amplitudes
        operated = ph.circuit_operator(circuit) @ state.amplitudes
        assert np.max(np.abs(simulated - operated)) <= 1e-12
    assert kinds == {"hwp", "phase_shifter", "bs", "pbs", "mode_permuter"}


# Full-space matrices on 3 modes, index polarization * 3 + mode, written out.
_c, _s = np.cos(0.6), np.sin(0.6)  # HWP at 0.3 rad
_r = 1 / np.sqrt(2)
_e = np.exp(0.7j)
COMPONENT_MATRICES = [
    (
        ph.HWP(0.3, 1),
        [
            [1, 0, 0, 0, 0, 0],
            [0, _c, 0, 0, _s, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, _s, 0, 0, -_c, 0],
            [0, 0, 0, 0, 0, 1],
        ],
    ),
    (
        ph.PhaseShifter(0.7, 1),
        [
            [1, 0, 0, 0, 0, 0],
            [0, _e, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, _e, 0],
            [0, 0, 0, 0, 0, 1],
        ],
    ),
    (
        ph.BeamSplitter(2, 0),
        [
            [-_r, 0, _r, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [_r, 0, _r, 0, 0, 0],
            [0, 0, 0, -_r, 0, _r],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, _r, 0, _r],
        ],
    ),
    (
        ph.PBS(0, 2),
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
        ],
    ),
    (
        ph.ModePermuter((2, 0, 1)),  # mode 0 -> 2, 1 -> 0, 2 -> 1
        [
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
        ],
    ),
]


@pytest.mark.parametrize(
    "comp,expected", COMPONENT_MATRICES, ids=[c.kind for c, _ in COMPONENT_MATRICES]
)
def test_component_matrix_written_out(comp, expected):
    np.testing.assert_allclose(fold_components(3, [comp]), expected, atol=1e-15)
