import numpy as np
import pytest

from photonwalk import walk_core as wc
from photonwalk.walk_core import (
    Topology,
    WalkState,
    WalkStep,
    build_coins,
    program_operator,
    s_minus,
    s_plus,
)

CYCLE4 = Topology(wc.CLOSED_CYCLE, 4)
LINE2 = Topology(wc.OPEN_LINE, 2)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def coin_reference(p, q, r, t):
    # independent entrywise evaluation of the coin formula
    return np.exp(1j * p) * np.array(
        [
            [np.exp(1j * q) * np.cos(t), np.exp(1j * r) * np.sin(t)],
            [-np.exp(-1j * r) * np.sin(t), np.exp(-1j * q) * np.cos(t)],
        ]
    )


class TestBuildCoin:
    def test_identity(self):
        np.testing.assert_allclose(build_coins([(0, 0, 0, 0)])[0], np.eye(2))

    def test_pauli_x_tuple(self):
        m = build_coins([(-np.pi / 2, 0, np.pi / 2, np.pi / 2)])[0]
        np.testing.assert_allclose(m, X, atol=1e-12)

    def test_phase_flip_tuple(self):
        m = build_coins([(np.pi / 2, np.pi / 2, 0, np.pi)])[0]
        np.testing.assert_allclose(m, np.diag([1.0, -1.0]), atol=1e-12)

    def test_hadamard_tuple_corrected(self):
        # The q = +pi/2 variant is the one that evaluates to H; confirmed by
        # the independent entrywise reference.
        m = build_coins([(-np.pi / 2, np.pi / 2, np.pi / 2, np.pi / 4)])[0]
        np.testing.assert_allclose(m, H, atol=1e-12)
        ref = coin_reference(-np.pi / 2, np.pi / 2, np.pi / 2, np.pi / 4)
        np.testing.assert_allclose(m, ref, atol=1e-12)

    def test_hadamard_tuple_with_negative_q_is_not_hadamard(self):
        m = build_coins([(-np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 4)])[0]
        expected = np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(m, expected, atol=1e-12)
        ref = coin_reference(-np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 4)
        np.testing.assert_allclose(m, ref, atol=1e-12)
        assert np.max(np.abs(m - H)) > 0.5

    def test_unitarity_random_sample(self):
        rng = np.random.default_rng(42)
        rows = rng.uniform(-2 * np.pi, 2 * np.pi, size=(1000, 4))
        for m in build_coins(rows):
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) <= 1e-12

    def test_determinant(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-np.pi, np.pi, size=(200, 4))
        for row, m in zip(rows, build_coins(rows)):
            assert abs(np.linalg.det(m) - np.exp(2j * row[0])) <= 1e-12


class TestBuildShift:
    def test_s_minus_on_cycle(self):
        m = program_operator([WalkStep(shift=s_minus(0))], CYCLE4)
        v = np.zeros(8)
        v[0] = 1  # |0>|0>
        out = m @ v
        assert out[3] == 1  # |0>|3>
        v = np.zeros(8)
        v[4 + 2] = 1  # |1>|2>
        out = m @ v
        assert out[4 + 2] == 1

    def test_s_plus_on_line(self):
        m = program_operator([WalkStep(shift=s_plus(1))], LINE2)
        v = np.zeros(4)
        v[2] = 1  # |1>|0>
        assert (m @ v)[3] == 1  # |1>|1>
        v = np.zeros(4)
        v[0] = 1  # |0>|0>
        assert (m @ v)[0] == 1

    @pytest.mark.parametrize("topo", [CYCLE4, LINE2, Topology(wc.OPEN_LINE, 6)])
    @pytest.mark.parametrize(
        "shift", [s_plus(0), s_plus(1), s_minus(0), s_minus(1)]
    )
    def test_permutation_structure(self, topo, shift):
        m = np.abs(program_operator([WalkStep(shift=shift)], topo))
        assert np.allclose(m.sum(axis=0), 1.0)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert np.all((m < 1e-15) | (np.abs(m - 1.0) < 1e-15))


class TestApplyStep:
    def test_x_everywhere_flips_coin(self):
        state = WalkState.basis(CYCLE4, 0, 0)
        out = wc.run_program(state, [WalkStep({l: X for l in range(4)})])
        np.testing.assert_allclose(out.amplitudes, WalkState.basis(CYCLE4, 1, 0).amplitudes)

    def test_identity_step(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = WalkState(CYCLE4, amps)
        out = wc.run_program(state, [WalkStep()])
        np.testing.assert_allclose(out.amplitudes, amps)

    def test_entangling_shift(self):
        amps = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)  # (|0>+|1>)|0>
        out = wc.run_program(WalkState(LINE2, amps), [WalkStep(shift=s_plus(1))])
        expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected)

    @pytest.mark.parametrize("position", [7, 4, -1])
    def test_rejects_coin_position_off_the_graph(self, position):
        state = WalkState.basis(CYCLE4, 0, 0)
        step = WalkStep({position: np.eye(2)})
        with pytest.raises(wc.WalkError, match=f"step 0: coin position {position}.* 4"):
            wc.run_program(state, [step])
        with pytest.raises(wc.WalkError, match=f"step 1: coin position {position}.* 4"):
            wc.run_program(state, [WalkStep(), step])

    @pytest.mark.parametrize("position", [7, 4, -1])
    def test_operator_rejects_coin_position_off_the_graph(self, position):
        step = WalkStep({position: np.eye(2)})
        with pytest.raises(wc.WalkError, match=f"coin position {position}.* 4"):
            wc.program_operator([step], CYCLE4)
        with pytest.raises(wc.WalkError, match=f"coin position {position}.* 4"):
            wc.program_operator([WalkStep(), step], CYCLE4)

    @pytest.mark.parametrize(
        "position", [2.0, True, np.float64(1.0), np.bool_(True), "1"],
        ids=["float", "bool", "np-float", "np-bool", "str"],
    )
    def test_rejects_coin_position_that_is_not_an_int(self, position):
        # When the step is built, so neither path ever sees it.
        with pytest.raises(wc.WalkError) as info:
            WalkStep({position: X})
        assert str(info.value) == f"coin position {position!r} is not an int"

    def test_numpy_int_coin_position_is_an_int(self):
        out = wc.run_program(WalkState.basis(CYCLE4, 0, 2), [WalkStep({np.int64(2): X})])
        np.testing.assert_array_equal(out.amplitudes, WalkState.basis(CYCLE4, 1, 2).amplitudes)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            coin_map = {}
            for l in range(4):
                q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                coin_map[l] = q
            step = WalkStep(coin_map, s_plus(int(rng.integers(2))), rng.uniform(0, 2 * np.pi))
            out = wc.run_program(WalkState(CYCLE4, amps), [step])
            assert abs(out.norm() - 1.0) <= 1e-10

    def test_boundary_violation(self):
        line3 = Topology(wc.OPEN_LINE, 3)
        state = WalkState.basis(line3, 1, 2)
        with pytest.raises(wc.BoundaryViolation):
            wc.run_program(state, [WalkStep(shift=s_plus(1))])

    def test_boundary_ok_when_edge_cell_empty(self):
        line3 = Topology(wc.OPEN_LINE, 3)
        state = WalkState.basis(line3, 1, 0)
        out = wc.run_program(state, [WalkStep(shift=s_plus(1))])
        np.testing.assert_allclose(out.amplitudes, WalkState.basis(line3, 1, 1).amplitudes)


class TestRunProgram:
    def test_empty_program(self):
        state = WalkState.basis(CYCLE4, 0, 2)
        out = wc.run_program(state, [])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_double_x_restores(self):
        state = WalkState.basis(CYCLE4, 0, 1)
        step = WalkStep({l: X for l in range(4)})
        out = wc.run_program(state, [step, step])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        prog = []
        for _ in range(6):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            prog.append(WalkStep({0: q, 2: q.conj().T}, s_minus(1)))
        state = WalkState(CYCLE4, amps)
        whole = wc.run_program(state, prog)
        split = wc.run_program(wc.run_program(state, prog[:3]), prog[3:])
        np.testing.assert_array_equal(whole.amplitudes, split.amplitudes)

    def test_error_carries_step_index(self):
        line3 = Topology(wc.OPEN_LINE, 3)
        state = WalkState.basis(line3, 1, 1)
        prog = [WalkStep(shift=s_plus(1)), WalkStep(shift=s_plus(1))]
        with pytest.raises(wc.BoundaryViolation, match="step 1"):
            wc.run_program(state, prog)


class TestMeasurement:
    def test_point_mass(self):
        probs = wc.measure_position(WalkState.basis(CYCLE4, 1, 2))
        np.testing.assert_allclose(probs, [0, 0, 1, 0])

    def test_uniform(self):
        amps = np.full(8, 1 / np.sqrt(8), dtype=complex)
        probs = wc.measure_position(WalkState(CYCLE4, amps))
        np.testing.assert_allclose(probs, 0.25)

    def test_joint(self):
        joint = wc.measure_joint(WalkState.basis(CYCLE4, 0, 1))
        assert joint[0, 1] == 1.0
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        joint = wc.measure_joint(WalkState(LINE2, bell))
        np.testing.assert_allclose(joint, [[0.5, 0], [0, 0.5]])

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = WalkState(CYCLE4, amps)
        assert abs(wc.measure_position(state).sum() - 1.0) <= 1e-10
        assert abs(wc.measure_joint(state).sum() - 1.0) <= 1e-10


class TestSerialization:
    def test_state_json(self):
        blob = wc.state_to_json(WalkState.basis(LINE2, 1, 0))
        assert blob["kind"] == wc.OPEN_LINE
        assert blob["size"] == 2
        assert blob["amplitudes"][2] == [1.0, 0.0]
