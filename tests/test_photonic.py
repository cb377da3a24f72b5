import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonwalk import algorithms as alg
from photonwalk import photonic as ph
from photonwalk import walk_core as wc
from test_kernel_agreement import fold_components

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def all_cases():
    cases = list(alg.two_bit_catalogue())
    cases += [(f"bv-{s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
    return cases


class TestHWP:
    def test_pauli_x_angle(self):
        np.testing.assert_allclose(ph.hwp_jones(np.pi / 4), [[0, 1], [1, 0]], atol=1e-12)

    def test_hadamard_angle(self):
        np.testing.assert_allclose(ph.hwp_jones(np.pi / 8), H, atol=1e-12)

    def test_phase_flip_angles(self):
        np.testing.assert_allclose(ph.hwp_jones(0.0), np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(
            ph.hwp_jones(np.pi / 2), np.diag([-1.0, 1.0]), atol=1e-12
        )

    def test_orthogonal_det_minus_one(self):
        for alpha in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            j = ph.hwp_jones(alpha)
            assert np.max(np.abs(j.T @ j - np.eye(2))) <= 1e-12
            assert abs(np.linalg.det(j) + 1.0) <= 1e-12

    def test_hadamard_angle_involution(self):
        j = ph.hwp_jones(np.pi / 8)
        assert np.max(np.abs(j @ j - np.eye(2))) <= 1e-12


class TestBeamSplitter:
    def test_involutory(self):
        b = ph.bs_matrix()
        np.testing.assert_allclose(b @ b, np.eye(2), atol=1e-12)

    def test_even_split(self):
        m = fold_components(2, [ph.BeamSplitter(0, 1)])
        out = m @ wc.WalkState.basis(alg.LINE2, 0, 0).amplitudes
        probs = np.abs(out) ** 2
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_acts_identically_on_both_polarizations(self):
        m = fold_components(2, [ph.BeamSplitter(0, 1)])
        h_block = m[:2, :2]
        v_block = m[2:, 2:]
        np.testing.assert_allclose(h_block, v_block)


class TestPBS:
    def test_h_transmitted(self):
        m = fold_components(2, [ph.PBS(0, 1)])
        out = m @ wc.WalkState.basis(alg.LINE2, 0, 0).amplitudes
        np.testing.assert_allclose(out, wc.WalkState.basis(alg.LINE2, 0, 0).amplitudes)

    def test_v_routed(self):
        m = fold_components(2, [ph.PBS(0, 1)])
        out = m @ wc.WalkState.basis(alg.LINE2, 1, 0).amplitudes
        np.testing.assert_allclose(out, wc.WalkState.basis(alg.LINE2, 1, 1).amplitudes)

    def test_superposition_and_unitarity(self):
        m = fold_components(2, [ph.PBS(0, 1)])
        inp = (
            wc.WalkState.basis(alg.LINE2, 0, 0).amplitudes
            + wc.WalkState.basis(alg.LINE2, 1, 0).amplitudes
        ) / np.sqrt(2)
        out = m @ inp
        expected = (
            wc.WalkState.basis(alg.LINE2, 0, 0).amplitudes
            + wc.WalkState.basis(alg.LINE2, 1, 1).amplitudes
        ) / np.sqrt(2)
        np.testing.assert_allclose(out, expected)
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-12

    def test_mode_collision(self):
        for mode in (0, 1):
            with pytest.raises(ph.ModeCollision):
                ph.PhotonicCircuit(2, [[ph.PBS(mode, mode)]])


class TestCompile:
    def test_with_aux_constant_one_oracle(self):
        oracle = alg.build_oracle_with_aux(alg.BooleanFn(2, (1, 1, 1, 1)))
        circuit = ph.compile(list(oracle), alg.WITH_AUX)
        comps = [c for stage in circuit.stages for c in stage]
        assert len(comps) == 4
        assert all(isinstance(c, ph.HWP) for c in comps)
        assert all(c.angle == pytest.approx(np.pi / 4) for c in comps)
        assert ph.count_components(circuit) == ph.ComponentCount(hwp=4)

    def test_no_aux_x2_oracle(self):
        oracle = alg.build_oracle_no_aux(dict(alg.two_bit_catalogue())["iv"])
        circuit = ph.compile(list(oracle), alg.NO_AUX)
        comps = [c for stage in circuit.stages for c in stage]
        assert comps == [ph.PhaseShifter(np.pi, 1)]
        assert ph.count_components(circuit).hwp == 0

    def test_no_aux_xor_oracle(self):
        oracle = alg.build_oracle_no_aux(dict(alg.two_bit_catalogue())["vii"])
        circuit = ph.compile(list(oracle), alg.NO_AUX)
        comps = [c for stage in circuit.stages for c in stage]
        assert comps == [ph.HWP(0.0, 0), ph.HWP(np.pi / 2, 1)]

    def test_a_compiled_program_uses_only_the_five_optical_components(self):
        f = dict(alg.two_bit_catalogue())["vii"]
        circuit = ph.compile(alg.build_dj_program(f, alg.NO_AUX), alg.NO_AUX)
        assert circuit.n_modes == 2
        comps = [c for stage in circuit.stages for c in stage]
        kinds = (ph.HWP, ph.BeamSplitter, ph.PhaseShifter, ph.PBS, ph.ModePermuter)
        assert comps and all(isinstance(c, kinds) for c in comps)
        assert all(isinstance(c.angle, float) for c in comps if isinstance(c, ph.HWP))

    def test_unsupported_coin(self):
        weird = wc.WalkStep({0: wc.build_coins([(0.1, 0.2, 0.3, 0.4)])[0]})
        with pytest.raises(ph.UnsupportedCoin):
            ph.compile([weird], alg.NO_AUX)

    def test_shift_outside_block_rejected(self):
        with pytest.raises(ph.UnsupportedCoin):
            ph.compile([wc.WalkStep(shift=wc.s_plus(1))], alg.NO_AUX)

    @pytest.mark.parametrize("scheme", alg.SCHEMES)
    @pytest.mark.parametrize("name,f", all_cases())
    def test_full_circuit_matches_walk_operator(self, scheme, name, f):
        prog = alg.build_dj_program(f, scheme)
        circuit = ph.compile(prog, scheme)
        walk_op = wc.program_operator(prog, alg.scheme_topology(scheme))
        assert alg.equal_up_to_global_phase(ph.circuit_operator(circuit), walk_op, tol=1e-9)


class TestSimulate:
    def test_empty_circuit(self):
        circuit = ph.PhotonicCircuit(2, ())
        state = wc.WalkState.basis(alg.LINE2, 1, 1)
        out = ph.simulate_photonic(circuit, state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_hwp_flips_polarization(self):
        circuit = ph.PhotonicCircuit(2, ((ph.HWP(np.pi / 4, 0),),))
        out = ph.simulate_photonic(circuit, wc.WalkState.basis(alg.LINE2, 0, 0))
        np.testing.assert_allclose(
            out.amplitudes, wc.WalkState.basis(alg.LINE2, 1, 0).amplitudes, atol=1e-12
        )

    def test_dj_no_aux_constant(self):
        f = dict(alg.two_bit_catalogue())["i"]
        circuit = ph.compile(alg.build_dj_program(f, alg.NO_AUX), alg.NO_AUX)
        out = ph.simulate_photonic(circuit, wc.WalkState.basis(alg.LINE2, 0, 0))
        probs = np.abs(out.amplitudes) ** 2
        assert probs[0] == pytest.approx(1.0, abs=1e-10)

    def test_unnormalised_state_matches_circuit_operator(self):
        circuit = ph.PhotonicCircuit(
            2, ((ph.BeamSplitter(0, 1),), (ph.HWP(np.pi / 8, 0), ph.PhaseShifter(0.3, 1)))
        )
        amps = 2 * wc.WalkState.basis(alg.LINE2, 0, 0).amplitudes
        out = ph.simulate_photonic(circuit, wc.WalkState(alg.LINE2, amps))
        np.testing.assert_allclose(
            out.amplitudes, ph.circuit_operator(circuit) @ amps, atol=1e-12
        )

    def test_size_mismatch_raises_value_error(self):
        circuit = ph.PhotonicCircuit(4, ())
        with pytest.raises(ValueError, match="mode counts differ"):
            ph.simulate_photonic(circuit, wc.WalkState.basis(alg.LINE2, 0, 0))

    def test_output_feeds_walk_measurements(self):
        f = dict(alg.two_bit_catalogue())["i"]
        circuit = ph.compile(alg.build_dj_program(f, alg.WITH_AUX), alg.WITH_AUX)
        out = ph.simulate_photonic(circuit, wc.WalkState.basis(alg.CYCLE4, 0, 0))
        assert wc.measure_position(out)[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("scheme", alg.SCHEMES)
    @pytest.mark.parametrize("name,f", all_cases())
    def test_end_to_end_probabilities(self, scheme, name, f):
        prog = alg.build_dj_program(f, scheme)
        circuit = ph.compile(prog, scheme)
        photon = ph.simulate_photonic(
            circuit, wc.WalkState.basis(alg.scheme_topology(scheme), 0, 0)
        )
        walk = wc.run_program(
            wc.WalkState.basis(alg.scheme_topology(scheme), 0, 0), prog
        )
        np.testing.assert_allclose(
            np.abs(photon.amplitudes) ** 2,
            np.abs(walk.amplitudes) ** 2,
            atol=1e-9,
        )


class TestCounts:
    def test_empty(self):
        assert ph.count_components(ph.PhotonicCircuit(2, ())) == ph.ComponentCount()

    def test_mode_permuter_not_counted(self):
        circuit = ph.PhotonicCircuit(
            2, ((ph.ModePermuter((1, 0)),), (ph.HWP(0.0, 0),))
        )
        assert ph.count_components(circuit) == ph.ComponentCount(hwp=1)

    def test_stage_disjointness_enforced(self):
        with pytest.raises(ValueError):
            ph.PhotonicCircuit(2, ((ph.HWP(0.0, 0), ph.PhaseShifter(0.1, 0)),))

    @pytest.mark.parametrize(
        "stage",
        [
            (ph.BeamSplitter(0, 0),),
            (ph.PBS(1, 1),),
            (ph.HWP(0.3, 0), ph.ModePermuter((1, 0))),
            (ph.ModePermuter((1, 0)), ph.HWP(0.3, 0)),
            (ph.ModePermuter((1, 0)), ph.ModePermuter((0, 1))),
        ],
        ids=["bs-one-mode", "pbs-one-mode", "hwp-then-permuter", "permuter-then-hwp",
             "two-permuters"],
    )
    def test_a_stage_that_uses_a_mode_twice_is_a_mode_collision(self, stage):
        with pytest.raises(ph.ModeCollision, match="disjoint modes"):
            ph.PhotonicCircuit(2, (stage,))

    @pytest.mark.parametrize(
        "perm", [(0, 0, 1, 2), (0, 1), (3, 2, 1)], ids=["repeat", "short", "short-reversed"]
    )
    def test_mode_permuter_must_permute_every_mode(self, perm):
        with pytest.raises(ValueError, match="not a permutation of 4 modes"):
            ph.PhotonicCircuit(4, ((ph.ModePermuter(perm),),))

    @pytest.mark.parametrize("perm", [(0, 2, 3, 1), (0, 3, 1, 2)])
    def test_compiler_permuters_are_valid(self, perm):
        circuit = ph.PhotonicCircuit(4, ((ph.ModePermuter(perm),),))
        m = ph.circuit_operator(circuit)
        assert np.max(np.abs(m.conj().T @ m - np.eye(8))) <= wc.MATCH_TOL


class TestResourceReport:
    def test_bv_subset_rows(self):
        fns = [(s, alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
        rows = ph.resource_report(fns, algorithm="bv")
        assert len(rows) == 8
        assert [r["scheme"] for r in rows[:2]] == [alg.WITH_AUX, alg.NO_AUX]

    def test_counts_are_nonnegative_ints(self):
        rows = ph.resource_report(alg.two_bit_catalogue())
        for row in rows:
            for key in ("hwp", "bs", "phase_shifter", "pbs", "total"):
                assert isinstance(row[key], int)
                assert row[key] >= 0

    def test_no_aux_strictly_cheaper(self):
        rows = ph.resource_report(alg.two_bit_catalogue())
        by_fn = {}
        for row in rows:
            by_fn.setdefault(row["function_name"], {})[row["scheme"]] = row["total"]
        for name, totals in by_fn.items():
            assert totals[alg.NO_AUX] < totals[alg.WITH_AUX], name

    def test_csv_deterministic(self):
        rows1 = ph.resource_report(alg.two_bit_catalogue())
        rows2 = ph.resource_report(alg.two_bit_catalogue())
        assert ph.report_to_csv(rows1) == ph.report_to_csv(rows2)

    def test_readout_metadata(self):
        rows = ph.resource_report(alg.two_bit_catalogue())
        with_aux = [r for r in rows if r["scheme"] == alg.WITH_AUX][0]
        no_aux = [r for r in rows if r["scheme"] == alg.NO_AUX][0]
        assert not with_aux["readout"]["polarization_resolving"]
        assert no_aux["readout"]["polarization_resolving"]
        assert "PBS" in no_aux["readout"]["elements"]

    @pytest.mark.parametrize("algorithm", ["zz", "", "DJ", None])
    def test_an_unknown_algorithm_is_rejected(self, algorithm):
        f = dict(alg.two_bit_catalogue())["i"]
        want = f"unknown algorithm: {algorithm!r}"
        with pytest.raises(ValueError) as info:
            ph.compile(alg.build_dj_program(f, alg.WITH_AUX), alg.WITH_AUX, algorithm)
        assert str(info.value) == want
        with pytest.raises(ValueError) as info:
            ph.resource_report([("i", f)], algorithm=algorithm)
        assert str(info.value) == want


    @pytest.mark.parametrize("program", [[1], [wc.WalkStep(), "step"], [None]])
    def test_compile_rejects_a_program_entry_that_is_not_a_step(self, program):
        bad = next(entry for entry in program if not isinstance(entry, wc.WalkStep))
        with pytest.raises(ValueError) as info:
            ph.compile(program, alg.WITH_AUX)
        assert str(info.value) == f"program entry {bad!r} is not a WalkStep"

    @pytest.mark.parametrize("f", [3, None, (0, 1, 1, 0)])
    def test_resource_report_rejects_a_function_that_is_not_a_boolean_fn(self, f):
        with pytest.raises(ValueError) as info:
            ph.resource_report([("a", f)])
        assert str(info.value) == f"function 'a': {f!r} is not a BooleanFn"


def test_numpy_int_mode_count_is_stored_as_an_int():
    circuit = ph.PhotonicCircuit(np.int64(2), [(ph.HWP(0.3, 1),)])
    assert type(circuit.n_modes) is int and circuit.n_modes == 2
    want = fold_components(2, [ph.HWP(0.3, 1)])
    np.testing.assert_array_equal(ph.circuit_operator(circuit), want)
    # 2 * np.uint8(128) would wrap to 0 and give an empty operator
    assert ph.circuit_operator(ph.PhotonicCircuit(np.uint8(128), [])).shape == (256, 256)


def test_numpy_int_modes_give_the_int_circuit():
    def stages(i):
        return [
            (ph.HWP(0.3, i(1)), ph.BeamSplitter(i(0), i(2))),
            (ph.ModePermuter((i(2), i(0), i(1))),),
            (ph.PhaseShifter(0.1, i(2)), ph.PBS(i(0), i(1))),
        ]

    want = ph.PhotonicCircuit(3, stages(int))
    folded = fold_components(3, [c for stage in want.stages for c in stage])
    for i in (np.int64, np.int32, np.uint8):
        circuit = ph.PhotonicCircuit(3, stages(i))
        assert circuit == want, i
        np.testing.assert_array_equal(ph.circuit_operator(circuit), folded)


@pytest.mark.parametrize("n_modes", [-1, 0, 2.0, True, "2", None])
def test_a_mode_count_that_is_not_a_positive_int_is_rejected(n_modes):
    with pytest.raises(ValueError) as info:
        ph.PhotonicCircuit(n_modes, [])
    assert str(info.value) == f"mode count must be a positive int, got {n_modes!r}"


@pytest.mark.parametrize(
    "stages,message",
    [
        ([ph.HWP(0.1, 0)], "stage HWP(angle=0.1, mode=0, kind='hwp') is not a tuple of components"),
        ([(ph.HWP(0.1, 0), 1)], "stage entry 1 is not an optical component"),
        ([("x",)], "stage entry 'x' is not an optical component"),
    ],
    ids=["bare-component", "int-entry", "str-entry"],
)
def test_a_stage_that_is_not_a_tuple_of_components_is_rejected(stages, message):
    with pytest.raises(ValueError) as info:
        ph.PhotonicCircuit(2, stages)
    assert str(info.value) == message


BAD_ANGLES = [np.nan, np.inf, -np.inf, np.float64("nan"), "x", None, True, 0.5j, np.float32(0.25),
              10**400, -(10**400)]

BAD_IDS = [repr(a) for a in BAD_ANGLES[:-2]] + ["10**400", "-10**400"]


@pytest.mark.parametrize("make", [ph.HWP, ph.PhaseShifter], ids=["hwp", "phase"])
@pytest.mark.parametrize("angle", BAD_ANGLES, ids=BAD_IDS)
def test_an_angle_or_phase_that_is_not_a_finite_int_or_float_is_rejected(make, angle):
    comp = make(angle, 1)
    with pytest.raises(ValueError) as info:
        ph.PhotonicCircuit(2, [(ph.BeamSplitter(0, 1),), (comp,)])
    assert str(info.value) == f"{comp!r}: angle or phase is not a finite int or float"


@pytest.mark.parametrize(
    "angle",
    [1e308, -1e308, sys.float_info.max, 9 * 10**307],
    ids=["1e308", "-1e308", "max", "9*10**307"],
)
def test_an_hwp_angle_whose_double_overflows_is_rejected(angle):
    comp = ph.HWP(angle, 0)
    with pytest.raises(ValueError) as info:
        ph.PhotonicCircuit(2, [(comp,)])
    assert str(info.value) == f"{comp!r}: twice the angle is not a finite float"
    ph.PhotonicCircuit(2, [(ph.PhaseShifter(angle, 0),)])  # a phase is not doubled


def test_finite_real_angles_and_phases_are_accepted():
    big = [10**300, np.int64(2**62), sys.float_info.max / 2, -sys.float_info.max / 2]
    angles = [0, np.int64(1), 0.3, np.float64(-7.5), 1e6, *big]
    stages = [(ph.HWP(a, 0), ph.PhaseShifter(a, 1)) for a in angles]
    circuit = ph.PhotonicCircuit(2, stages)
    m = ph.circuit_operator(circuit)
    assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= wc.MATCH_TOL


def any_component(n_modes):
    mode = st.integers(0, n_modes - 1)
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    return st.one_of(
        st.builds(ph.HWP, angle, mode),
        st.builds(ph.PhaseShifter, angle, mode),
        st.builds(ph.BeamSplitter, mode, mode),
        st.builds(ph.PBS, mode, mode),
        st.permutations(range(n_modes)).map(ph.ModePermuter),
    )


@st.composite
def any_stages(draw):
    n_modes = draw(st.integers(1, 5))
    stage = st.lists(any_component(n_modes), min_size=1, max_size=4)
    return n_modes, draw(st.lists(stage, min_size=1, max_size=4))


def modes_used(comp, n_modes):
    if isinstance(comp, ph.ModePermuter):
        return list(range(n_modes))
    if isinstance(comp, (ph.BeamSplitter, ph.PBS)):
        return [comp.mode_a, comp.mode_b]
    return [comp.mode]


@settings(max_examples=200, deadline=None)
@given(any_stages())
def test_a_circuit_is_rejected_exactly_when_a_stage_repeats_a_mode(case):
    n_modes, stages = case
    used = [[m for comp in stage for m in modes_used(comp, n_modes)] for stage in stages]
    if any(len(set(modes)) < len(modes) for modes in used):
        with pytest.raises(ph.ModeCollision):
            ph.PhotonicCircuit(n_modes, stages)
    else:
        m = ph.circuit_operator(ph.PhotonicCircuit(n_modes, stages))
        assert np.max(np.abs(m.conj().T @ m - np.eye(2 * n_modes))) <= wc.MATCH_TOL


COMPILED = alg.two_bit_catalogue()
COMPILED += [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]


@pytest.mark.parametrize("algorithm", ["dj", "bv"])
@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("f", [f for _, f in COMPILED], ids=[name for name, _ in COMPILED])
def test_compile_assembles_the_circuit_the_checking_constructor_builds(f, scheme, algorithm):
    # compile skips PhotonicCircuit's checks: _lower_run has made them.
    c = ph.compile(alg.build_dj_program(f, scheme), scheme, algorithm)
    checked = ph.PhotonicCircuit(c.n_modes, c.stages, c.readout)
    assert c == checked
