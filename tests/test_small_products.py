"""The small products and norms of the walk and optics paths give exactly the
values of the ``@`` / ``np.linalg.norm`` code they stand for, and the blocks that
do not depend on f are shared by identity through bounded, read-only memos."""

import dataclasses
import math

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import photonic as ph
from photonwalk import walk_core as wc
from test_kernel_agreement import fold_components

FUNCTIONS = list(alg.two_bit_catalogue()) + [
    (f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS
]
CASES = [(name, f, scheme) for name, f in FUNCTIONS for scheme in alg.SCHEMES]
CASE_IDS = [f"{name}/{scheme}" for name, _, scheme in CASES]


# --- the products as they were written before, with ``@`` and np.linalg.norm


def old_evolve(amps, step):
    for l, c in step.coin_map.items():
        amps[:, l] = c @ amps[:, l]
    if step.shift is not None:
        amps[step.shift.coin] = np.roll(amps[step.shift.coin], step.shift.direction, axis=0)
    if step.global_phase != 0.0:
        amps *= np.exp(1j * step.global_phase)


def old_step_matrix(topology, step):
    m = np.eye(topology.dim, dtype=complex)
    old_evolve(m.reshape(2, topology.size, topology.dim), step)
    return m


def old_program_operator(steps, topology):
    m = np.eye(topology.dim, dtype=complex)
    for step in steps:
        m = old_step_matrix(topology, step) @ m
    return m


def old_run_program(amps, steps, topology):
    amps = np.array(amps, dtype=complex)
    for step in steps:
        old_evolve(amps.reshape(2, topology.size), step)
    return amps


def old_circuit_operator(circuit):
    m = np.eye(2 * circuit.n_modes, dtype=complex)
    for stage in circuit.stages:
        m = fold_components(circuit.n_modes, stage) @ m
    return m


def old_simulate(circuit, amps):
    for stage in circuit.stages:
        amps = fold_components(circuit.n_modes, stage) @ amps
    return amps


# --- _norm


@pytest.mark.parametrize("size", [2, 3, 4, 7, 8, 16, 63, 64, 100, 255, 256, 1000, 1024, 2048])
def test_norm_is_bit_identical_to_numpy(size):
    rng = np.random.default_rng(size)
    for scale in (1e-200, 1e-3, 1.0, 1e5, 1e150):
        v = scale * (rng.normal(size=size) + 1j * rng.normal(size=size))
        got = wc._norm(v)
        assert type(got) is float
        assert got == float(np.linalg.norm(v)), scale
    if size % 2 == 0:
        state = wc.WalkState(wc.Topology(wc.CLOSED_CYCLE, size // 2), v)
        assert state.norm() == float(np.linalg.norm(v))


@pytest.mark.parametrize(
    "entry,want",
    [
        (np.nan, np.isnan),
        (complex(0.0, np.nan), np.isnan),
        (np.inf, np.isposinf),
        (-np.inf, np.isposinf),
        (complex(0.0, -np.inf), np.isposinf),
        (complex(np.inf, np.nan), np.isnan),
    ],
    ids=["nan", "nan-imag", "inf", "-inf", "-inf-imag", "inf-nan"],
)
def test_norm_of_a_non_finite_vector_matches_numpy(entry, want):
    v = np.array([0.6, 0.8j, entry, 1 - 1j], dtype=complex)
    got = wc._norm(v)
    assert want(got) and want(np.linalg.norm(v))


# --- products against the old fold


@pytest.mark.parametrize("name,f,scheme", CASES, ids=CASE_IDS)
def test_program_operator_of_every_program_equals_the_old_fold(name, f, scheme):
    topo = alg.scheme_topology(scheme)
    program = alg.build_dj_program(f, scheme)
    assert np.array_equal(wc.program_operator(program, topo), old_program_operator(program, topo))


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("include_coin", [True, False])
def test_program_operator_of_each_hadamard_layer_equals_the_old_fold(scheme, include_coin):
    topo = alg.scheme_topology(scheme)
    layer = alg.hadamard_layer(scheme, include_coin)
    assert np.array_equal(wc.program_operator(layer, topo), old_program_operator(layer, topo))


@pytest.mark.parametrize("name,f,scheme", CASES, ids=CASE_IDS)
def test_dj_operator_and_final_state_equal_the_old_fold(name, f, scheme):
    topo = alg.scheme_topology(scheme)
    prefix = old_program_operator(alg._scheme(scheme).prefix, topo)
    oracle = old_program_operator(alg._dj_oracle(f, scheme), topo)
    suffix = old_program_operator(alg._scheme(scheme).suffix, topo)
    assert np.array_equal(alg._dj_operator(f, scheme), suffix @ oracle @ prefix)

    queried = old_run_program(prefix[:, 0], alg._dj_oracle(f, scheme), topo)
    want = suffix @ queried
    final = alg._dj_final_state(f, scheme)
    assert np.array_equal(final.amplitudes, want)
    assert final.norm() == float(np.linalg.norm(want))


@pytest.mark.parametrize("name,f,scheme", CASES, ids=CASE_IDS)
def test_run_program_equals_the_old_state_fold(name, f, scheme):
    topo = alg.scheme_topology(scheme)
    program = alg.build_dj_program(f, scheme)
    start = wc.WalkState.basis(topo, 0, 0)
    got = wc.run_program(start, program).amplitudes
    assert np.array_equal(got, old_run_program(start.amplitudes, program, topo))


@pytest.mark.parametrize("algorithm", ["dj", "bv"])
@pytest.mark.parametrize("name,f,scheme", CASES, ids=CASE_IDS)
def test_circuit_operator_and_simulation_equal_the_old_fold(name, f, scheme, algorithm):
    circuit = ph.compile(alg.build_dj_program(f, scheme), scheme, algorithm)
    assert np.array_equal(ph.circuit_operator(circuit), old_circuit_operator(circuit))
    start = wc.WalkState.basis(alg.scheme_topology(scheme), 0, 0)
    got = ph.simulate_photonic(circuit, start).amplitudes
    assert np.array_equal(got, old_simulate(circuit, start.amplitudes))


def test_random_coins_give_the_old_products():
    rng = np.random.default_rng(15)
    topo = wc.Topology(wc.CLOSED_CYCLE, 5)
    for _ in range(50):
        coins, _ = np.linalg.qr(rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2)))
        step = wc.WalkStep(dict(enumerate(coins)), wc.s_plus(1), rng.uniform(0, np.pi))
        amps = rng.normal(size=10) + 1j * rng.normal(size=10)
        amps /= np.linalg.norm(amps)
        got = wc.run_program(wc.WalkState(topo, amps), [step]).amplitudes
        assert np.array_equal(got, old_run_program(amps, [step], topo))
        assert np.array_equal(wc.program_operator([step], topo), old_step_matrix(topo, step))


def test_unitary_deviation_equals_the_old_formula(monkeypatch):
    monkeypatch.setattr(wc, "MATCH_TOL", math.inf)  # return every deviation, raise on none
    rng = np.random.default_rng(16)
    for n in (3, 4, 8, 10):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(m)
        for a in (m, q, np.eye(n, dtype=complex), -1j * np.eye(n)):
            want = float(np.max(np.abs(a.conj().T @ a - np.eye(n))))
            assert wc._check_unitary(a[None], str)[0] == want
            assert wc._check_unitary([a, q, a], str).tolist()[::2] == [want, want]  # batched
    nan = np.eye(4, dtype=complex)
    nan[1, 2] = np.nan
    with pytest.raises(wc.WalkError, match=r"^0 is not unitary \(max deviation nan\)$"):
        wc._check_unitary(nan[None], str)


# --- the new memos


@pytest.mark.parametrize("n_modes", [2, 4])
def test_butterfly_stages_are_one_shared_tuple(n_modes):
    stages = ph._POSITION_HADAMARD_STAGES[n_modes]
    assert isinstance(stages, tuple) and all(isinstance(stage, tuple) for stage in stages)
    scheme = alg.WITH_AUX if n_modes == 4 else alg.NO_AUX
    circuit = ph.compile(alg.build_dj_program(dict(alg.two_bit_catalogue())["vii"], scheme), scheme)
    ids = {id(stage) for stage in stages}
    shared = [stage for stage in circuit.stages if id(stage) in ids]
    assert len(shared) == 2 * len(stages)  # one butterfly per Hadamard layer


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_both_hadamard_layers_share_one_position_block(scheme):
    record = alg._scheme(scheme)
    with_coin = alg.hadamard_layer(scheme, True)
    without = alg.hadamard_layer(scheme, False)
    assert isinstance(record.position_hadamard, tuple)
    assert with_coin[0] is record.coin_hadamard and with_coin[0].tag == alg.TAG_COIN_HADAMARD
    assert len(with_coin) == len(without) + 1
    assert all(a is b for a, b in zip(with_coin[1:], without))
    assert all(a is b for a, b in zip(without, record.position_hadamard))
    # The DJ prefix and suffix end in the layer steps themselves.
    for steps in (record.prefix, record.suffix):
        assert all(a is b for a, b in zip(steps[::-1], with_coin[::-1]))


def test_a_warm_compile_compares_no_step_or_component_by_value(monkeypatch):
    ph._lower_run.cache_clear()
    programs = [(alg.build_dj_program(f, s), s) for _, f, s in CASES]
    for program, scheme in programs:
        ph.compile(program, scheme)
    calls = []
    for cls in (wc.WalkStep, ph.HWP, ph.BeamSplitter, ph.PhaseShifter, ph.ModePermuter):
        eq = cls.__eq__
        monkeypatch.setattr(cls, "__eq__", lambda a, b, eq=eq: calls.append(a) or eq(a, b))
    for program, scheme in programs:
        ph.compile(program, scheme)
    assert calls == []


# --- the oracle-equivalence suite reads the memoised oracle steps


def test_oracle_equiv_still_fails_on_a_wrong_oracle(monkeypatch):
    real = alg._dj_oracle
    flip = dict(alg.two_bit_catalogue())["ii"]
    monkeypatch.setattr(alg, "_dj_oracle", lambda f, scheme: real(flip, scheme))
    ((name, ok, message),) = cli.run_suites(["oracle-equiv"])
    assert not ok and message == "with-aux oracle mismatch for i"


def test_oracle_equiv_builds_no_oracle_step_when_warm(monkeypatch):
    cli.run_suites(["oracle-equiv"])

    def fail(f):
        raise AssertionError("oracle rebuilt")

    # The builders are read from the scheme records, so each record is swapped.
    records = {s: dataclasses.replace(alg._scheme(s), oracle=fail) for s in alg.SCHEMES}
    monkeypatch.setattr(alg, "_scheme", records.__getitem__)
    assert cli.run_suites(["oracle-equiv"]) == [("oracle-equiv", True, "")]
    alg._dj_oracle.cache_clear()
    ((name, ok, message),) = cli.run_suites(["oracle-equiv"])
    assert not ok and message == "oracle rebuilt"
