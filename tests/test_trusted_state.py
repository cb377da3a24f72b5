"""The state path's trusted results: ``run_program``, ``simulate_photonic`` and
``_dj_final_state`` return the state the public constructor would build from the
vector their norm checks passed, without building it through those checks again."""

import dataclasses

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import photonic as ph
from photonwalk import walk_core as wc

CASES = [(name, f) for name, f in alg.two_bit_catalogue()]
CASES += [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
FNS = dict(CASES)


def random_state(topology: wc.Topology, seed: int) -> wc.WalkState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=topology.dim) + 1j * rng.normal(size=topology.dim)
    return wc.WalkState(topology, amps / np.linalg.norm(amps))


def assert_checked_state(state: wc.WalkState, topology: wc.Topology) -> None:
    amps = state.amplitudes
    assert state.topology == topology
    assert amps.dtype == complex
    assert amps.shape == (topology.dim,)
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0] = 0
    assert amps.tobytes() == wc.WalkState(topology, amps).amplitudes.tobytes()


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("steps", ["none", "program"])
def test_run_program_returns_a_checked_state(scheme, steps):
    topo = alg.scheme_topology(scheme)
    start = random_state(topo, 7)
    before = start.amplitudes.copy()
    program = [] if steps == "none" else alg.build_dj_program(FNS["vii"], scheme)
    out = wc.run_program(start, program)
    assert_checked_state(out, topo)
    np.testing.assert_array_equal(start.amplitudes, before)
    if not program:
        np.testing.assert_array_equal(out.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, start.amplitudes)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("stages", ["none", "compiled"])
def test_simulate_photonic_returns_a_checked_state(scheme, stages):
    topo = alg.scheme_topology(scheme)
    start = random_state(topo, 11)
    before = start.amplitudes.copy()
    if stages == "none":
        circuit = ph.PhotonicCircuit(topo.size, ())
    else:
        circuit = ph.compile(alg.build_dj_program(FNS["iii"], scheme), scheme)
    out = ph.simulate_photonic(circuit, start)
    assert_checked_state(out, topo)
    np.testing.assert_array_equal(start.amplitudes, before)
    if stages == "none":
        np.testing.assert_array_equal(out.amplitudes, before)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_dj_final_state_returns_a_checked_state(name, f, scheme):
    assert_checked_state(alg._dj_final_state(f, scheme), alg.scheme_topology(scheme))


@pytest.mark.parametrize("topo", [alg.CYCLE4, alg.LINE2], ids=["cycle4", "line2"])
def test_a_state_whose_norm_overflows_never_leaves_the_state_path(topo):
    amps = np.full(topo.dim, 1e200 + 1e200j)
    state = wc.WalkState(topo, amps)  # finite amplitudes: the constructor does not read the norm
    hadamard = wc.WalkStep(dict.fromkeys(range(topo.size), alg.COIN_HADAMARD))
    circuit = ph.PhotonicCircuit(topo.size, [(ph.HWP(np.pi / 8, 0),)])
    assert state.norm() == np.inf  # the squares overflow, and under -W error warn nothing
    with pytest.raises(wc.WalkError, match="^step 0: step did not preserve the state norm$"):
        wc.run_program(state, [hadamard])
    with pytest.raises(ValueError, match="^stage did not preserve the state norm$"):
        ph.simulate_photonic(circuit, state)


@pytest.mark.parametrize("shift", [None, wc.s_plus(0), wc.s_minus(1)], ids=["none", "+", "-"])
def test_a_trusted_step_is_the_step_the_public_constructor_builds(shift):
    coins = wc.build_coins([(0.1, 0.2, 0.3, 0.4), (0.5, -0.6, 0.7, -0.8)])
    coins.setflags(write=False)
    coin_map = {0: coins[0], 3: coins[1]}
    step = wc.WalkStep._from_checked(dict(coin_map), shift, 0.25)
    want = wc.WalkStep(coin_map, shift, 0.25)
    assert step == want and hash(step) == hash(want)
    assert (step.shift, step.global_phase, step.tag) == (shift, 0.25, None)
    assert list(step.coin_map) == [0, 3]
    assert all(step.coin_map[l] is c for l, c in coin_map.items())  # read-only already: no copy
    with pytest.raises(TypeError):
        step.coin_map[1] = coins[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.global_phase = 0.0
    state = random_state(alg.CYCLE4, 3)
    got, expect = wc.run_program(state, [step]), wc.run_program(state, [want])
    assert got.amplitudes.tobytes() == expect.amplitudes.tobytes()


# --- each producer hands its result the norm its last check measured


@pytest.fixture
def norm_calls(monkeypatch):
    """Calls to ``walk_core._norm``, which ``WalkState.norm`` measures with."""
    calls, norm = [], wc._norm
    monkeypatch.setattr(wc, "_norm", lambda v: calls.append(v) or norm(v))
    return calls


def zero_state(topology: wc.Topology) -> wc.WalkState:
    return wc.WalkState(topology, np.zeros(topology.dim))


PRODUCERS = {
    "run_program": lambda s: wc.run_program(s, alg.build_dj_program(FNS["vii"], alg.WITH_AUX)),
    "run_program-no-steps": lambda s: wc.run_program(s, []),
    "simulate_photonic": lambda s: ph.simulate_photonic(
        ph.compile(alg.build_dj_program(FNS["iii"], alg.WITH_AUX), alg.WITH_AUX), s
    ),
    "simulate_photonic-no-stages": lambda s: ph.simulate_photonic(ph.PhotonicCircuit(4, ()), s),
}


@pytest.mark.parametrize("start", ["random", "zero"])
@pytest.mark.parametrize("name", PRODUCERS)
def test_a_produced_state_carries_the_norm_of_its_amplitudes(name, start, norm_calls):
    state = random_state(alg.CYCLE4, 5) if start == "random" else zero_state(alg.CYCLE4)
    out = PRODUCERS[name](state)
    del norm_calls[:]
    norm = out.norm()
    assert not norm_calls  # carried, not measured again
    assert type(norm) is float and norm == wc._norm(out.amplitudes)
    assert (norm == 0.0) == (start == "zero")


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_the_final_dj_state_carries_the_norm_of_its_amplitudes(name, f, scheme, norm_calls):
    out = alg._dj_final_state(f, scheme)
    del norm_calls[:]
    norm = out.norm()
    assert not norm_calls
    assert type(norm) is float and norm == wc._norm(out.amplitudes)


@pytest.mark.parametrize("build", ["public", "trusted"])
@pytest.mark.parametrize("start", ["random", "zero"])
def test_a_state_without_a_carried_norm_measures_it_once(build, start, norm_calls):
    amps = (random_state(alg.LINE2, 9) if start == "random" else zero_state(alg.LINE2)).amplitudes
    if build == "public":
        state = wc.WalkState(alg.LINE2, amps)
    else:
        state = wc.WalkState._from_checked(alg.LINE2, amps.copy())
    assert not norm_calls  # no constructor measures the norm
    first, second = state.norm(), state.norm()
    assert len(norm_calls) == 1  # a zero state keeps its 0.0 too
    assert first == second == wc._norm(amps)
    assert (first == 0.0) == (start == "zero")


# --- states compare only through their parts


def test_two_states_on_one_topology_do_not_compare_and_no_state_hashes():
    state = wc.WalkState.basis(alg.CYCLE4, 1, 2)
    twin = wc.WalkState(alg.CYCLE4, np.eye(8)[6])
    assert vars(state).keys() == {"topology", "amplitudes"}  # nothing computed when built
    # numpy's error, never a silent answer: before 3.13 ``==`` raises it, and from
    # 3.13 the dataclass ``==`` returns numpy's array, whose truth value raises it
    with pytest.raises(ValueError, match="ambiguous"):
        bool(state == twin)
    with pytest.raises(TypeError, match="unhashable"):
        hash(state)
    assert state != wc.WalkState(wc.Topology(wc.OPEN_LINE, 4), np.eye(8)[6])  # same dim
    assert state != "state"
