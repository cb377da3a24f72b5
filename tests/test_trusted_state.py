"""The state path's trusted results: ``run_program``, ``simulate_photonic`` and
``_dj_final_state`` return the state the public constructor would build from the
vector their norm checks passed, without building it through those checks again."""

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
    with np.errstate(over="ignore"):  # the squares overflow in the norm's dot products
        assert state.norm() == np.inf
        with pytest.raises(wc.WalkError, match="^step 0: step did not preserve the state norm$"):
            wc.run_program(state, [hadamard])
        with pytest.raises(ValueError, match="^stage did not preserve the state norm$"):
            ph.simulate_photonic(circuit, state)
