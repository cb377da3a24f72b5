"""One input contract for the library's public constructors and entry points.

Every argument is drawn from the same value kinds: bool, int, ``np.int64``,
float, NaN, +-inf, ``np.float64``, str, None, negative, 0 and huge, next to
valid values.  Each call either raises one of the documented exception types
with a one-line message, or returns a value its consumers take: a result's
JSON form ``json.dumps`` takes with ``allow_nan=False``, and a circuit of at
most 8 modes has an operator that is unitary within ``MATCH_TOL``.  An accepted
value then goes through the calls that consume it, under the same rule.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonwalk import algorithms as alg
from photonwalk import photonic as ph
from photonwalk import walk_core as wc

DOCUMENTED = (ValueError, wc.WalkError, ph.CompileError, alg.PromiseViolation)

SCALARS = st.one_of(
    st.booleans(),
    st.integers(-3, 9),
    st.integers(-3, 9).map(np.int64),
    st.floats(),  # NaN and +-inf included
    st.floats().map(np.float64),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([2**63, 10**400, -(10**400), 1e308, -1e308]),
)

CONTRACT = settings(max_examples=150, deadline=None)


def either(valid, *more):
    """One of the listed values, or any scalar."""
    return st.one_of(st.sampled_from(valid), SCALARS, *more)


def check(call, to_json=None):
    """The value ``call`` returns, or None if it raised a documented error; a returned
    circuit of at most 8 modes must have a unitary operator."""
    try:
        value = call()
    except DOCUMENTED as exc:
        message = str(exc)
        assert message and "\n" not in message, f"{type(exc).__name__}: {message!r}"
        return None
    if to_json is not None:
        json.dumps(to_json(value), allow_nan=False)
    if isinstance(value, ph.PhotonicCircuit) and value.n_modes <= 8:
        m = ph.circuit_operator(value)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2 * value.n_modes))) <= wc.MATCH_TOL
    return value


def fn_json(f):
    return {"n": f.n, "table": list(f.table)}


def dj_json(out):
    return {"p_all_zero": out.p_all_zero, "classification": out.classification.value}


def bv_json(out):
    return {**dataclasses.asdict(out), "distribution": dict(out.distribution)}


def stages_json(snapshots):
    return [[stage, wc.state_to_json(state)] for stage, state in snapshots]


def report_json(rows):
    return {"rows": rows, "csv": ph.report_to_csv(rows)}


FUNCTIONS = [f for _, f in alg.two_bit_catalogue()] + [
    alg.BooleanFn(2, (1, 0, 0, 0)),  # neither constant nor balanced
    alg.BooleanFn(1, (0, 1)),
    alg.BooleanFn(3, (0, 1) * 4),
]
SCHEMES = either(alg.SCHEMES)
STEPS = [
    *alg.build_dj_program(FUNCTIONS[6], alg.WITH_AUX),
    wc.WalkStep(shift=wc.s_plus(0)),
    wc.WalkStep({0: wc.build_coins([(0.1, 0.2, 0.3, 0.4)])[0]}),  # unitary, no lowering
    wc.WalkStep({9: alg.COIN_X}),
]
TOPOLOGIES = [alg.CYCLE4, alg.LINE2, wc.Topology(wc.OPEN_LINE, 5)]


def run_function(f, scheme):
    """Every DJ entry point that takes a function, on one (f, scheme)."""
    check(lambda: alg.run_dj(f, scheme), dj_json)
    check(lambda: alg.dj_pipeline_states(f, scheme), stages_json)
    program = check(lambda: alg.build_dj_program(f, scheme))
    if program is not None:
        check(lambda: ph.compile(program, scheme))


@CONTRACT
@given(
    n=either([1, 2, 3]),
    table=st.one_of(
        SCALARS,
        st.lists(st.sampled_from([0, 1]), min_size=2, max_size=8),
        st.lists(either([0, 1]), max_size=8),
    ),
    scheme=SCHEMES,
    x=SCALARS,
)
# Each of these once ended in TypeError.
@example(n=2, table=[0, 1, 1, 0], scheme=alg.WITH_AUX, x=1.5)
@example(n=2, table=[0, 1, 1, 0], scheme=alg.WITH_AUX, x="a")
def test_boolean_fn(n, table, scheme, x):
    f = check(lambda: alg.BooleanFn(n, table), fn_json)
    if f is not None:
        check(lambda: f.value(x))
        run_function(f, scheme)


@CONTRACT
@given(f=either(FUNCTIONS), scheme=SCHEMES)
@example(f=3, scheme=alg.WITH_AUX)  # AttributeError once
def test_dj_entry_points(f, scheme):
    run_function(f, scheme)


@CONTRACT
@given(s=either(["0", "01", "10", "111"], st.text("01", max_size=6)), scheme=SCHEMES)
def test_hidden_strings(s, scheme):
    f = check(lambda: alg.hidden_string_fn(s), fn_json)
    out = check(lambda: alg.run_bv(s, scheme), bv_json)
    assert (f is None) == (out is None) or scheme not in alg.SCHEMES


@CONTRACT
@given(
    kind=either([wc.OPEN_LINE, wc.CLOSED_CYCLE]),
    size=either([1, 2, 4, 5]),
    coin=either([0, 1]),
    position=either([0, 1, 4]),
)
def test_topology_and_basis_state(kind, size, coin, position):
    topo = check(lambda: wc.Topology(kind, size), dataclasses.asdict)
    if topo is not None and topo.size <= 8:
        check(lambda: wc.WalkState.basis(topo, coin, position), wc.state_to_json)


@CONTRACT
@given(coin=either([0, 1]), direction=either([1, -1]))
def test_shift(coin, direction):
    check(lambda: wc.Shift(coin, direction), dataclasses.asdict)


@CONTRACT
@given(
    topology=either(TOPOLOGIES[:2]),
    amplitudes=st.one_of(
        SCALARS,
        st.lists(either([0, 1, 0.5j]), min_size=4, max_size=4),
        st.lists(either([0, 1, 0.5j]), min_size=8, max_size=8),
    ),
)
def test_walk_state(topology, amplitudes):
    check(lambda: wc.WalkState(topology, amplitudes), wc.state_to_json)


OBJECT_COIN = np.array([[2, 0], [0, 1]], dtype=object)  # not unitary, and not numeric
STRING_COIN = np.array([["a", "b"], ["c", "d"]])
COINS = [
    alg.COIN_X,
    alg.COIN_HADAMARD,
    alg.COIN_NEG_IDENTITY,
    2 * alg.COIN_X,
    STRING_COIN,
    np.array([[None, None], [None, None]]),
    OBJECT_COIN,
    np.eye(3),
    np.array([1.0, 0.0]),
]


@CONTRACT
@given(
    coin_map=st.one_of(
        SCALARS, st.dictionaries(either([0, 1, 3]), either(COINS), max_size=3)
    ),
    shift=either([None, wc.s_plus(0), wc.s_minus(1)]),
    global_phase=either([0.0, 0.5, np.pi]),
    tag=either([None, alg.TAG_ORACLE, alg.TAG_POSITION_HADAMARD]),
)
# Each of these once ended in AttributeError or TypeError.
@example(coin_map={}, shift="x", global_phase=0.0, tag=None)
@example(coin_map=None, shift=None, global_phase=0.0, tag=None)
@example(coin_map={}, shift=None, global_phase=0.0, tag=[1])
@example(coin_map={0: alg.COIN_X, "a": alg.COIN_X}, shift=None, global_phase=0.0, tag=None)
@example(coin_map={0: STRING_COIN}, shift=None, global_phase=0.0, tag=None)  # UFuncTypeError once
def test_walk_step_runs_and_compiles(coin_map, shift, global_phase, tag):
    step = check(lambda: wc.WalkStep(coin_map, shift, global_phase, tag))
    if step is None:
        return
    for topo in TOPOLOGIES:
        m = check(lambda: wc.program_operator([step], topo))
        assert m is None or np.isfinite(m).all()
        start = wc.WalkState.basis(topo, 0, 0)
        check(lambda: wc.run_program(start, [step]), wc.state_to_json)
    for scheme in alg.SCHEMES:
        check(lambda: ph.compile([step], scheme))


def test_a_non_numeric_coin_is_rejected_before_either_path_runs():
    with pytest.raises(wc.WalkError) as info:
        wc.WalkStep({2: OBJECT_COIN})
    assert str(info.value) == "coin at position 2 is not numeric"


MODES = either([0, 1, 3])
COMPONENT_ARGS = {
    ph.HWP: st.tuples(either([0.0, np.pi / 8]), MODES),
    ph.BeamSplitter: st.tuples(MODES, MODES),
    ph.PhaseShifter: st.tuples(either([0.0, np.pi]), MODES),
    ph.PBS: st.tuples(MODES, MODES),
    ph.ModePermuter: st.tuples(
        st.one_of(SCALARS, st.lists(MODES, max_size=4), st.permutations(range(4)))
    ),
}
COMPONENTS = st.one_of(
    [args.map(lambda a, cls=cls: (cls, a)) for cls, args in COMPONENT_ARGS.items()]
)


@CONTRACT
@given(
    parts=st.lists(st.lists(COMPONENTS, max_size=2), max_size=3),
    n_modes=either([2, 4]),
    readout=either([None, {"scheme": alg.NO_AUX}]),
)
@example(parts=[[(ph.ModePermuter, ([],))]], n_modes=2**63, readout=None)  # OverflowError once
def test_components_in_a_circuit(parts, n_modes, readout):
    stages = [[check(lambda: cls(*args)) for cls, args in stage] for stage in parts]
    circuit = check(lambda: ph.PhotonicCircuit(n_modes, stages, readout))
    if circuit is None or circuit.n_modes > 8:  # a huge mode count is valid, but not built
        return
    start = wc.WalkState.basis(wc.Topology(wc.CLOSED_CYCLE, circuit.n_modes), 0, 0)
    check(lambda: ph.simulate_photonic(circuit, start), wc.state_to_json)


@CONTRACT
@given(
    n_modes=either([2, 4]),
    stages=st.one_of(SCALARS, st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)))),
)
def test_circuit_stages(n_modes, stages):
    check(lambda: ph.PhotonicCircuit(n_modes, stages))


@CONTRACT
@given(
    program=st.one_of(
        SCALARS,
        st.lists(either(STEPS), max_size=4),
        st.sampled_from(FUNCTIONS[:8]).map(lambda f: alg.build_dj_program(f, alg.NO_AUX)),
    ),
    scheme=SCHEMES,
    algorithm=either(["dj", "bv"]),
)
def test_compile(program, scheme, algorithm):
    check(lambda: ph.compile(program, scheme, algorithm))


@CONTRACT
@given(
    functions=st.one_of(
        SCALARS,
        st.lists(st.one_of(SCALARS, st.tuples(either(["i", "f"]), either(FUNCTIONS))), max_size=2),
    ),
    algorithm=either(["dj", "bv"]),
)
def test_resource_report(functions, algorithm):
    check(lambda: ph.resource_report(functions, algorithm), report_json)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: wc.WalkStep(shift="x"), ValueError, "shift must be None or a Shift, got str"),
        (lambda: wc.WalkStep(coin_map=None), ValueError, "coin map must be a mapping, got NoneType"),
        (lambda: wc.WalkStep(tag=[1]), ValueError, "tag must be None or a str, got list"),
        (
            lambda: wc.WalkStep({0: alg.COIN_X, "a": alg.COIN_X}),
            wc.WalkError,
            "coin position 'a' is not an int",
        ),
        (
            lambda: wc.WalkStep({0: STRING_COIN}),
            wc.WalkError,
            "coin at position 0 is not numeric",
        ),
        (lambda: alg.run_dj(3, alg.WITH_AUX), ValueError, "function 3 is not a BooleanFn"),
        (lambda: alg.build_dj_program(3, alg.NO_AUX), ValueError, "function 3 is not a BooleanFn"),
        (lambda: alg.dj_pipeline_states(3, alg.NO_AUX), ValueError, "function 3 is not a BooleanFn"),
        (lambda: wc.WalkState(2, [1, 0, 0, 0]), ValueError, "topology must be a Topology, got int"),
        (
            lambda: wc.WalkState(alg.LINE2, [10**400, 0, 0, 0]),
            ValueError,
            "amplitudes must be complex numbers",
        ),
        (lambda: ph.ModePermuter(3), ValueError, "mode permutation must be iterable, got int"),
        (lambda: ph.PhotonicCircuit(2, None), ValueError, "stages must be iterable, got NoneType"),
        (
            lambda: ph.PhotonicCircuit(2, (), readout=float("nan")),
            ValueError,
            "readout must be None or a dict, got float",
        ),
        (lambda: ph.compile(None, alg.NO_AUX), ValueError, "program must be iterable, got NoneType"),
        (lambda: ph.resource_report(False), ValueError, "functions must be iterable, got bool"),
        (
            lambda: ph.resource_report([3]),
            ValueError,
            r"function entry 3 is not a (name, BooleanFn) pair",
        ),
        (
            lambda: ph.resource_report([(float("nan"), FUNCTIONS[0])]),
            ValueError,
            f"function entry (nan, {FUNCTIONS[0]!r}) is not a (name, BooleanFn) pair",
        ),
    ],
)
def test_each_rejection_names_the_value(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
