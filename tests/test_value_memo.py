"""Values derived from a step, a scheme or a two-bit function are built once per
process: the oracle steps, the scheme records (Hadamard layers included) and the coin
lowerings.  Each memo is bounded, hands out nothing a caller can change, and keeps
no failure."""

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import photonic as ph
from photonwalk import walk_core as wc

MEMOS = {
    "_dj_oracle": alg._dj_oracle,
    "_scheme": alg._scheme,
    "_lower_run": ph._lower_run,
}
TILTED = wc.build_coins([(0.1, 0.2, 0.3, 0.4)])[0]  # near no lowering pattern
NO_AUX_TOPOLOGY = alg.scheme_topology(alg.NO_AUX)


@pytest.mark.parametrize("memo", MEMOS.values(), ids=list(MEMOS))
def test_every_memo_is_bounded(memo):
    assert memo.cache_info().maxsize is not None


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name", [name for name, _ in alg.two_bit_catalogue()])
def test_an_equal_rebuilt_function_gets_the_identical_oracle_step(name, scheme):
    f = dict(alg.two_bit_catalogue())[name]
    rebuilt = alg.BooleanFn(2, [int(bit) for bit in f.table])
    assert rebuilt is not f and rebuilt == f
    steps = alg._dj_oracle(f, scheme)
    assert alg._dj_oracle(rebuilt, scheme) is steps
    assert alg.build_dj_program(rebuilt, scheme)[len(alg._scheme(scheme).prefix)] is steps[0]


def test_an_unknown_scheme_raises_before_any_oracle_is_built():
    f = dict(alg.two_bit_catalogue())["vii"]
    size = alg._dj_oracle.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown scheme: 'sideways'"):
            alg._dj_oracle(f, "sideways")
    assert alg._dj_oracle.cache_info().currsize == size


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("include_coin", [True, False])
def test_mutating_a_returned_layer_leaves_the_next_one_alone(scheme, include_coin):
    layer = alg.hadamard_layer(scheme, include_coin=include_coin)
    want = list(layer)
    layer[0] = None
    layer.append(None)
    again = alg.hadamard_layer(scheme, include_coin=int(include_coin))
    assert again is not layer and again == want
    assert all(a is b for a, b in zip(again, want))  # the steps themselves are shared


def test_mutating_the_returned_catalogue_leaves_the_next_one_alone():
    cat = alg.two_bit_catalogue()
    want = list(cat)
    cat.pop()
    cat[0] = ("i", alg.BooleanFn(2, (1, 1, 1, 1)))
    again = alg.two_bit_catalogue()
    assert again is not cat and again == want
    assert [name for name, _ in again] == ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii"]


def rebuilt(step):
    shift = step.shift and wc.Shift(step.shift.coin, step.shift.direction)
    coins = {pos: coin.copy() for pos, coin in step.coin_map.items()}
    return wc.WalkStep(coins, shift, step.global_phase, step.tag)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_an_equal_rebuilt_step_hits_the_lowering_memo(scheme):
    program = alg.build_dj_program(dict(alg.two_bit_catalogue())["vii"], scheme)
    want = ph.circuit_to_json(ph.compile(program, scheme))
    copy = [rebuilt(step) for step in program]
    assert copy == program and all(a is not b for a, b in zip(copy, program))
    before = ph._lower_run.cache_info()
    assert ph.circuit_to_json(ph.compile(copy, scheme)) == want
    after = ph._lower_run.cache_info()
    assert after.hits > before.hits and after.misses == before.misses


def test_a_step_hashes_its_key_once():
    step = wc.WalkStep({1: alg.COIN_X}, wc.s_plus(0), 0.5, "t")
    assert hash(step) == hash(step._key) == hash(rebuilt(step))


@pytest.mark.parametrize("key", [2.0, True], ids=["float", "bool"])
def test_an_equal_non_int_position_never_reaches_the_lowering_memo(key):
    # {2: X} and {2.0: X} would hash alike and share one lowering.
    with pytest.raises(wc.WalkError, match=f"^coin position {key!r} is not an int$"):
        wc.WalkStep({key: alg.COIN_X})


def test_a_numpy_int_position_is_lowered_as_an_int():
    good = ph._lower_run(NO_AUX_TOPOLOGY, None, (wc.WalkStep({1: alg.COIN_X}),))
    hits = ph._lower_run.cache_info().hits
    same = ph._lower_run(NO_AUX_TOPOLOGY, None, (wc.WalkStep({np.int64(1): alg.COIN_X}),))
    assert ph._lower_run.cache_info().hits == hits + 1
    assert same == good and type(same[0][0].mode) is int


@pytest.mark.parametrize("position", [2, -1])
def test_a_coin_outside_the_topology_raises_every_time_and_is_never_cached(position):
    # The two-mode topology: _lower_run checks its stages as PhotonicCircuit does.
    step = wc.WalkStep({position: alg.COIN_X})
    size = ph._lower_run.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="^component references mode >= 2$"):
            ph._lower_run(NO_AUX_TOPOLOGY, None, (step,))
        with pytest.raises(ValueError, match="^component references mode >= 2$"):
            ph.compile([step], alg.NO_AUX)
    assert ph._lower_run.cache_info().currsize == size


@pytest.mark.parametrize(
    "step,message",
    [
        (wc.WalkStep({0: TILTED}), "no exact lowering"),
        (wc.WalkStep(shift=wc.s_plus(1)), "shift outside a position-Hadamard block"),
    ],
    ids=["tilted", "shift"],
)
def test_a_step_with_no_lowering_raises_every_time_and_is_never_cached(step, message):
    size = ph._lower_run.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ph.UnsupportedCoin, match=message):
            ph._lower_run(NO_AUX_TOPOLOGY, None, (step,))
        with pytest.raises(ph.UnsupportedCoin, match=message):
            ph.compile([step], alg.NO_AUX)
    assert ph._lower_run.cache_info().currsize == size


def test_a_run_is_lowered_in_step_order():
    # The coin comes first, so its error wins over the later shift's.
    run = [wc.WalkStep({0: TILTED}), wc.WalkStep(shift=wc.s_plus(1))]
    for _ in range(2):
        with pytest.raises(ph.UnsupportedCoin, match="^coin at mode 0 has no exact lowering"):
            ph._lower_run(NO_AUX_TOPOLOGY, None, tuple(run))
        with pytest.raises(ph.UnsupportedCoin, match="^coin at mode 0 has no exact lowering"):
            ph.compile(run, alg.NO_AUX)


@pytest.mark.parametrize("size", range(2, 7))  # a shift needs two sites
@pytest.mark.parametrize("direction", [1, -1])
def test_the_shift_gather_is_np_roll(size, direction):
    topo = wc.Topology(wc.CLOSED_CYCLE, size)
    step = wc.WalkStep(shift=wc.Shift(1, direction))
    eye = np.eye(topo.dim, dtype=complex).reshape(2, size, topo.dim)
    want = np.concatenate([eye[0], np.roll(eye[1], direction, axis=0)])
    np.testing.assert_array_equal(wc.program_operator([step], topo), want)
    with pytest.raises(ValueError):
        wc._kernel_matrix(wc.evolve, size, step)[0, 0] = 0


def test_no_perturbation_leaks_through_a_memo():
    message = "photonic/walk mismatch for i/with-aux"
    want_fail = [("photonic-fidelity", False, message)]
    assert cli.run_suites(["photonic-fidelity"], {"hwp": 0.01}) == want_fail
    assert cli.run_suites() == [(name, True, "") for name, _ in cli.ALL_SUITES]
    assert cli.run_suites(["photonic-fidelity"], {"hwp": 0.01}) == want_fail


def test_the_shift_suite_still_names_a_broken_shift(monkeypatch):
    program_operator = wc.program_operator

    def doubled(steps, topology):
        m = program_operator(steps, topology)
        return m * 2 if steps[0].shift == wc.s_minus(1) and topology.size == 5 else m

    monkeypatch.setattr(cli.wc, "program_operator", doubled)
    with pytest.raises(AssertionError, match="not a permutation"):
        cli._suite_shift_structure({})


def test_every_lru_cache_in_the_library_is_bounded():
    memos = {  # by object: a memo that another module imports by name counts once
        id(obj): (f"{mod.__name__}.{name}", obj)
        for mod in (alg, ph, wc, cli)
        for name, obj in vars(mod).items()
        if callable(getattr(obj, "cache_parameters", None))
    }
    assert len(memos) == 5
    unbounded = [
        name for name, memo in memos.values() if memo.cache_parameters()["maxsize"] is None
    ]
    assert unbounded == []
