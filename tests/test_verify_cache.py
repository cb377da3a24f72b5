"""The verify gate's per-process caches: compile's position-Hadamard check, the
fixed DJ operators of the photonic-fidelity suite, and the batched coin suite."""

import random
import re

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import photonic as ph
from photonwalk import walk_core as wc

CASES = [(name, f) for name, f in alg.two_bit_catalogue()]
CASES += [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
VII = dict(alg.two_bit_catalogue())["vii"]


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_composed_operator_equals_full_program(name, f, scheme):
    want = wc.program_operator(alg.build_dj_program(f, scheme), alg.scheme_topology(scheme))
    assert np.max(np.abs(alg._dj_operator(f, scheme) - want)) <= 1e-12


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_prefix_operator_is_cached_and_read_only(scheme):
    prefix = alg._scheme(scheme).prefix_operator
    assert prefix is alg._scheme(scheme).prefix_operator
    with pytest.raises(ValueError):
        prefix[0, 0] = 0.0


def test_block_memo_is_bounded():
    assert ph._lower_run.cache_info().maxsize == 32


def first_block(program):
    """Indices of the first run of position-Hadamard steps."""
    tags = [s.tag for s in program]
    i = tags.index(alg.TAG_POSITION_HADAMARD)
    j = i
    while tags[j] == alg.TAG_POSITION_HADAMARD:
        j += 1
    return i, j


def with_coin(step, pos, coin):
    return wc.WalkStep({**step.coin_map, pos: coin}, step.shift, step.global_phase, step.tag)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_block_with_one_coin_changed_raises_after_canonical_compile(scheme):
    program = alg.build_dj_program(VII, scheme)
    ph.compile(program, scheme)
    i, j = first_block(program)
    k = next(k for k in range(i, j) if program[k].coin_map)
    pos = next(iter(program[k].coin_map))
    altered = list(program)
    altered[k] = with_coin(program[k], pos, alg.COIN_PHASE_FLIP_1)
    with pytest.raises(ph.CompileError, match="position-Hadamard block"):
        ph.compile(altered, scheme)
    ph.compile(program, scheme)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_coin_in_a_compiled_step_cannot_be_written(scheme):
    program = alg.build_dj_program(VII, scheme)
    ph.compile(program, scheme)
    i, j = first_block(program)
    k = next(k for k in range(i, j) if program[k].coin_map)
    pos = next(iter(program[k].coin_map))
    with pytest.raises(ValueError, match="read-only"):
        program[k].coin_map[pos][...] = alg.COIN_PHASE_FLIP_1
    with pytest.raises(TypeError):
        program[k].coin_map[pos] = alg.COIN_PHASE_FLIP_1
    ph.compile(program, scheme)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_mutating_a_source_coin_after_compile_changes_nothing(scheme):
    program = alg.build_dj_program(VII, scheme)
    want = ph.compile(program, scheme)
    i, j = first_block(program)
    k = next(k for k in range(i, j) if program[k].coin_map)
    pos = next(iter(program[k].coin_map))
    source = program[k].coin_map[pos].copy()
    program[k] = with_coin(program[k], pos, source)
    op = wc.program_operator([program[k]], alg.scheme_topology(scheme))
    assert ph.compile(program, scheme) == want
    source[...] = alg.COIN_PHASE_FLIP_1
    assert program[k] == alg.build_dj_program(VII, scheme)[k]
    assert np.array_equal(wc.program_operator([program[k]], alg.scheme_topology(scheme)), op)
    assert ph.compile(program, scheme) == want


def rebuilt(step):
    shift = step.shift and wc.Shift(step.shift.coin, step.shift.direction)
    coins = {pos: coin.copy() for pos, coin in step.coin_map.items()}
    return wc.WalkStep(coins, shift, step.global_phase, step.tag)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_block_equal_by_value_hits_the_memo(scheme):
    program = alg.build_dj_program(VII, scheme)
    ph.compile(program, scheme)
    copy = [rebuilt(step) for step in program]
    assert copy == program and all(a is not b for a, b in zip(copy, program))
    before = ph._lower_run.cache_info()
    ph.compile(copy, scheme)
    after = ph._lower_run.cache_info()
    assert after.hits > before.hits and after.misses == before.misses
    i, j = first_block(copy)
    k = next(k for k in range(i, j) if copy[k].coin_map)
    copy[k] = with_coin(copy[k], next(iter(copy[k].coin_map)), alg.COIN_PHASE_FLIP_1)
    with pytest.raises(ph.CompileError, match="position-Hadamard block"):
        ph.compile(copy, scheme)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_a_mismatched_block_raises_on_every_call_and_is_never_cached(scheme):
    program = alg.build_dj_program(VII, scheme)
    i, j = first_block(program)
    block = list(program[i:j])
    k = next(k for k, step in enumerate(block) if step.coin_map)
    block[k] = with_coin(block[k], next(iter(block[k].coin_map)), alg.COIN_PHASE_FLIP_1)
    topology = alg.scheme_topology(scheme)
    size = ph._lower_run.cache_info().currsize
    for _ in range(3):
        misses = ph._lower_run.cache_info().misses
        with pytest.raises(ph.CompileError, match="^position-Hadamard block does not match"):
            ph._lower_run(topology, alg.TAG_POSITION_HADAMARD, tuple(block))
        assert ph._lower_run.cache_info().misses == misses + 1  # compared again
    assert ph._lower_run.cache_info().currsize == size


@pytest.mark.parametrize("key", [2.0, True], ids=["float", "bool"])
def test_a_block_step_with_an_equal_non_int_position_is_never_built(key):
    # {2: X} and {2.0: X} would hash alike and share a run memo entry.
    program = alg.build_dj_program(VII, alg.WITH_AUX)
    ph.compile(program, alg.WITH_AUX)
    i, j = first_block(program)
    k = next(k for k in range(i, j) if int(key) in program[k].coin_map)
    coins = dict(program[k].coin_map)
    coins[key] = coins.pop(int(key))
    with pytest.raises(wc.WalkError, match=f"^coin position {key!r} is not an int$"):
        wc.WalkStep(coins, program[k].shift, program[k].global_phase, program[k].tag)


def test_verify_then_fault_injection_in_one_process(capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["verify", "--suite", "photonic-fidelity", "--perturb", "hwp=0.01"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    message = "photonic/walk mismatch for i/with-aux"
    assert captured.out == f"photonic-fidelity: FAIL -- {message}\n"
    assert captured.err == f"first failure: photonic-fidelity: {message}\n"


def test_the_fidelity_suite_names_a_lowering_off_its_coin(monkeypatch):
    lowerings = list(ph._LOWERINGS)
    index = next(i for i, (coin, _) in enumerate(lowerings) if coin is alg.COIN_HADAMARD)
    lowerings[index] = (alg.COIN_HADAMARD, lambda mode: ph.HWP(np.pi / 8 + 1e-12, mode))
    monkeypatch.setattr(ph, "_LOWERINGS", tuple(lowerings))
    [(name, passed, message)] = cli.run_suites(["photonic-fidelity"])
    assert (name, passed) == ("photonic-fidelity", False)
    assert message == (
        "HWP(angle=0.3926990816997241, mode=0, kind='hwp') is 1.414e-12 off its coin "
        "(tolerance 1e-12)"
    )


@pytest.mark.parametrize("index", range(1, len(ph._LOWERINGS)))
def test_the_fidelity_suite_checks_every_component_compile_lowers_to(monkeypatch, index):
    lowerings = list(ph._LOWERINGS)
    lowerings[index] = (-lowerings[index][0], lowerings[index][1])
    monkeypatch.setattr(ph, "_LOWERINGS", tuple(lowerings))
    [(_, passed, message)] = cli.run_suites(["photonic-fidelity"])
    assert not passed and message.startswith(repr(lowerings[index][1](0)))


def test_coin_suite_draws_the_per_call_rows(monkeypatch):
    rng = random.Random(20240917)
    want = [tuple(rng.uniform(-2 * np.pi, 2 * np.pi) for _ in range(4)) for _ in range(1000)]
    seen = []
    build_coins = wc.build_coins

    def recording_build_coins(angles):
        seen.extend(map(tuple, np.asarray(angles).tolist()))
        return build_coins(angles)

    monkeypatch.setattr(cli.wc, "build_coins", recording_build_coins)
    cli._suite_coin_unitarity({})
    assert seen == want


def test_coin_suite_names_the_first_failing_coin(monkeypatch):
    build_coins = wc.build_coins

    def skewed(angles):
        coins = build_coins(angles)
        coins[[6, 8]] *= 1 + 1e-9  # the 7th and 9th coins, past the unitarity check
        return coins

    monkeypatch.setattr(cli.wc, "build_coins", skewed)
    message = r"coin 6: determinant deviation from e\^\{2ip\} 2\.000e-09 \(tolerance 1e-12\)"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        cli._suite_coin_unitarity({})


@pytest.mark.parametrize("row", [0, 3, 999])
def test_coin_rows_name_the_first_row_that_is_not_unitary(row):
    angles = np.random.default_rng(20240917).uniform(-2 * np.pi, 2 * np.pi, size=(1000, 4))
    angles[row, 3] = angles[-1, 1] = np.nan  # the last row fails too, but later
    message = re.escape(f"coin {row}: operator is not unitary (max deviation nan)")
    with np.errstate(invalid="ignore"):
        with pytest.raises(wc.WalkError, match=f"^{message}$"):
            wc.build_coins(angles)


@pytest.mark.parametrize(
    "error", [wc.WalkError, wc.BoundaryViolation, ph.CompileError, ValueError]
)
def test_a_suite_that_raises_a_library_error_fails_with_its_type(monkeypatch, capsys, error):
    name = error.__name__

    def broken(angles):
        raise error("boom")

    monkeypatch.setattr(cli.wc, "build_coins", broken)
    code = cli.main(["verify", "--suite", "coin-unitarity"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    assert captured.out == f"coin-unitarity: FAIL -- {name}: boom\n"
    assert captured.err == f"first failure: coin-unitarity: {name}: boom\n"


def test_other_errors_inside_a_suite_still_propagate(monkeypatch):
    def broken(angles):
        raise RuntimeError("not a check")

    monkeypatch.setattr(cli.wc, "build_coins", broken)
    with pytest.raises(RuntimeError, match="not a check"):
        cli.run_suites(["coin-unitarity"])


def fidelity_compiles(monkeypatch):
    """Run the photonic-fidelity suite; return its (table, scheme) per ``ph.compile`` call."""
    calls = []
    compile_ = ph.compile

    def spy(program, scheme):
        [table] = {f.table for _, f in CASES if alg.build_dj_program(f, scheme) == program}
        calls.append((table, scheme))
        return compile_(program, scheme)

    monkeypatch.setattr(ph, "compile", spy)
    assert cli.run_suites(["photonic-fidelity"]) == [("photonic-fidelity", True, "")]
    return calls


def test_the_fidelity_suite_compiles_each_distinct_case_once(monkeypatch):
    calls = fidelity_compiles(monkeypatch)
    want = {(f.table, scheme) for _, f in CASES for scheme in alg.SCHEMES}
    assert len(want) == 16
    assert len(calls) == 16
    assert set(calls) == want


def test_the_fidelity_suite_keeps_a_bv_table_the_catalogue_lacks(monkeypatch):
    catalogue = [(name, f) for name, f in alg.two_bit_catalogue() if name != "vii"]
    monkeypatch.setattr(alg, "two_bit_catalogue", lambda: list(catalogue))
    calls = fidelity_compiles(monkeypatch)
    assert len(calls) == 16
    assert {(VII.table, scheme) for scheme in alg.SCHEMES} <= set(calls)


@pytest.mark.parametrize("drop_vii, name", [(False, "vii"), (True, "bv 11")])
def test_the_fidelity_suite_names_a_table_by_its_first_name(monkeypatch, drop_vii, name):
    catalogue = [(n, f) for n, f in alg.two_bit_catalogue() if not (drop_vii and n == "vii")]
    monkeypatch.setattr(alg, "two_bit_catalogue", lambda: list(catalogue))
    dj_operator = alg._dj_operator
    monkeypatch.setattr(
        alg, "_dj_operator", lambda f, scheme: dj_operator(f, scheme) * (2 if f == VII else 1)
    )
    message = f"photonic/walk mismatch for {name}/with-aux"
    assert cli.run_suites(["photonic-fidelity"]) == [("photonic-fidelity", False, message)]
