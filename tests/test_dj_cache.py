"""The per-scheme record of the f-independent DJ/BV layers, and repeated CLI calls in one process."""

import json

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import walk_core as wc

CASES = [(name, f) for name, f in alg.two_bit_catalogue()]
CASES += [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]


def full_program_state(f, scheme):
    topo = alg.scheme_topology(scheme)
    return wc.run_program(wc.WalkState.basis(topo, 0, 0), alg.build_dj_program(f, scheme))


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_cached_path_equals_full_program(name, f, scheme):
    got = alg._dj_final_state(f, scheme)
    want = full_program_state(f, scheme)
    assert got.topology == want.topology
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_program_is_prefix_oracle_suffix(scheme):
    f = dict(alg.two_bit_catalogue())["vii"]
    record = alg._scheme(scheme)
    prefix, oracle, suffix = record.prefix, alg._dj_oracle(f, scheme), record.suffix
    program = alg.build_dj_program(f, scheme)
    assert len(program) == len(prefix) + len(oracle) + len(suffix)
    assert [s.tag for s in program] == [s.tag for s in prefix + oracle + suffix]
    assert [s.tag for s in oracle] == [alg.TAG_ORACLE]
    topo = alg.scheme_topology(scheme)
    assert np.array_equal(
        wc.program_operator(program, topo),
        wc.program_operator(prefix + oracle + suffix, topo),
    )


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_program_lengths_and_tags_unchanged(scheme):
    program = alg.build_dj_program(dict(alg.two_bit_catalogue())["iii"], scheme)
    tags = [s.tag for s in program]
    if scheme == alg.WITH_AUX:
        assert len(program) == 63
        assert tags[:2] == [alg.TAG_PREP, alg.TAG_COIN_HADAMARD]
        assert tags[2:32] == [alg.TAG_POSITION_HADAMARD] * 30
        assert tags[32] == alg.TAG_ORACLE
        assert tags[33:] == [alg.TAG_POSITION_HADAMARD] * 30
    else:
        assert len(program) == 17
        assert tags[0] == alg.TAG_COIN_HADAMARD
        assert tags[1:8] == [alg.TAG_POSITION_HADAMARD] * 7
        assert tags[8] == alg.TAG_ORACLE
        assert tags[9] == alg.TAG_COIN_HADAMARD
        assert tags[10:] == [alg.TAG_POSITION_HADAMARD] * 7


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_fixed_steps_are_built_once_and_programs_are_new_lists(scheme):
    assert alg._scheme(scheme) is alg._scheme(scheme)
    f = dict(alg.two_bit_catalogue())["vii"]
    first = alg.build_dj_program(f, scheme)
    want = list(first)
    first[0] = first[-1] = None
    first.append(None)
    second = alg.build_dj_program(f, scheme)
    assert second is not first and second == want
    assert second[0] is alg._scheme(scheme).prefix[0]


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_cached_values_are_read_only(scheme):
    record = alg._scheme(scheme)
    with pytest.raises(ValueError):
        record.entering.amplitudes[0] = 0.0
    for operator in (record.prefix_operator, record.suffix_operator):
        with pytest.raises(ValueError):
            operator[0, 0] = 0.0
    with pytest.raises(AttributeError):
        record.entering = None
    assert alg._scheme(scheme) is record


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_entering_state_equals_the_prefix_run_bitwise(scheme):
    record = alg._scheme(scheme)
    topo = alg.scheme_topology(scheme)
    want = wc.run_program(wc.WalkState.basis(topo, 0, 0), record.prefix)
    assert record.entering.topology == topo
    assert np.array_equal(record.entering.amplitudes, want.amplitudes)
    assert np.array_equal(record.prefix_operator[:, 0], want.amplitudes)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
def test_readout_keeps_its_key_order(scheme):
    assert list(alg.run_bv("11", scheme).distribution) == ["00", "01", "10", "11"]


def label_loop(final, scheme):
    """The readout as a dict built amplitude by amplitude from a label per amplitude
    (the with-aux cycle in Gray order, twice): equal labels add, coin 0 first."""
    labels = ["00", "01", "11", "10"] * 2 if scheme == alg.WITH_AUX else ["00", "01", "10", "11"]
    dist = {}
    for label, p in zip(labels, wc.measure_joint(final).ravel().tolist()):
        dist[label] = dist.get(label, 0.0) + p
    return dist


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_walk_probabilities_equal_the_label_loop_bitwise(name, f, scheme):
    dist = label_loop(alg._dj_final_state(f, scheme), scheme)
    want = np.array([dist[format(x, "02b")] for x in range(4)])
    got = alg._walk_probabilities(f, scheme)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_unknown_scheme_raises_and_leaves_cache_usable():
    f = dict(alg.two_bit_catalogue())["ii"]
    size = alg._scheme.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown scheme: 'sideways'"):
            alg._scheme("sideways")
        with pytest.raises(ValueError, match="unknown scheme"):
            alg.run_dj(f, "sideways")
    assert alg._scheme.cache_info().currsize == size
    for scheme in alg.SCHEMES:
        assert abs(alg.run_dj(f, scheme).p_all_zero - 1.0) <= 1e-12


def test_the_reference_path_of_run_bv_builds_no_scheme_record(monkeypatch):
    def fail(name):
        raise AssertionError("scheme record built")

    monkeypatch.setattr(alg, "_scheme", fail)
    for scheme in alg.SCHEMES:
        assert alg.run_bv("101", scheme).recovered == "101"
    with pytest.raises(ValueError, match="unknown scheme: 'sideways'"):
        alg.run_bv("101", "sideways")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_leak_no_dump_state(capsys):
    code, out, _ = run(capsys, "dj", "--function", "i", "--dump-state", "--format", "json")
    assert code == 0
    assert all("states" in r for r in json.loads(out)["results"])
    code, out, _ = run(capsys, "dj", "--function", "i", "--format", "json")
    assert code == 0
    assert all("states" not in r for r in json.loads(out)["results"])


def test_repeated_calls_leak_no_options_across_commands(capsys):
    code, _, _ = run(capsys, "dj", "--function", "vii", "--scheme", "no-aux")
    assert code == 0
    code, out, _ = run(capsys, "dj", "--function", "vii")
    assert code == 0
    assert "schemes agree: yes" in out
    code, out, _ = run(capsys, "bv", "--string", "10")
    assert code == 0
    assert out.startswith("with-aux: recovered=10")


@pytest.mark.parametrize(
    "bad",
    [("dj", "--function", "ix"), ("dj", "--bogus"), ("bv",), ("nope",), ()],
    ids=["unknown-function", "unknown-flag", "missing-string", "unknown-command", "empty"],
)
def test_failed_call_does_not_break_the_next(capsys, bad):
    code, _, _ = run(capsys, *bad)
    assert code == 1
    code, out, _ = run(capsys, "dj", "--function", "iii")
    assert code == 0
    assert "classification=balanced" in out
