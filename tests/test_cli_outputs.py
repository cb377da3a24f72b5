"""Pin what every CLI command writes: exit code, stderr, stdout and the files it leaves.

Each case runs in-process through ``cli.main`` in a fresh temporary directory that
holds the input files below; ``<TMP>`` stands for that directory in the arguments,
the output and the pinned file.  Exit codes, stderr and non-JSON lines must match
byte for byte.  JSON, whether a whole output or one line of it, must be laid out as
``json.dumps`` lays out its parsed value, and that value must match with keys in
order and floats within ``FLOAT_TOL``: a BLAS build may change a result's last bits.

After a deliberate output change, rewrite the pinned file and review its diff::

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from photonwalk import cli

PINNED = Path(__file__).with_name("cli_outputs.json")
TMP = "<TMP>"
FLOAT_TOL = 1e-15

INPUTS = {
    "neither.json": '{"n": 2, "table": [0, 0, 0, 1]}',
    "balanced.json": '{"n": 2, "table": [0, 1, 1, 0]}',
    "n3.json": '{"n": 3, "table": [0, 0, 0, 0, 1, 1, 1, 1]}',
    "bad.json": "{not json",
    "long.txt": "x" * 10000,
}

SCHEMES = ("with-aux", "no-aux", "both")
SUITE_NAMES = [name for name, _ in cli.ALL_SUITES]


def _cases() -> list:
    cases = []
    for fmt in ("text", "json"):
        for scheme in SCHEMES:
            for name in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii"):
                cases.append(["dj", "--function", name, "--scheme", scheme, "--format", fmt])
            for s in ("00", "01", "10", "11"):
                cases.append(["bv", "--string", s, "--scheme", scheme, "--format", fmt])
        for scheme, name in zip(SCHEMES, ("vii", "iii", "i")):
            cases.append(["dj", "--function", name, "--scheme", scheme, "--format", fmt,
                          "--dump-state"])
        cases.append(["bv", "--string", "10", "--scheme", "both", "--format", fmt,
                      "--dump-state"])
        for suite in [None] + SUITE_NAMES:
            for perturb in ([], ["--perturb", "hwp=0.01"]):
                argv = ["verify", "--format", fmt] + perturb
                cases.append(argv + (["--suite", suite] if suite else []))
        report_format = "json" if fmt == "json" else "csv"
        cases.append(["report", "--output", f"{TMP}/r.out", "--format", report_format])
    for algorithms in ("dj", "bv", "dj,bv"):
        for fmt in ("csv", "json"):
            cases.append(["report", "--algorithms", algorithms, "--format", fmt])
    cases += [
        ["dj", "--table", f"{TMP}/balanced.json"],
        ["dj", "--table", f"{TMP}/balanced.json", "--format", "json", "--dump-state"],
        ["dj", "--function", "vii", "--output", f"{TMP}/out.txt"],
        ["dj", "--function", "iii", "--output", f"{TMP}/long.txt", "--format", "json"],
        ["bv", "--string", "01", "--output", f"{TMP}/out.json", "--format", "json"],
        ["bv", "--string", "11", "--output", f"{TMP}/out.txt", "--dump-state"],
        ["verify", "--suite", "photonic-fidelity", "--perturb", "hwp=0.01",
         "--output", f"{TMP}/v.txt"],
        ["verify", "--suite", "bv-exactness", "--output", f"{TMP}/v.json", "--format", "json"],
        ["report", "--output", os.devnull],
        ["report", "--output", TMP],
        ["dj", "--function", "i", "--output", TMP],
        # Error cases; where two inputs are bad, the pinned message names the winner.
        ["verify", "--perturb", "hwp=1e308"],
        ["verify", "--perturb", "hwp=nan"],
        ["verify", "--perturb", ""],
        ["verify", "--perturb", "foo=1"],
        ["verify", "--perturb", "hwp"],
        ["verify", "--suite", "coin-unitarity", "--perturb", "hwp=0.5"],
        ["verify", "--suite", "bogus", "--perturb", "bogus"],
        ["verify", "--suite", ""],
        ["verify", "--suite", "coin-unitarity", "--suite", "bv-exactness"],
        ["dj", "--function", "i", "--table", os.devnull],
        ["dj", "--function", ""],
        ["dj", "--function", "ix", "--scheme", "bogus"],
        ["dj"],
        ["dj", "--table", f"{TMP}/neither.json"],
        ["dj", "--table", f"{TMP}/neither.json", "--format", "json", "--dump-state"],
        ["dj", "--table", f"{TMP}/neither.json", "--scheme", "bogus"],
        ["dj", "--table", f"{TMP}/n3.json"],
        ["dj", "--table", f"{TMP}/bad.json"],
        ["dj", "--table", f"{TMP}/missing.json"],
        ["dj", "--function", "i", "--output", ""],
        ["dj", "--function", "i", "--scheme", ""],
        ["bv", "--string", "012", "--scheme", "bogus"],
        ["bv", "--string", "101"],
        ["bv", "--string", ""],
        ["bv", "--string", "11", "--scheme", "bogus"],
        ["report", "--algorithms", ","],
        ["report", "--algorithms", "dj,xx"],
        ["report", "--output", ""],
        [],
    ]
    return cases


CASES = _cases()


def _encode(text: str):
    """``text`` as a JSON value when it is one laid out by ``json.dumps``; else its
    lines, with each line that is such a JSON object parsed."""
    value = _json_object(text.rstrip("\n"))
    for indent in (2, None):
        for end in ("\n", ""):
            if value is not None and json.dumps(value, indent=indent) + end == text:
                return {"json": value, "indent": indent, "end": end}
    lines = []
    for line in text.split("\n"):
        value = _json_object(line)
        lines.append(line if value is None or json.dumps(value) != line else {"json": value})
    return {"lines": lines}


def _json_object(text: str):
    if not text.startswith("{"):
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def run_case(argv: list) -> dict:
    """Run ``argv`` through ``cli.main`` in a fresh directory of ``INPUTS``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.replace(TMP, tmp) for a in argv])
        files = {}
        for path in sorted(Path(tmp).iterdir()):
            text = path.read_text()
            if INPUTS.get(path.name) != text:
                files[path.name] = _encode(text.replace(tmp, TMP))
        return {
            "argv": argv,
            "exit": code,
            "stderr": err.getvalue().replace(tmp, TMP),
            "stdout": _encode(out.getvalue().replace(tmp, TMP)),
            "files": files,
        }


def assert_close(got, want, where: str = "") -> None:
    """``got`` equals ``want``, dict keys in the same order, floats within ``FLOAT_TOL``."""
    assert type(got) is type(want), f"{where}: {got!r} is not {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} are not {list(want)}"
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items, not {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} is not {want!r}"
    else:
        assert got == want, f"{where}: {got!r} is not {want!r}"


@functools.lru_cache(maxsize=1)
def pinned() -> list:
    return json.loads(PINNED.read_text())["cases"]


def test_the_pinned_file_lists_every_case():
    assert [case["argv"] for case in pinned()] == CASES


@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]) or "(no arguments)"
)
def test_output_matches_the_pinned_file(index):
    want = pinned()[index]
    got = run_case(want["argv"])
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert_close(got, want)


if __name__ == "__main__":
    cases = [run_case(argv) for argv in CASES]
    lines = ",\n".join(map(json.dumps, cases))  # one case a line, so a diff names the case
    PINNED.write_text('{"cases": [\n' + lines + "\n]}\n")
    sys.stdout.write(f"wrote {len(cases)} cases to {PINNED}\n")
