"""Fuzzed flags and --table JSON: every run ends in a documented exit code
(0, 1, 2 or 3) and never in a traceback.

verify always names one suite, so no example runs all eight.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonwalk import algorithms as alg
from photonwalk import cli

TEXT = st.text(max_size=6)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.integers(9, 10**7)  # a huge n; BooleanFn never builds 2**n for it
    | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=10,
)
TABLE_TEXT = st.one_of(
    TEXT,
    JSON.map(json.dumps),
    st.fixed_dictionaries({"n": JSON, "table": JSON}).map(json.dumps),
    st.fixed_dictionaries(
        {
            "n": st.integers(-1, 3),
            "table": st.lists(st.sampled_from([0, 1, 2, 0.5, "1", True]), max_size=9),
        }
    ).map(json.dumps),
    st.lists(st.sampled_from([0, 1]), min_size=4, max_size=4).map(
        lambda table: json.dumps({"n": 2, "table": table})
    ),
)


def value(valid):
    """A listed value three times in four, otherwise arbitrary text."""
    return st.tuples(st.integers(0, 3), st.sampled_from(valid), TEXT).map(
        lambda t: t[1] if t[0] else t[2]
    )


def flag(name, valid):
    """Either no flag, or the flag with one drawn value."""
    return st.one_of(st.just([]), value(valid).map(lambda v: [name, v]))


SCHEME = flag("--scheme", ["both", *alg.SCHEMES])
TEXT_FORMAT = flag("--format", ["text", "json"])
DUMP = st.sampled_from([[], ["--dump-state"]])
EXTRA = st.one_of(
    st.just([]), st.lists(value(["-h", "--bogus", "x", "--format"]), max_size=2)
)

DJ = st.tuples(
    st.just(["dj"]),
    st.sampled_from([[], ["--table", "{table}"]]),
    flag("--function", [n for n, _ in alg.two_bit_catalogue()]),
    SCHEME,
    TEXT_FORMAT,
    DUMP,
)
BV = st.tuples(
    st.just(["bv"]),
    flag("--string", ["00", "01", "10", "11", "1", "012"]),
    SCHEME,
    TEXT_FORMAT,
    DUMP,
)
SUITES = ["shift-structure", "oracle-equiv", "bv-exactness", "photonic-fidelity", ""]
VERIFY = st.tuples(
    st.just(["verify", "--suite"]),
    value(SUITES).map(lambda suite: [suite]),
    flag("--perturb", ["hwp=0.01", "hwp=0", "hwp=nan", "x=1"]),
    TEXT_FORMAT,
)
REPORT = st.tuples(
    st.just(["report"]),
    flag("--algorithms", ["dj,bv", "dj", "bv", ",", "dj,x"]),
    flag("--format", ["csv", "json"]),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(parts=st.one_of(DJ, BV, VERIFY, REPORT), extra=EXTRA, table_text=TABLE_TEXT)
@example(  # exit 2: neither constant nor balanced
    parts=(["dj", "--table", "{table}"],),
    extra=[],
    table_text='{"n": 2, "table": [0, 0, 0, 1]}',
)
@example(  # exit 3: the perturbed optics fail
    parts=(["verify", "--suite", "photonic-fidelity", "--perturb", "hwp=0.01"],),
    extra=[],
    table_text="",
)
def test_fuzzed_flags_exit_with_a_documented_code(
    tmp_path_factory, parts, extra, table_text
):
    table = tmp_path_factory.getbasetemp() / "fuzz_table.json"
    table.write_text(table_text)
    argv = [str(table) if a == "{table}" else a for part in parts for a in part] + extra
    code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
