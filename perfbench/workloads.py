"""The three benchmark workloads: seeded inputs, one operation each, and the checks.

Each workload is built by ``build(name, seed, workdir)``, which generates the
inputs from the seed (writing any input files under ``workdir``) and returns an
``op(i)`` callable.  ``op(i)`` runs operation ``i`` through photonwalk's public
entry points and raises ``WrongAnswer`` when the program's output is not the
known answer.  Expected answers come from the generated inputs, never from the
program under test.
"""

from __future__ import annotations

import json
import os
import random

from photonwalk import algorithms, cli

SCHEMES = ("with-aux", "no-aux")
CATALOGUE_CLASS = {
    "i": "constant", "ii": "constant", "iii": "balanced", "iv": "balanced",
    "v": "balanced", "vi": "balanced", "vii": "balanced", "viii": "balanced",
}
# The 8 property suites of acceptance criterion 7, in the order verify runs them.
VERIFY_SUITES = (
    "coin-unitarity", "shift-structure", "norm-preservation",
    "hadamard-involution", "oracle-equiv", "dj-determinism", "bv-exactness",
    "photonic-fidelity",
)
P_TOL_WALK = 1e-10
P_TOL_REFERENCE = 1e-9
REFERENCE_N = 10
SEQUENCE_LEN = 512  # operations in a workload's input sequence, then repeated
POOL = 32           # distinct n = 10 tables and strings in reference-n10


class WrongAnswer(Exception):
    """The program returned an answer other than the known one."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def random_table(rng: random.Random, n: int, constant: bool) -> tuple:
    """A constant or balanced truth table on n bits."""
    size = 2**n
    if constant:
        return (rng.randrange(2),) * size
    table = [0] * (size // 2) + [1] * (size // 2)
    rng.shuffle(table)
    return tuple(table)


def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


# --- walk-requests --------------------------------------------------------

def walk_requests_plan(seed: int) -> list:
    """The request mix: about 3 dj (half --function, half --table) per bv."""
    rng = random.Random(seed)
    plan = []
    for _ in range(SEQUENCE_LEN):
        kind = rng.random()
        if kind < 0.25:
            plan.append(("bv", random_bits(rng, 2)))
        elif kind < 0.625:
            plan.append(("dj-function", rng.choice(sorted(CATALOGUE_CLASS))))
        else:
            constant = rng.random() < 0.25
            plan.append(("dj-table", random_table(rng, 2, constant)))
    return plan


def check_dj(blob: dict, expect: str) -> None:
    results = blob["results"]
    _check(sorted(r["scheme"] for r in results) == sorted(SCHEMES),
           f"dj ran schemes {[r['scheme'] for r in results]}")
    target = 1.0 if expect == "constant" else 0.0
    for r in results:
        _check(abs(r["p_all_zero"] - target) <= P_TOL_WALK,
               f"dj {r['scheme']}: p_all_zero={r['p_all_zero']!r}, want {target}")
        _check(r["classification"] == expect,
               f"dj {r['scheme']}: classified {r['classification']}, want {expect}")
    _check(blob["schemes_agree"] is True, "dj: schemes disagree")


def check_bv(blob: dict, hidden: str) -> None:
    results = blob["results"]
    _check(sorted(r["scheme"] for r in results) == sorted(SCHEMES),
           f"bv ran schemes {[r['scheme'] for r in results]}")
    for r in results:
        _check(r["recovered"] == hidden,
               f"bv {r['scheme']}: recovered {r['recovered']!r}, want {hidden!r}")
        _check(abs(r["probability"] - 1.0) <= P_TOL_WALK,
               f"bv {r['scheme']}: p={r['probability']!r}")


def _run_cli(argv: list, out_path: str) -> str:
    code = cli.main(argv + ["--output", out_path])
    _check(code == 0, f"{argv[0]} exited {code}")
    with open(out_path) as fh:
        return fh.read()


def build_walk_requests(seed: int, workdir: str):
    out_path = os.path.join(workdir, "out.json")
    ops = []
    for kind, arg in walk_requests_plan(seed):
        if kind == "bv":
            argv = ["bv", "--string", arg]
            ops.append((argv, lambda blob, s=arg: check_bv(blob, s)))
            continue
        if kind == "dj-function":
            argv, expect = ["dj", "--function", arg], CATALOGUE_CLASS[arg]
        else:
            path = os.path.join(workdir, "table-" + "".join(map(str, arg)) + ".json")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    json.dump({"n": 2, "table": list(arg)}, fh)
            argv = ["dj", "--table", path]
            expect = "constant" if len(set(arg)) == 1 else "balanced"
        ops.append((argv, lambda blob, e=expect: check_dj(blob, e)))
    common = ["--scheme", "both", "--format", "json"]

    def op(i: int) -> None:
        argv, check = ops[i % len(ops)]
        check(json.loads(_run_cli(argv + common, out_path)))

    return op


# --- verify-gate ----------------------------------------------------------

def check_verify(text: str) -> None:
    lines = text.splitlines()
    want = [f"{name}: pass" for name in VERIFY_SUITES]
    _check(lines == want, f"verify printed {lines!r}")


def build_verify_gate(seed: int, workdir: str):
    # verify has no inputs; the seed only labels the run.
    out_path = os.path.join(workdir, "verify.txt")

    def op(i: int) -> None:
        check_verify(_run_cli(["verify", "--format", "text"], out_path))

    return op


# --- reference-n10 --------------------------------------------------------

def reference_plan(seed: int) -> list:
    """(table, class, hidden string) triples; about one constant table in four."""
    rng = random.Random(seed)
    plan = []
    for _ in range(POOL):
        constant = rng.random() < 0.25
        table = random_table(rng, REFERENCE_N, constant)
        plan.append((table, "constant" if constant else "balanced",
                     random_bits(rng, REFERENCE_N)))
    return plan


def check_reference_p(scheme: str, p: float, expect: str) -> None:
    ok = p >= 1.0 - P_TOL_REFERENCE if expect == "constant" else p <= P_TOL_REFERENCE
    _check(ok, f"reference {scheme}: p_all_zero={p!r} for a {expect} table")


def build_reference_n10(seed: int, workdir: str):
    plan = reference_plan(seed)

    def op(i: int) -> None:
        table, expect, hidden = plan[i % len(plan)]
        f = algorithms.BooleanFn(REFERENCE_N, table)
        cls = algorithms.classify_fn(f).value
        _check(cls == expect, f"classify_fn gave {cls}, want {expect}")
        for scheme in SCHEMES:
            check_reference_p(scheme, algorithms.brute_force_p_all_zero(scheme, f), expect)
        for scheme in SCHEMES:
            out = algorithms.run_bv(hidden, scheme)
            _check(out.recovered == hidden,
                   f"run_bv {scheme}: recovered {out.recovered!r}, want {hidden!r}")
            _check(out.probability >= 1.0 - P_TOL_REFERENCE,
                   f"run_bv {scheme}: p={out.probability!r}")

    return op


BUILDERS = {
    "walk-requests": build_walk_requests,
    "verify-gate": build_verify_gate,
    "reference-n10": build_reference_n10,
}


def build(name: str, seed: int, workdir: str):
    return BUILDERS[name](seed, workdir)
