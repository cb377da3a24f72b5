"""Command-line front end: run the algorithms, verify invariants, emit reports.

Exit codes: 0 success, 1 input error, 2 promise violation, 3 verification
failure.  Text output rounds probabilities to 6 decimals; JSON carries full
doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import stat
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import algorithms as alg
from . import photonic as ph
from . import walk_core as wc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROMISE = 2
EXIT_VERIFY = 3


class CLIError(ValueError):
    """Malformed command-line input; a ValueError to a library caller such as ``run_suites``."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)  # every value option

    def error(self, message):  # keep the exit-code contract: input errors are 1
        raise CLIError(message)


class _StoreOnce(argparse.Action):
    """Store an option's value; a second occurrence is an input error, not a silent override."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        given = vars(namespace).setdefault("_given", set())  # per parse, on its namespace
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _write_file(path: str, text: str) -> bool:
    """Replace the contents of ``path`` with ``text``; True if it is a regular file.

    The file is overwritten in place and then cut to the new length, not
    truncated on open: on ext4, closing a file that was truncated to zero and
    rewritten starts its writeback (``auto_da_alloc``), and the next truncation
    of the same file waits for that disk write, so back-to-back calls would
    each wait on the disk.  The file is not synced.
    """
    no_trunc = lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)
    with open(path, "w", opener=no_trunc) as fh:
        fh.write(text)
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if regular:
            fh.truncate()
    return regular


def _render(args, blob: dict, lines: list) -> bool:
    """Write a command's result to ``--output``, or to stdout when it is not given:
    ``blob`` as JSON under ``--format json``, else the text ``lines`` and one JSON line
    per dj/bv ``--dump-state`` snapshot.  True if it wrote a regular file."""
    if args.format == "json":
        lines = [json.dumps(blob, indent=2)]
    else:
        snaps = [json.dumps(s) for r in blob.get("results", ()) for s in r.get("states", ())]
        lines = lines + snaps
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return False
    return _write_file(args.output, text)  # an empty path is a missing file, not stdout


def _load_function(args) -> alg.BooleanFn:
    if args.function is not None:
        for name, f in alg.two_bit_catalogue():
            if name == args.function:
                return f
        raise CLIError(f"unknown catalogue function {args.function!r} (use i..viii)")
    if args.table is not None:
        try:  # a bad file, bad JSON (too deep, an over-long int, not UTF-8) or a bad table
            with open(args.table) as fh:
                blob = json.load(fh)
            if not (isinstance(blob, dict) and blob.keys() == {"n", "table"}):
                raise ValueError('expected a JSON object with keys "n" and "table"')
            f = alg.BooleanFn(blob["n"], blob["table"])
        except (OSError, ValueError, RecursionError) as exc:
            raise CLIError(f"table: {exc}") from exc
        if f.n != 2:
            raise CLIError("walk schemes support 2-bit functions")
        return f
    raise CLIError("dj needs --function or --table")


def _per_scheme(args, entry, fn) -> list:
    """One result per scheme that ``--scheme`` names (``both``: each of ``alg.SCHEMES``): the
    scheme, then ``entry(scheme)``'s fields, then under ``--dump-state`` the snapshots of
    the walk of the function ``fn()``."""
    if args.scheme != "both" and args.scheme not in alg.SCHEMES:
        raise CLIError(f"scheme: expected with-aux, no-aux or both, got {args.scheme!r}")
    results = []
    for scheme in alg.SCHEMES if args.scheme == "both" else [args.scheme]:
        results.append({"scheme": scheme, **entry(scheme)})
        if args.dump_state:
            results[-1]["states"] = [
                {"stage": stage, "state": wc.state_to_json(state)}
                for stage, state in alg.dj_pipeline_states(fn(), scheme)
            ]
    return results


def cmd_dj(args) -> int:
    f = _load_function(args)

    def entry(scheme):
        out = alg.run_dj(f, scheme)
        return {
            "p_all_zero": out.p_all_zero,
            "classification": out.classification.value,
        }

    results = _per_scheme(args, entry, lambda: f)
    agree = len({r["classification"] for r in results}) == 1
    lines = [
        f"{r['scheme']}: p_all_zero={r['p_all_zero']:.6f} "
        f"classification={r['classification']}"
        for r in results
    ]
    if len(results) > 1:
        lines.append(f"schemes agree: {'yes' if agree else 'no'}")
    _render(args, {"command": "dj", "results": results, "schemes_agree": agree}, lines)
    return EXIT_OK


def cmd_bv(args) -> int:
    s = args.string
    if not s or any(ch not in "01" for ch in s):
        raise CLIError(f"hidden string must be bits, got {s!r}")
    if len(s) != 2:
        raise CLIError("walk schemes support hidden strings of length 2")

    def entry(scheme):
        out = alg.run_bv(s, scheme)
        return {
            "hidden": out.hidden,
            "recovered": out.recovered,
            "probability": out.probability,
            "distribution": dict(out.distribution),
        }

    results = _per_scheme(args, entry, lambda: alg.hidden_string_fn(s))
    lines = [
        f"{r['scheme']}: recovered={r['recovered']} p={r['probability']:.6f}"
        for r in results
    ]
    _render(args, {"command": "bv", "results": results}, lines)
    return EXIT_OK


# --- verification suites ------------------------------------------------

def _check(ok, message: str = "") -> None:
    """Fail the running suite with ``message``; unlike ``assert``, kept under ``python -O``."""
    if not ok:
        raise AssertionError(message)


# The suites draw their seeded inputs from the stdlib generator: ``random`` is loaded
# anyway, its ``random()`` stream is documented to stay the same per seed across
# versions, and a cold ``verify`` never imports ``numpy.random`` (about 6 MB).
def _uniforms(rng: random.Random, *shape: int) -> np.ndarray:
    """The floats of ``math.prod(shape)`` calls to ``rng.random()``, bit for bit, in one
    ``getrandbits`` call that leaves ``rng`` in the same state as those calls."""
    n = math.prod(shape)
    w = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    # random() joins the top 27 bits of one 32-bit word and the top 26 of the next.
    return (((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) / 2**53).reshape(shape)


def _suite_coin_unitarity(perturb):
    # -2pi + 4pi u has the bits of rng.uniform(-2pi, 2pi), drawn row by row.
    angles = -2 * np.pi + 4 * np.pi * _uniforms(random.Random(20240917), 1000, 4)
    coins = wc.build_coins(angles)  # names the first row that is not unitary
    a, b, c, d = coins.reshape(-1, 4).T
    det_devs = np.abs(a * d - b * c - np.exp(2j * angles[:, 0]))  # cheaper than np.linalg.det's LU
    bad = np.flatnonzero(~(det_devs <= wc.MATCH_TOL))  # NaN fails
    if bad.size:
        raise AssertionError(
            f"coin {bad[0]}: determinant deviation from e^{{2ip}} {det_devs[bad[0]]:.3e} "
            f"(tolerance {wc.MATCH_TOL:.0e})"
        )


def _suite_shift_structure(perturb):
    topos = [alg.CYCLE4, alg.LINE2, wc.Topology(wc.OPEN_LINE, 5)]
    shifts = [wc.s_plus(0), wc.s_plus(1), wc.s_minus(0), wc.s_minus(1)]
    for topo in topos:  # axis 0 is the shift, so axis 1 sums columns and axis 2 rows
        mags = np.abs([wc.program_operator([wc.WalkStep(shift=s)], topo) for s in shifts])
        checks = {  # a permutation's sums are exactly 1.0
            "a column sum is not 1": np.abs(mags.sum(axis=1) - 1) <= wc.EXACT_TOL,
            "a row sum is not 1": np.abs(mags.sum(axis=2) - 1) <= wc.EXACT_TOL,
            "an entry is not 0 or 1": (mags < wc.EXACT_TOL) | (np.abs(mags - 1) < wc.EXACT_TOL),
        }
        for what, ok in checks.items():
            for shift, good in zip(shifts, ok.reshape(len(shifts), -1).all(axis=1).tolist()):
                if not good:
                    raise AssertionError(f"{shift} on {topo}: {what}, so it is not a permutation")


def _suite_norm_preservation(perturb):
    # One row per case, drawn in order: state 8 + 8, then 4 coins of 4 + 4 on [-1, 1)
    # (the bits of rng.uniform(-1, 1)), then the shift and the phase.
    draws = _uniforms(random.Random(7), 50, 50)
    raw = -1 + 2 * draws[:, :48]
    amps = raw[:, :8] + 1j * raw[:, 8:16]
    parts = raw[:, 16:].reshape(200, 2, 4)  # per coin: 4 real parts, then 4 imaginary
    coins, _ = np.linalg.qr((parts[:, 0] + 1j * parts[:, 1]).reshape(200, 2, 2))
    wc._check_unitary(coins, "coin {}: operator".format)  # WalkStep's check, on all 200
    coins.setflags(write=False)
    shifts = [None, wc.s_plus(0), wc.s_minus(1)]
    for i, (a, u, p) in enumerate(zip(amps, draws[:, 48].tolist(), draws[:, 49].tolist())):
        # Finite draws, checked coins: the states and steps take the trusted path.
        state = wc.WalkState._from_checked(alg.CYCLE4, a / wc._norm(a))
        coin_map = dict(enumerate(coins[4 * i : 4 * i + 4]))
        step = wc.WalkStep._from_checked(coin_map, shifts[int(3 * u)], np.pi * p)
        out = wc.run_program(state, [step])
        _check(abs(out.norm() - 1.0) <= wc.NORM_TOL, "norm drifted")
        pos = wc.measure_position(out)
        joint = wc.measure_joint(out)
        _check(abs(pos.sum() - 1.0) <= wc.NORM_TOL)
        _check(abs(joint.sum() - 1.0) <= wc.NORM_TOL)


def _suite_hadamard_involution(perturb):
    for scheme in alg.SCHEMES:
        topo = alg.scheme_topology(scheme)
        for include_coin in (True, False):
            layer = alg.hadamard_layer(scheme, include_coin=include_coin)
            op = wc.program_operator(layer, topo)
            _check(
                alg.equal_up_to_global_phase(op @ op, np.eye(topo.dim), tol=wc.NORM_TOL),
                f"{scheme} layer squared is not identity",
            )


def _suite_oracle_equiv(perturb):
    for name, f in alg.two_bit_catalogue():
        walk_op = alg.walk_to_circuit_operator(
            wc.program_operator(alg._dj_oracle(f, alg.WITH_AUX), alg.CYCLE4)
        )
        ref = alg.reference_circuit_oracle(f)
        _check(
            alg.equal_up_to_global_phase(walk_op, ref, tol=wc.NORM_TOL),
            f"with-aux oracle mismatch for {name}",
        )
        diag_op = wc.program_operator(alg._dj_oracle(f, alg.NO_AUX), alg.LINE2)
        off = diag_op - np.diag(np.diag(diag_op))
        _check(np.max(np.abs(off)) <= wc.MATCH_TOL, f"no-aux oracle not diagonal for {name}")
        want = np.array([(-1.0) ** f.value(x) for x in range(4)])
        _check(
            alg.equal_up_to_global_phase(np.diag(diag_op), want, tol=wc.NORM_TOL),
            f"no-aux oracle diagonal mismatch for {name}",
        )


def _suite_dj_determinism(perturb):
    for name, f in alg.two_bit_catalogue():
        expect = 1.0 if alg.classify_fn(f) is alg.FnClass.CONSTANT else 0.0
        for scheme in alg.SCHEMES:
            p = alg.run_dj(f, scheme).p_all_zero
            _check(abs(p - expect) <= wc.NORM_TOL, f"{name}/{scheme}: p={p}")
            _check(abs(p - alg.brute_force_p_all_zero(scheme, f)) <= wc.NORM_TOL)
    rng = random.Random(99)
    for n in range(3, 7):
        # Ten balanced tables: each row's rank order is a uniform permutation.
        for bits in (np.argsort(_uniforms(rng, 10, 2**n), axis=1) < 2 ** (n - 1)).astype("u1"):
            f = alg.BooleanFn(n, bits.tobytes())
            for scheme in alg.SCHEMES:
                _check(alg.brute_force_p_all_zero(scheme, f) <= wc.MATCH_TOL)


def _suite_bv_exactness(perturb):
    catalogue = dict(alg.two_bit_catalogue())
    for s, dj_name in alg.BV_STRINGS:
        f = alg.hidden_string_fn(s)
        dj_f = catalogue[dj_name]
        _check(f.table == dj_f.table, f"string {s} maps to wrong function")
        for scheme in alg.SCHEMES:
            out = alg.run_bv(s, scheme)
            _check(out.recovered == s, f"recovered {out.recovered} for {s}")
            _check(abs(out.probability - 1.0) <= wc.NORM_TOL)


def _perturbed(circuit: ph.PhotonicCircuit, perturb) -> ph.PhotonicCircuit:
    delta = perturb.get("hwp", 0.0)
    if not delta:
        return circuit
    stages = tuple(
        tuple(
            replace(c, angle=c.angle + delta) if isinstance(c, ph.HWP) else c
            for c in stage
        )
        for stage in circuit.stages
    )
    return ph.PhotonicCircuit(circuit.n_modes, stages, circuit.readout)


def _suite_photonic_fidelity(perturb):
    for coin, lower in ph._LOWERINGS[1:]:  # the alphabet compile lowers with, after the identity
        comp = lower(0)
        dev = np.max(np.abs(ph.circuit_operator(ph.PhotonicCircuit(1, [(comp,)])) - coin))
        _check(dev <= wc.MATCH_TOL,
               f"{comp!r} is {dev:.3e} off its coin (tolerance {wc.MATCH_TOL:.0e})")
    bv = [(f"bv {s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
    cases = {}  # one case per distinct table, under the first name that has it
    for name, f in alg.two_bit_catalogue() + bv:
        cases.setdefault(f, name)
    starts = {s: wc.WalkState.basis(alg.scheme_topology(s), 0, 0) for s in alg.SCHEMES}
    for f, name in cases.items():
        for scheme in alg.SCHEMES:
            prog = alg.build_dj_program(f, scheme)
            circ = _perturbed(ph.compile(prog, scheme), perturb)
            _check(
                alg.equal_up_to_global_phase(
                    ph.circuit_operator(circ), alg._dj_operator(f, scheme),
                    tol=wc.FIDELITY_TOL,
                ),
                f"photonic/walk mismatch for {name}/{scheme}",
            )
            probs = wc.measure_joint(ph.simulate_photonic(circ, starts[scheme]))
            walk_probs = wc.measure_joint(alg._dj_final_state(f, scheme))
            _check(
                np.max(np.abs(probs - walk_probs)) <= wc.FIDELITY_TOL,
                f"photonic probabilities drifted for {name}/{scheme}",
            )


ALL_SUITES = (
    ("coin-unitarity", _suite_coin_unitarity),
    ("shift-structure", _suite_shift_structure),
    ("norm-preservation", _suite_norm_preservation),
    ("hadamard-involution", _suite_hadamard_involution),
    ("oracle-equiv", _suite_oracle_equiv),
    ("dj-determinism", _suite_dj_determinism),
    ("bv-exactness", _suite_bv_exactness),
    ("photonic-fidelity", _suite_photonic_fidelity),
)


def _parse_perturb(spec: Optional[str]) -> dict:
    if spec is None:  # an empty spec is malformed, not absent
        return {}
    try:
        key, value = spec.split("=", 1)
        return {key: float(value)}
    except ValueError as exc:
        raise CLIError(f"perturb: expected key=value, got {spec!r}") from exc


# A suite that raises one of these fails with "<Type>: <message>"; others propagate.
SUITE_ERRORS = (wc.WalkError, ph.CompileError, alg.PromiseViolation, ValueError)


def _select_suites(names: Optional[Sequence[str]], perturb: dict) -> list:
    """The ``ALL_SUITES`` entries that ``names`` selects, in that order (None selects all).
    ``perturb`` must be empty or a finite ``hwp`` that one of them reads, else CLIError."""
    names = [names] if isinstance(names, str) else names  # one name, not its substrings
    try:
        names = None if names is None else list(names)
    except TypeError:
        raise CLIError(f"suites must be a str or iterable, got {type(names).__name__}") from None
    for name in names or ():
        if not (isinstance(name, str) and name in dict(ALL_SUITES)):  # a list is unhashable
            raise CLIError(f"unknown suite {name!r}")
    if not isinstance(perturb, dict):
        raise CLIError(f"perturb must be a dict, got {type(perturb).__name__}")
    for key, value in perturb.items():
        if key != "hwp":
            raise CLIError(f"perturb: unknown key {key!r} (use hwp)")
        if not wc._is_finite_real(value):
            raise CLIError(f"perturb: {key} must be a finite number")
        if not wc._is_finite_real(2 * value):  # hwp_jones doubles every plate angle
            raise CLIError(f"perturb: |{key}| must be at most {sys.float_info.max / 2:.4g}")
    if perturb and names is not None and "photonic-fidelity" not in names:
        raise CLIError("perturb: only the photonic-fidelity suite reads --perturb")
    return [(name, fn) for name, fn in ALL_SUITES if names is None or name in names]


def run_suites(names: Optional[Sequence[str]] = None, perturb: Optional[dict] = None):
    """Run the suites ``names`` selects (None all, a string one, else a sequence of names) and
    return (name, passed, message) triples; what ``verify`` rejects raises ``ValueError``."""
    perturb = {} if perturb is None else perturb
    results = []
    for name, fn in _select_suites(names, perturb):
        try:
            fn(perturb)
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))
        except SUITE_ERRORS as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def cmd_verify(args) -> int:
    _select_suites(args.suite, {})  # an unknown --suite is reported before a bad --perturb
    results = run_suites(args.suite, _parse_perturb(args.perturb))
    rows = [{"suite": n, "passed": ok, "message": msg} for n, ok, msg in results]
    lines = [
        f"{name}: {'pass' if ok else 'FAIL'}{(' -- ' + msg) if msg else ''}"
        for name, ok, msg in results
    ]
    _render(args, {"command": "verify", "results": rows}, lines)
    failures = [(name, msg) for name, ok, msg in results if not ok]
    if failures:
        sys.stderr.write(f"first failure: {failures[0][0]}: {failures[0][1]}\n")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_report(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise CLIError("report needs at least one algorithm (use dj, bv)")
    for a in algorithms:
        if a not in ("dj", "bv"):
            raise CLIError(f"unknown algorithm {a!r} (use dj, bv)")
    rows = []
    if "dj" in algorithms:
        rows += ph.resource_report(alg.two_bit_catalogue(), algorithm="dj")
    if "bv" in algorithms:
        bv_fns = [(s, alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
        rows += ph.resource_report(bv_fns, algorithm="bv")
    blob = {"rows": rows}
    if _render(args, blob, ph.report_to_csv(rows).splitlines()) and args.format == "csv":
        # a JSON sidecar only beside a regular file
        _write_file(args.output + ".json", json.dumps(blob, indent=2))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="photonwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    dj = sub.add_parser("dj", help="run the constant-vs-balanced test")
    source = dj.add_mutually_exclusive_group()
    source.add_argument("--function", help="catalogue function name (i..viii)")
    source.add_argument("--table", help="path to a truth-table JSON file")
    dj.add_argument("--scheme", default="both")
    dj.set_defaults(func=cmd_dj)

    bv = sub.add_parser("bv", help="recover a hidden string")
    bv.add_argument("--string", required=True, help="hidden bit string")
    bv.add_argument("--scheme", default="both")
    bv.set_defaults(func=cmd_bv)

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("--suite", help="run only the named suite")
    verify.add_argument("--perturb", help="fault-injection hook, e.g. hwp=0.01")
    verify.set_defaults(func=cmd_verify)

    report = sub.add_parser("report", help="emit the component-count comparison")
    report.add_argument("--algorithms", default="dj,bv")
    report.set_defaults(func=cmd_report)

    for p, text in ((dj, "text"), (bv, "text"), (verify, "text"), (report, "csv")):
        p.add_argument("--format", default=text, choices=(text, "json"))
        p.add_argument("--output", help="write output to this path")
    for p in (dj, bv):
        p.add_argument("--dump-state", action="store_true", dest="dump_state")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CLIError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except alg.PromiseViolation as exc:
        sys.stderr.write(f"promise violated: {exc}\n")
        return EXIT_PROMISE


if __name__ == "__main__":
    sys.exit(main())
