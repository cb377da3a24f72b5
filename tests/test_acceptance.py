"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import photonic as ph
from photonwalk import walk_core as wc


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(criterion, timer, limit):
    print(f"ACCEPTANCE {criterion}: PASS ({timer.elapsed:.3f}s < {limit}s)")
    assert timer.elapsed < limit, f"{criterion} exceeded {limit}s"


def test_criterion_1_dj_exactness():
    with _Timer() as t:
        for name, f in alg.two_bit_catalogue():
            expect = 1.0 if name in ("i", "ii") else 0.0
            for scheme in alg.SCHEMES:
                p = alg.run_dj(f, scheme).p_all_zero
                assert abs(p - expect) <= 1e-10, f"{name}/{scheme}: p={p}"
    _report("1 DJ exactness", t, 1.0)


def test_criterion_2_bv_exactness():
    with _Timer() as t:
        for s, _ in alg.BV_STRINGS:
            for scheme in alg.SCHEMES:
                out = alg.run_bv(s, scheme)
                assert out.recovered == s
                assert abs(out.probability - 1.0) <= 1e-10
    _report("2 BV exactness", t, 1.0)


def test_criterion_3_oracle_equivalence():
    with _Timer() as t:
        for name, f in alg.two_bit_catalogue():
            walk_op = alg.walk_to_circuit_operator(
                wc.program_operator(
                    alg.build_oracle_with_aux(f), alg.scheme_topology(alg.WITH_AUX)
                )
            )
            assert alg.equal_up_to_global_phase(
                walk_op, alg.reference_circuit_oracle(f), tol=1e-10
            ), name
            diag_op = wc.program_operator(
                alg.build_oracle_no_aux(f), alg.scheme_topology(alg.NO_AUX)
            )
            assert np.max(np.abs(diag_op - np.diag(np.diag(diag_op)))) <= 1e-12
            want = np.array([(-1.0) ** f.value(x) for x in range(4)])
            assert alg.equal_up_to_global_phase(np.diag(diag_op), want, tol=1e-10)
    _report("3 oracle equivalence", t, 1.0)


def test_criterion_4_photonic_fidelity():
    with _Timer() as t:
        for angle, target in [
            (np.pi / 8, alg.COIN_HADAMARD),
            (np.pi / 4, alg.COIN_X),
            (0.0, np.diag([1.0, -1.0])),
            (np.pi / 2, np.diag([-1.0, 1.0])),
        ]:
            assert np.max(np.abs(ph.hwp_jones(angle) - target)) <= 1e-12
        cases = list(alg.two_bit_catalogue())
        cases += [(f"bv-{s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
        for name, f in cases:
            for scheme in alg.SCHEMES:
                prog = alg.build_dj_program(f, scheme)
                circuit = ph.compile(prog, scheme)
                walk_op = wc.program_operator(prog, alg.scheme_topology(scheme))
                assert alg.equal_up_to_global_phase(
                    ph.circuit_operator(circuit), walk_op, tol=1e-9
                ), f"{name}/{scheme}"
    _report("4 photonic fidelity", t, 2.0)


def test_criterion_5_resource_comparison():
    with _Timer() as t:
        cases = list(alg.two_bit_catalogue())
        cases += [(f"bv-{s}", alg.hidden_string_fn(s)) for s, _ in alg.BV_STRINGS]
        rows = ph.resource_report(cases)
        by_fn = {}
        for row in rows:
            by_fn.setdefault(row["function_name"], {})[row["scheme"]] = row["total"]
        assert len(by_fn) == 12
        for name, totals in by_fn.items():
            assert totals[alg.NO_AUX] < totals[alg.WITH_AUX], name
        assert ph.report_to_csv(rows) == ph.report_to_csv(ph.resource_report(cases))
    _report("5 resource comparison", t, 10.0)


def test_criterion_6_scaling_oracle_check():
    rng = np.random.default_rng(2026)
    with _Timer() as t:
        for n in range(3, 11):
            half = 2 ** (n - 1)
            for scheme in alg.SCHEMES:
                const = alg.BooleanFn(n, (0,) * (2 * half))
                assert alg.brute_force_p_all_zero(scheme, const) >= 1 - 1e-12
            for _ in range(50):
                table = np.array([0] * half + [1] * half)
                rng.shuffle(table)
                f = alg.BooleanFn(n, tuple(int(b) for b in table))
                assert alg.brute_force_p_all_zero(alg.NO_AUX, f) <= 1e-12
                assert alg.brute_force_p_all_zero(alg.WITH_AUX, f) <= 1e-12
    _report("6 scaling oracle check", t, 10.0)


def test_criterion_7_property_suites():
    with _Timer() as t:
        results = cli.run_suites()
        assert len(results) == len(cli.ALL_SUITES)
        for name, ok, msg in results:
            assert ok, f"suite {name} failed: {msg}"
    _report("7 property suites", t, 30.0)
