"""Per-layer spans recorded from outside photonwalk.

``Tracer.install()`` replaces each traced function with a wrapper in every
photonwalk module that holds it, so calls are caught where callers look them
up (``algorithms`` imports ``run_program`` and ``program_operator`` by name,
``photonic`` imports ``program_operator``).  ``uninstall()`` puts the originals
back, so an untraced operation runs the program exactly as shipped.

Each span has a name, start, end and parent.  Per-name counts, total time and
self time (duration minus the time covered by child spans) are kept for every
span; the raw spans are kept in memory for the first ``sample_ops`` operations
only and written out by the caller at the end.
"""

from __future__ import annotations

import argparse
import functools
import time

from photonwalk import algorithms, cli, photonic, walk_core
from workloads import VERIFY_SUITES as SUITES

MODULES = {
    "walk_core": walk_core,
    "algorithms": algorithms,
    "photonic": photonic,
    "cli": cli,
}
# Functions traced by (module, name); each is wrapped wherever it is bound.
FUNCTIONS = (
    ("walk_core", "apply_step"),
    ("walk_core", "run_program"),
    ("walk_core", "step_operator"),
    ("walk_core", "program_operator"),
    ("walk_core", "build_coin"),
    ("algorithms", "build_dj_program"),
    ("algorithms", "hidden_string_fn"),
    ("algorithms", "brute_force_reference"),
    ("algorithms", "run_bv"),
    ("photonic", "compile"),
    ("photonic", "circuit_operator"),
    ("photonic", "simulate_photonic"),
    ("cli", "main"),
)
SPAN_NAMES = (
    [f"{mod}.{name}" for mod, name in FUNCTIONS]
    + ["algorithms.BooleanFn", "cli.parse"]
    + [f"cli.suite.{name}" for name in SUITES]
)


class Tracer:
    def __init__(self, sample_ops: int = 10):
        self.sample_ops = sample_ops
        self.stats = {name: [0, 0, 0] for name in SPAN_NAMES}  # calls, total, self ns
        self.ops = 0         # operations traced so far
        self.spans = []      # (op, span id, name, start ns, end ns, parent id)
        self.missing = []
        self._stack = []     # [span id, child ns] per open span
        self._next_id = 0
        self._op = -1
        self._patches = self._plan()

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every place a target is bound."""
        patches = []
        for mod, name in FUNCTIONS:
            original = getattr(MODULES[mod], name, None)
            if original is None:
                self.missing.append(f"{mod}.{name}")
                continue
            wrapper = self._wrap(f"{mod}.{name}", original)
            for owner in MODULES.values():
                if getattr(owner, name, None) is original:
                    patches.append((owner, name, original, wrapper))
        fn_cls = algorithms.BooleanFn
        patches.append((fn_cls, "__init__", fn_cls.__init__,
                        self._wrap("algorithms.BooleanFn", fn_cls.__init__)))
        parse = argparse.ArgumentParser.parse_args
        patches.append((argparse.ArgumentParser, "parse_args", parse,
                        self._wrap("cli.parse", parse)))
        suites = dict(getattr(cli, "ALL_SUITES", ()))
        self.missing += [f"cli.suite.{n}" for n in SUITES if n not in suites]
        if suites:
            traced = tuple(
                (name, self._wrap(f"cli.suite.{name}", fn) if name in SUITES else fn)
                for name, fn in cli.ALL_SUITES
            )
            patches.append((cli, "ALL_SUITES", cli.ALL_SUITES, traced))
        return patches

    def _wrap(self, name: str, fn):
        stats = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.ops <= self.sample_ops:
                    self.spans.append((self._op, frame[0], name, start, end, parent))

        return traced

    def install(self, op_index: int) -> None:
        self._op = op_index
        self.ops += 1
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def per_op(self) -> dict:
        """Per-layer metrics, each averaged over the traced operations."""
        ops = self.ops
        metrics = {}
        for name, (calls, total, self_ns) in self.stats.items():
            metrics[f"{name}.calls"] = {"value": calls / ops, "unit": "calls/op"}
            metrics[f"{name}.total_ms"] = {"value": total / ops / 1e6, "unit": "ms/op"}
            metrics[f"{name}.self_ms"] = {"value": self_ns / ops / 1e6, "unit": "ms/op"}
        return metrics
