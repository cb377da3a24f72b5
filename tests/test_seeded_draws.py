"""The verify suites draw their seeded inputs from the stdlib generator, in one batch."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from photonwalk import algorithms as alg
from photonwalk import cli


@pytest.mark.parametrize("seed", [0, 7, 99, 20240917])
@pytest.mark.parametrize("shape", [(1,), (3,), (10, 8), (50, 50), (1000, 4)])
def test_uniforms_are_the_random_calls_bit_for_bit(seed, shape):
    batched, single = random.Random(seed), random.Random(seed)
    got = cli._uniforms(batched, *shape)
    want = [single.random() for _ in range(got.size)]
    assert got.shape == shape
    assert got.ravel().tolist() == want
    assert batched.getstate() == single.getstate()


CHILD = """
import json, os, sys
from photonwalk import cli
rows = []
for argv in [[], *(["--suite", name] for name, _ in cli.ALL_SUITES)]:
    code = cli.main(["verify", *argv, "--output", os.devnull])
    rows.append([argv, code, "numpy.random" in sys.modules])
print(json.dumps(rows))
"""


def test_verify_never_imports_numpy_random():
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = [[[], 0, False]] + [[["--suite", name], 0, False] for name, _ in cli.ALL_SUITES]
    assert json.loads(proc.stdout) == want


def test_the_determinism_tables_go_through_the_checked_constructor(monkeypatch):
    post_init = alg.BooleanFn.__post_init__
    seen = []

    def recording(f):
        raw = f.table
        post_init(f)
        seen.append((f.n, raw, f))

    monkeypatch.setattr(alg.BooleanFn, "__post_init__", recording)
    cli._suite_dj_determinism({})
    monkeypatch.undo()
    assert [n for n, _, _ in seen] == [n for n in range(3, 7) for _ in range(10)]
    for n, raw, f in seen:
        want = alg.BooleanFn(n, list(raw))
        assert f == want and hash(f) == hash(want) and type(f.table) is bytes
        assert sum(f.table) == 2 ** (n - 1)  # balanced
