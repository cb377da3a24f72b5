"""The tier-1 gate draws the same hypothesis examples on every run: ``conftest.py``
loads the derandomized ``ci`` profile, and the random ``fuzz`` profile is opt-in."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
PROPERTY = "tests/test_input_contract.py::test_shift"


def drawn(hash_seed):
    """The examples one child pytest run of PROPERTY tries, in order."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
    command = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider"]
    command += ["--hypothesis-verbosity=verbose", PROPERTY]
    out = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return [line for line in out.stdout.splitlines() if " passed in " not in line]


def test_two_runs_under_the_ci_profile_draw_the_same_examples():
    first, second = drawn("1"), drawn("2")
    assert sum(line.startswith("Trying example") for line in first) >= 100
    assert first == second


def test_the_ci_profile_is_derandomized_and_the_fuzz_profile_is_not():
    ci, fuzz = settings.get_profile("ci"), settings.get_profile("fuzz")
    assert ci.derandomize and ci.database is None
    assert not fuzz.derandomize and fuzz.print_blob
