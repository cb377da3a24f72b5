"""One phase-vector transform per table, shared by both schemes.

``stacked_reference`` is the reference as it ran before the core was shared:
the with-aux state held the aux pair of every x, (1, -1) swapped where
f(x) = 1, and went through ``_hadamard_all`` at 2^(n+1) entries.  Every
amplitude is an integer until the one final scaling, so the shared core must
agree with it bit for bit, the sign of each zero included.
"""

import numpy as np
import pytest

from photonwalk import algorithms as alg
from test_reference_closed_form import tables

AUX_PAIRS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # the unnormalised aux pair H|1>, by f(x)


def stacked_reference(scheme: str, f: alg.BooleanFn) -> np.ndarray:
    n, mask = f.n, np.frombuffer(f.table, bool)
    if scheme == alg.NO_AUX:
        vec, scale = np.where(mask, -1.0, 1.0), 2.0**-n
    else:
        vec, scale = AUX_PAIRS.take(mask, axis=0).ravel(), 2 ** (-(2 * n + 1) / 2)
    alg._hadamard_all(vec, n)
    vec *= scale
    return vec.astype(complex)


@pytest.mark.parametrize("scheme", alg.SCHEMES)
@pytest.mark.parametrize("n", range(1, 15))
def test_the_shared_core_gives_the_stacked_reference_bit_for_bit(n, scheme):
    for table in tables(n):  # constant 0, constant 1, balanced, random
        f = alg.BooleanFn(n, table)
        want = stacked_reference(scheme, f)
        got = alg.brute_force_reference(scheme, f)
        assert got.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got.view(float)[got.view(float) == 0.0]).any()  # every zero is +0.0
        probs = want.real**2
        if scheme == alg.WITH_AUX:
            probs = probs[0::2] + probs[1::2]
        assert alg._reference_probabilities(scheme, f).tobytes() == probs.tobytes()
        assert alg.brute_force_p_all_zero(scheme, f) == float(probs[0])


@pytest.fixture
def transforms(monkeypatch):
    """The qubit count of every ``_hadamard_all`` call, on an empty memo."""
    calls, real = [], alg._hadamard_all

    def counting(vec, qubits):
        calls.append(qubits)
        real(vec, qubits)

    monkeypatch.setattr(alg, "_hadamard_all", counting)
    alg._phase_transform.cache_clear()
    return calls


def test_two_schemes_on_one_table_transform_it_once(transforms):
    table = tables(8)[2]
    f = alg.BooleanFn(8, table)
    vecs = [alg.brute_force_reference(scheme, f) for scheme in alg.SCHEMES]
    assert transforms == [8]
    alg.brute_force_p_all_zero(alg.WITH_AUX, alg.BooleanFn(8, list(table)))  # equal, not the same
    assert transforms == [8]
    other = alg.BooleanFn(8, tables(8)[3])
    alg.brute_force_reference(alg.NO_AUX, other)
    assert transforms == [8, 8]
    alg.brute_force_reference(alg.WITH_AUX, f)  # one table is kept: f is transformed again
    assert transforms == [8, 8, 8]
    core = alg._phase_transform(f)
    assert core is alg._phase_transform(f) and transforms == [8, 8, 8]
    assert not core.flags.writeable
    with pytest.raises(ValueError):
        core[0] = 0.0
    assert not any(np.shares_memory(vec, core) for vec in vecs)


def test_run_bv_on_both_schemes_transforms_its_table_once(transforms):
    s = "1011001110"
    for scheme in alg.SCHEMES:
        assert alg.run_bv(s, scheme).recovered == s  # a new equal table each call
    assert transforms == [10]
