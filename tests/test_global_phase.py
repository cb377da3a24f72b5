import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import walk_core as wc


def test_shapes_compared_before_flattening():
    with pytest.raises(wc.DimensionMismatch):
        alg.equal_up_to_global_phase(np.eye(4), np.eye(4).reshape(2, 8))


def test_phase_taken_from_largest_entry():
    # The tiny leading entries differ in sign; the vectors agree within tol.
    a = np.array([1e-11, 1.0, 0.0])
    b = np.array([-1e-11, 1.0, 0.0])
    assert alg.equal_up_to_global_phase(a, b, tol=1e-10)
    assert alg.equal_up_to_global_phase(a, np.exp(0.4j) * b, tol=1e-10)


@pytest.mark.parametrize(
    "b, equal",
    [([0.0, 0.0], True), ([1e-10, -1e-10j], True), ([0.0, 2e-10], False), ([1.0, 0.0], False)],
)
def test_a_zero_a_equals_only_a_b_within_tol_of_zero(b, equal):
    a = np.array([wc.MATCH_TOL / 2, -wc.MATCH_TOL])  # within MATCH_TOL of 0 everywhere
    assert alg.equal_up_to_global_phase(a, np.array(b), tol=1e-10) is equal
