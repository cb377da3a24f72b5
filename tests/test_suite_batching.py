"""The batched verify suites check exactly what the per-case loops checked."""

import math
import random

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import cli
from photonwalk import walk_core as wc


def per_case_norm_draws():
    """The norm suite's cases as a per-case loop draws them: one value per ``random()``
    call, one QR per coin."""
    rng = random.Random(7)

    def uniform(*shape):  # rng.uniform(-1, 1) per entry, in row-major order
        return np.array([rng.uniform(-1, 1) for _ in range(math.prod(shape))]).reshape(shape)

    cases = []
    for _ in range(50):
        amps = uniform(8) + 1j * uniform(8)
        amps /= np.linalg.norm(amps)
        coin_map = {}
        for l in range(4):
            a = uniform(2, 2) + 1j * uniform(2, 2)
            coin_map[l], _ = np.linalg.qr(a)
        shift = [None, wc.s_plus(0), wc.s_minus(1)][int(3 * rng.random())]
        cases.append((amps, wc.WalkStep(coin_map, shift, rng.uniform(0, np.pi))))
    return cases


def test_norm_suite_steps_carry_the_per_case_draws(monkeypatch):
    seen = []
    run_program = wc.run_program

    def recording_run_program(state, steps):
        (step,) = steps
        seen.append((state, step))
        return run_program(state, steps)

    monkeypatch.setattr(cli.wc, "run_program", recording_run_program)
    cli._suite_norm_preservation({})
    want = per_case_norm_draws()
    assert len(seen) == len(want) == 50
    for (state, step), (want_amps, want_step) in zip(seen, want):
        # The trusted path builds what the public constructors would.
        assert type(state) is wc.WalkState and state.topology is alg.CYCLE4
        assert state.amplitudes.dtype == complex and not state.amplitudes.flags.writeable
        np.testing.assert_array_equal(state.amplitudes, want_amps)
        assert step == want_step and hash(step) == hash(want_step)  # coin bytes, shift, phase
        assert step.tag is None and list(step.coin_map) == [0, 1, 2, 3]
        assert not any(c.flags.writeable for c in step.coin_map.values())


def test_norm_suite_still_checks_that_its_coins_are_unitary(monkeypatch):
    qr = np.linalg.qr

    def skewed(a):
        q, r = qr(a)
        q[137, 1, 0] *= 1 + 1e-9  # coin 1 of case 34
        return q, r

    monkeypatch.setattr(cli.np.linalg, "qr", skewed)
    with pytest.raises(wc.WalkError, match=r"^coin 137: operator is not unitary \(max dev"):
        cli._suite_norm_preservation({})


def numpy_coin(p, q, r, theta):
    """The coin formula evaluated with numpy ufuncs on each scalar."""
    c, s = np.cos(theta), np.sin(theta)
    return np.exp(1j * p) * np.array(
        [
            [np.exp(1j * q) * c, np.exp(1j * r) * s],
            [-np.exp(-1j * r) * s, np.exp(-1j * q) * c],
        ],
        dtype=complex,
    )


def test_build_coin_matches_the_numpy_formula_on_the_suite_rows():
    rows = np.random.default_rng(20240917).uniform(-2 * np.pi, 2 * np.pi, size=(1000, 4))
    coins = wc.build_coins(rows)
    assert coins.dtype == complex and coins.shape == (1000, 2, 2)
    for row, m in zip(rows.tolist(), coins):
        assert np.max(np.abs(m - numpy_coin(*row))) <= 1e-15


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("which", range(4))
def test_build_coin_rejects_a_non_finite_angle_as_not_unitary(angle, which):
    params = [0.1, 0.2, 0.3, 0.4]
    params[which] = angle
    with np.errstate(invalid="ignore"):
        with pytest.raises(wc.WalkError, match=r"not unitary \(max deviation nan\)"):
            wc.build_coins([params])


def test_norm_suite_still_fails_on_a_drifting_step(monkeypatch):
    run_program = wc.run_program

    def drifting(state, steps):
        out = run_program(state, steps)
        return wc.WalkState(out.topology, out.amplitudes * (1 + 1e-6))

    monkeypatch.setattr(cli.wc, "run_program", drifting)
    with pytest.raises(AssertionError, match="norm drifted"):
        cli._suite_norm_preservation({})


def column_off(op):  # every entry of column 0 moves by 6e-16: its sum by 4.8e-15
    out = op.copy()
    out[:, 0] += 6e-16
    return out


def row_off(op):
    out = op.copy()
    out[0] += 6e-16
    return out


def spread(op):  # every sum exactly 1, no entry 0 or 1
    return np.full(op.shape, 1 / len(op))


@pytest.mark.parametrize(
    "skew,what",
    [(column_off, "a column sum is not 1"), (row_off, "a row sum is not 1"),
     (spread, "an entry is not 0 or 1")],
    ids=["column", "row", "entry"],
)
def test_shift_suite_names_the_topology_and_the_shift_that_fail(monkeypatch, skew, what):
    program_operator, bad = wc.program_operator, wc.s_minus(0)

    def skewed(steps, topology):
        op = program_operator(steps, topology)
        return skew(op) if topology == alg.LINE2 and steps[0].shift == bad else op

    monkeypatch.setattr(cli.wc, "program_operator", skewed)
    with pytest.raises(AssertionError) as info:
        cli._suite_shift_structure({})
    assert str(info.value) == f"{bad} on {alg.LINE2}: {what}, so it is not a permutation"


def test_photonic_suite_builds_one_start_state_per_scheme(monkeypatch):
    calls, basis = [], wc.WalkState.basis
    monkeypatch.setattr(
        wc.WalkState, "basis", classmethod(lambda cls, *args: calls.append(args) or basis(*args))
    )
    cli._suite_photonic_fidelity({})
    assert calls == [(alg.scheme_topology(scheme), 0, 0) for scheme in alg.SCHEMES]


def test_bv_suite_builds_the_catalogue_once(monkeypatch):
    calls, catalogue = [], alg.two_bit_catalogue
    monkeypatch.setattr(cli.alg, "two_bit_catalogue", lambda: calls.append(1) or catalogue())
    cli._suite_bv_exactness({})
    assert calls == [1]
