"""Property tests: the layer-sum sweeps of the main and entropy inequalities
match brute-force sums over all subsets, and a gap is its sweep of one."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenoise.cube import CubeFunction, conditional_expectation, entropy
from cubenoise.inequalities import (
    cond_exp_log_norms,
    main_inequality_gap,
    main_inequality_sweep,
    noisy_entropy_gap,
    noisy_entropy_sweep,
    subset_expectation_exact,
    subset_rate,
    subset_weights,
)

SETTINGS = settings(max_examples=40, deadline=None)
NOISE = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5))
Q = st.sampled_from([1.1, 1.5, 2.0, 3.0, 8.0, math.inf])
RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def functions(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    values = draw(
        # E f > 0 in floating point, the verifiers' domain: subnormal values can
        # make the mean of a nonzero function underflow to 0.
        st.lists(st.floats(0.0, 10.0), min_size=1 << n, max_size=1 << n).filter(
            lambda v: np.mean(v) > 0.0
        )
    )
    return CubeFunction(n, values)


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


def brute(n, lam, values):
    """Sum over all masks T of lam^|T| (1-lam)^(n-|T|) values[T]."""
    return math.fsum(
        lam ** t.bit_count() * (1.0 - lam) ** (n - t.bit_count()) * v
        for t, v in enumerate(values)
    )


@SETTINGS
@given(functions(), Q, st.lists(NOISE, min_size=1, max_size=4))
def test_main_sweep_rhs_is_weighted_table(f, q, eps_grid):
    table = cond_exp_log_norms(f, q)
    for eps, rep in zip(eps_grid, main_inequality_sweep(f, q, eps_grid)):
        if eps == 0.5:
            continue
        w = subset_weights(f.n, subset_rate(q, eps))
        used = w > 0.0  # subsets of probability zero add nothing, even at -inf
        assert close(rep.rhs, float(w[used] @ table[used]))
        assert rep.gap == rep.rhs - rep.lhs


@SETTINGS
@given(functions(), st.lists(NOISE, min_size=1, max_size=4))
def test_entropy_sweep_rhs_matches_brute_force(f, eps_grid):
    try:
        values = [entropy(conditional_expectation(f, t)) for t in range(1 << f.n)]
    except ValueError:  # some E(f|T) underflows to 0, so has no entropy
        with pytest.raises(ValueError, match="E f > 0"):
            noisy_entropy_sweep(f, eps_grid)
        return
    for eps, rep in zip(eps_grid, noisy_entropy_sweep(f, eps_grid)):
        assert close(rep.rhs, brute(f.n, (1.0 - 2.0 * eps) ** 2, values))
        assert rep.gap == rep.rhs - rep.lhs


def outcome(call):
    """Every field of the report, or the error raised instead."""
    try:
        rep = call()
    except ValueError as err:
        return str(err)
    return [rep.inequality, rep.lhs, rep.rhs, rep.gap, rep.params]


@SETTINGS
@given(functions(max_n=4), Q, NOISE, st.sampled_from(["exact", "mc"]), st.integers(0, 99))
def test_gap_is_sweep_of_one(f, q, eps, mode, seed):
    opts = {"mode": mode, "samples": 50, "seed": seed}
    # assert_equal counts NaN as equal to NaN, as it is the same computation.
    np.testing.assert_equal(
        outcome(lambda: main_inequality_gap(f, q, eps, **opts)),
        outcome(lambda: main_inequality_sweep(f, q, [eps], **opts)[0]),
    )
    np.testing.assert_equal(
        outcome(lambda: noisy_entropy_gap(f, eps, **opts)),
        outcome(lambda: noisy_entropy_sweep(f, [eps], **opts)[0]),
    )


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_sweeps_reject_underflowing_mean(mode, eps):
    f = CubeFunction(1, [0.0, 5e-324])  # nonzero, but its mean rounds to 0
    assert f.mean() == 0.0
    opts = {"mode": mode, "samples": 50}
    for call in (
        lambda: main_inequality_sweep(f, 2.0, [eps], **opts),
        lambda: noisy_entropy_sweep(f, [eps], **opts),
    ):
        with pytest.raises(ValueError, match="E f > 0"):
            call()


@SETTINGS
@given(functions(), Q, st.sampled_from([0.0, 0.5]))
def test_main_gap_zero_at_noise_endpoints(f, q, eps):
    rep = main_inequality_gap(f, q, eps)
    assert rep.gap == 0.0
    if eps == 0.5:
        assert rep.lhs == rep.rhs == math.log(f.mean())


@SETTINGS
@given(st.integers(0, 6), RATES, st.integers(0, 2**32 - 1))
def test_subset_expectation_exact_matches_brute_force(n, lam, seed):
    values = np.random.default_rng(seed).normal(size=1 << n)
    got = subset_expectation_exact(n, lam, lambda t: float(values[t]))
    assert close(got, brute(n, lam, values))
