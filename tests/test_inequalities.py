import math

import numpy as np
import pytest

from references import coordinate_log_norm_deficit, layer_expectation, subset_expectation_exact

from cubenoise import corpus, inequalities
from cubenoise.cube import CubeFunction, character, conditional_expectation, log_lq_norms
from cubenoise.inequalities import (
    GapReport,
    CSV_COLUMNS,
    _pooled_draws,
    _sample_masks,
    _uniform_draw,
    cond_exp_log_norms,
    derivative_sweep,
    hypercontractive_sweep,
    layer_expectations,
    log_sobolev_equality_expected,
    log_sobolev_sweep,
    main_inequality_sweep,
    noise_rate,
    noisy_entropy_sweep,
    r_exponent,
    size_weights,
    subset_expectation_mc,
    subset_rate,
    two_point_gap,
)

LN2 = math.log(2.0)
Q_GRID = (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)


def rand_fn(n, seed):
    return CubeFunction(n, np.random.default_rng(seed).random(1 << n))


# ---------------------------------------------------------------------------
# r(q)
# ---------------------------------------------------------------------------

def test_r_exponent_limit_at_one():
    assert r_exponent(1 + 1e-8) == pytest.approx(2.0, abs=1e-6)


def test_r_exponent_pinned_values():
    assert r_exponent(2.0) == pytest.approx(1.0 / LN2, abs=1e-15)
    assert r_exponent(3.0) == pytest.approx(3.0 / (4.0 * LN2), abs=1e-15)
    assert r_exponent(math.inf) == pytest.approx(1.0 / (2.0 * LN2), abs=1e-16)


def test_r_exponent_branches_agree_and_continuous():
    below = (2 ** (3 - 1.999999) * (2**0.999999 - 1)) / (2 * LN2 * 0.999999)
    assert r_exponent(1.999999) == pytest.approx(below, abs=1e-15)
    assert r_exponent(2.0 - 1e-9) == pytest.approx(r_exponent(2.0 + 1e-9), abs=1e-7)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            r_exponent(bad)


def test_rate_conversions_roundtrip():
    for q in Q_GRID + (math.inf,):
        for eps in (0.0, 0.1, 0.37, 0.5):
            lam = subset_rate(q, eps)
            assert 0.0 <= lam <= 1.0
            assert noise_rate(q, lam) == pytest.approx(eps, abs=1e-12)
    # at q = inf the matched noise is (1 - lam^(2 ln 2)) / 2
    lam = 0.3
    assert noise_rate(math.inf, lam) == pytest.approx((1 - lam ** (2 * LN2)) / 2, abs=1e-15)


# ---------------------------------------------------------------------------
# subset expectations
# ---------------------------------------------------------------------------

def test_subset_expectation_linear():
    for n, lam in [(3, 0.25), (6, 0.8)]:
        got = subset_expectation_exact(n, lam, lambda t: float(bin(t).count("1")))
        assert got == pytest.approx(lam * n, abs=1e-12)


def test_subset_expectation_degenerate_rates():
    h = lambda t: float(t)
    assert subset_expectation_exact(4, 1.0, h) == 15.0
    assert subset_expectation_exact(4, 0.0, h) == 0.0


def test_subset_expectation_small_case():
    got = subset_expectation_exact(2, 0.5, lambda t: 2.0 ** bin(t).count("1"))
    assert got == pytest.approx(9.0 / 4.0, abs=1e-14)


def test_subset_expectation_cap():
    with pytest.raises(ValueError, match="capped"):
        subset_expectation_exact(25, 0.5, lambda t: 0.0)


def test_subset_expectation_mc_zero_rate_zero_variance():
    mean, se = subset_expectation_mc(5, 0.0, lambda t: float(t == 0), 500, seed=1)
    assert mean == 1.0 and se == 0.0


def test_subset_expectation_mc_known_mean():
    mean, se = subset_expectation_mc(8, 0.3, lambda t: float(bin(t).count("1")), 100_000, seed=2)
    assert abs(mean - 0.3 * 8) <= 4 * se


def test_subset_expectation_mc_agrees_with_exact():
    rng = np.random.default_rng(5)
    values = rng.random(1 << 10)
    h = lambda t: float(values[t])
    exact = subset_expectation_exact(10, 0.4, h)
    mean, se = subset_expectation_mc(10, 0.4, h, 50_000, seed=6)
    assert abs(mean - exact) <= 4 * se


@pytest.mark.parametrize("n", [1, 14, 63, 64, 65, 70])
def test_sample_masks_keep_every_coordinate(n):
    # a per-bit reference from the same generator: coordinate i + 1 is bit i
    bits = np.random.default_rng(7).random((300, n)) < 0.9
    want = [sum(1 << i for i in range(n) if row[i]) for row in bits]
    assert _sample_masks(_uniform_draw(n, 300, 7), 0.9).tolist() == want


def test_subset_expectation_mc_deterministic():
    h = lambda t: float(t % 7)
    a = subset_expectation_mc(6, 0.5, h, 1000, seed=9)
    b = subset_expectation_mc(6, 0.5, h, 1000, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# grid averages against their one-rate oracles, bit for bit
# ---------------------------------------------------------------------------

GRID_RATES = (0.0, 1e-300, 1e-5, 0.1, 0.3, 0.5, 0.3, 0.9, 1.0 - 1e-16, 1.0)


@pytest.mark.parametrize("n", [0, 1, 5, 13, 22, 64, 200])
@pytest.mark.parametrize("seed", range(3))
def test_layer_expectations_match_one_rate_oracle(n, seed):
    rng = np.random.default_rng([n, seed])
    layers = rng.normal(size=n + 1) * np.exp2(rng.integers(-40, 40, size=n + 1))
    got = layer_expectations(GRID_RATES, layers)
    assert got == [layer_expectation(lam, layers) for lam in GRID_RATES]
    assert layer_expectations([], layers) == []


def test_layer_expectations_skip_infinite_layers_of_weight_zero():
    # at rate 0 only the empty set has weight and at rate 1 only the full
    # set; at 1e-300 the weights underflow to 0 from two coordinates on
    layers = np.array([2.0, 1.0, math.inf, math.inf, 3.0])
    rates = (0.0, 1e-300, 1.0, 0.5)
    got = layer_expectations(rates, layers)
    assert got == [2.0, 2.0, 3.0, math.inf] == [layer_expectation(lam, layers) for lam in rates]


def same_bits(a, b):
    return np.array_equal(np.array(a).view(np.uint64), np.array(b).view(np.uint64))


@pytest.mark.parametrize("n", [0, 1, 5, 22, 200])
def test_layer_expectations_are_their_one_rate_calls(n):
    # every value of a grid call is that of the call at its rate alone, bit
    # for bit: with one row of layers for every rate, and with a row per rate
    rng = np.random.default_rng(n)
    layers = rng.normal(size=n + 1) * np.exp2(rng.integers(-40, 40, size=n + 1))
    rows = rng.normal(size=(len(GRID_RATES), n + 1)) * np.exp2(rng.integers(-40, 40, size=(len(GRID_RATES), n + 1)))
    got = layer_expectations(GRID_RATES, layers)
    assert same_bits(got, [layer_expectations([lam], layers)[0] for lam in GRID_RATES])
    got = layer_expectations(GRID_RATES, rows)
    assert same_bits(got, [layer_expectations([lam], row)[0] for lam, row in zip(GRID_RATES, rows)])
    assert same_bits(got, [layer_expectation(lam, row) for lam, row in zip(GRID_RATES, rows)])
    assert layer_expectations([], rows[:0]) == []


# layer rows with infinite or nan layers of nonzero weight; math.fsum raises
# ValueError on the first
NONFINITE_LAYERS = {
    "inf-inf": [1.0, math.inf, -math.inf, 2.0],
    "inf": [1.0, math.inf, 3.0, math.inf],
    "-inf": [-math.inf, 0.0, 1e308, 1e308],
    "nan": [1.0, math.nan, math.inf, 2.0],
}


@pytest.mark.parametrize("case", sorted(NONFINITE_LAYERS))
def test_layer_expectations_nonfinite_rows_take_np_sum(case):
    # such a row gives np.sum of its terms, nan or +-inf, and raises nothing;
    # with one row of layers for every rate, and among finite per-rate rows
    layers = np.array(NONFINITE_LAYERS[case])
    w = size_weights(3, 0.5)
    with np.errstate(invalid="ignore"):
        want = float(np.sum(w * layers))
    assert not math.isfinite(want)
    assert same_bits(layer_expectations([0.5, 0.5], layers), [want, want])
    rows = np.array([[1.0, 2.0, 3.0, 4.0], layers, [0.5, 0.0, 0.0, 0.25]])
    got = layer_expectations([0.5, 0.5, 0.5], rows)
    assert same_bits(got, [1.25, want, 0.09375])
    assert same_bits(got, [layer_expectation(0.5, row) for row in rows])


def test_exact_row_sums_past_the_double_range_take_np_sum():
    # math.fsum raises OverflowError once a partial sum of finite terms passes
    # the double range, even where the exact sum comes back into it; such a
    # row gets np.sum of its terms.  (A layer average cannot get here: its
    # weights sum to at most 1.)
    terms = np.array([
        [1.5e308, 1.5e308, 1.0],
        [1.5e308, 1.5e308, -1.5e308],
        [-1.5e308, -1.5e308, 1.0],
        [1.0, 2.0**-60, -1.0],
    ])
    with np.errstate(over="ignore"):
        want = [float(np.sum(row)) for row in terms[:3]]
    assert want == [math.inf, math.inf, -math.inf]
    assert same_bits(inequalities._exact_row_sums(terms), want + [2.0**-60])


@pytest.mark.parametrize("n", [0, 5, 63, 64, 65, 130])
def test_pooled_draws_hold_each_rates_own_draw(monkeypatch, n):
    # each distinct rate is drawn once, and indexes its own masks, in sample
    # order, in one ascending pool of distinct masks (Python ints past 64)
    rates = (0.3, 0.0, 1.0, 0.3, 0.7)
    real, drawn = inequalities._sample_masks, []
    monkeypatch.setattr(inequalities, "_sample_masks", lambda *args: drawn.append(args[1]) or real(*args))
    pool, draws = _pooled_draws(n, rates, 40, 11)
    assert drawn == [0.3, 0.0, 1.0, 0.7]
    assert pool.tolist() == sorted(set(pool.tolist()))
    for lam, index in zip(rates, draws, strict=True):
        assert pool[index].tolist() == real(_uniform_draw(n, 40, 11), lam).tolist()


@pytest.mark.parametrize("n", [0, 14, 64, 65, 130])
def test_pooled_draws_are_one_draw_per_rate(monkeypatch, n):
    # the grid's one uniform draw gives the pool and indices that a draw of
    # each rate's own from the same seed gives: one _sample_masks call per
    # rate, each on a fresh _uniform_draw
    fresh = [_sample_masks(_uniform_draw(n, 500, 3), lam) for lam in GRID_RATES]
    real, uniforms = inequalities._uniform_draw, []
    monkeypatch.setattr(inequalities, "_uniform_draw", lambda *args: uniforms.append(args) or real(*args))
    pool, draws = _pooled_draws(n, GRID_RATES, 500, 3)
    assert uniforms == [(n, 500, 3)]
    want = inequalities._distinct(np.concatenate(fresh))
    assert pool.dtype == want.dtype and pool.tolist() == want.tolist()
    for masks, index in zip(fresh, draws, strict=True):
        assert index.tolist() == np.searchsorted(want, masks).tolist()


@pytest.mark.parametrize("n", [3, 64, 70])
def test_pooled_draws_give_each_rate_its_one_rate_estimate(n):
    # a grid's estimates, each from the pooled values of its own draws, are
    # subset_expectation_mc's at each rate
    h = lambda t: float(t % 11) - 0.25 * t.bit_count()
    pool, draws = _pooled_draws(n, GRID_RATES, 50, 4)
    values = np.array([h(t) for t in pool.tolist()])
    got = [inequalities._mean_stderr(values[index]) for index in draws]
    assert got == [subset_expectation_mc(n, lam, h, 50, 4) for lam in GRID_RATES]


# ---------------------------------------------------------------------------
# main norm inequality
# ---------------------------------------------------------------------------

def oracle_main_sides(f, q, eps):
    """Both sides by direct convolution, fiber averaging and term-by-term sums."""
    n, vals = f.n, f.values.tolist()
    size = 1 << n
    noisy = []
    for x in range(size):
        acc = 0.0
        for y in range(size):
            d = bin(x ^ y).count("1")
            acc += eps**d * (1 - eps) ** (n - d) * vals[y]
        noisy.append(acc)
    lhs = math.log((sum(v**q for v in noisy) / size) ** (1 / q))
    lam = (1 - 2 * eps) ** r_exponent(q)
    rhs = 0.0
    for t in range(size):
        k = bin(t).count("1")
        w = lam**k * (1 - lam) ** (n - k)
        cond = [
            sum(vals[y] for y in range(size) if (y & t) == (x & t))
            / 2 ** (n - k)
            for x in range(size)
        ]
        rhs += w * math.log((sum(c**q for c in cond) / size) ** (1 / q))
    return lhs, rhs


def test_main_gap_zero_at_zero_noise():
    f = rand_fn(3, 10)
    rep = main_inequality_sweep(f, (2.0,), (0.0,))[0]
    assert rep.gap == 0.0


def test_main_gap_constant_function():
    f = CubeFunction(3, np.full(8, 2.5))
    for eps in (0.0, 0.2, 0.5):
        rep = main_inequality_sweep(f, (1.5,), (eps,))[0]
        assert rep.lhs == pytest.approx(math.log(2.5), abs=1e-12)
        assert abs(rep.gap) <= 1e-12


def test_main_gap_matches_oracle():
    f = rand_fn(3, 12)
    rep = main_inequality_sweep(f, (2.0,), (0.2,))[0]
    lhs, rhs = oracle_main_sides(f, 2.0, 0.2)
    assert rep.lhs == pytest.approx(lhs, abs=1e-10)
    assert rep.rhs == pytest.approx(rhs, abs=1e-10)
    assert rep.gap >= -1e-9


@pytest.mark.parametrize("q", Q_GRID)
def test_main_gap_nonnegative_small_grid(q):
    for seed in range(8):
        f = rand_fn(3, 200 + seed)
        for rep in main_inequality_sweep(f, (q,), np.arange(0, 0.501, 0.05)):
            assert rep.gap >= -1e-9, (q, seed, rep.params)


def test_main_gap_sup_norm_endpoint():
    # the inequality persists at q = inf, where the matched subset density
    # becomes (1 - 2 eps)^(1/(2 ln 2))
    for seed in range(5):
        f = rand_fn(3, 300 + seed)
        for rep in main_inequality_sweep(f, (math.inf,), (0.0, 0.1, 0.3, 0.5)):
            assert rep.gap >= -1e-9


def test_main_gap_scale_invariant():
    f = rand_fn(3, 33)
    a = main_inequality_sweep(f, (2.5,), (0.15,))[0]
    b = main_inequality_sweep(f.scaled(37.0), (2.5,), (0.15,))[0]
    assert a.gap == pytest.approx(b.gap, abs=1e-12)


def test_main_gap_total_noise_exact_equality():
    f = rand_fn(4, 55)
    rep = main_inequality_sweep(f, (3.0,), (0.5,))[0]
    assert rep.gap == 0.0
    assert rep.lhs == pytest.approx(math.log(f.mean()), abs=1e-14)


def test_main_gap_mc_mode_consistent():
    f = rand_fn(3, 71)
    exact = main_inequality_sweep(f, (2.0,), (0.1,))[0]
    mc = main_inequality_sweep(f, (2.0,), (0.1,), mode="mc", samples=40_000, seed=3)[0]
    assert abs(mc.rhs - exact.rhs) <= 4 * mc.params["stderr"]
    assert mc.params["samples"] == 40_000


def test_main_gap_rejects_bad_inputs():
    with pytest.raises(ValueError):
        main_inequality_sweep(CubeFunction(2, [0.0] * 4), (2.0,), (0.1,))[0]
    with pytest.raises(ValueError):
        main_inequality_sweep(CubeFunction(2, [1, -1, 1, 1]), (2.0,), (0.1,))[0]
    with pytest.raises(ValueError):
        main_inequality_sweep(rand_fn(2, 0), (1.0,), (0.1,))[0]


# ---------------------------------------------------------------------------
# noisy entropy
# ---------------------------------------------------------------------------

def test_entropy_gap_total_noise():
    f = rand_fn(3, 14)
    rep = noisy_entropy_sweep(f, (0.5,))[0]
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs >= -1e-12


def test_entropy_gap_constant():
    rep = noisy_entropy_sweep(CubeFunction(2, np.full(4, 3.0)), (0.2,))[0]
    assert abs(rep.lhs) <= 1e-12 and abs(rep.rhs) <= 1e-12


def test_entropy_gap_random_nonnegative():
    for seed in range(6):
        f = rand_fn(3, 400 + seed)
        for eps in (0.05, 0.1, 0.3):
            assert noisy_entropy_sweep(f, (eps,))[0].gap >= -1e-9


def huge_positive():
    """A random_positive draw scaled so that f log2 f overflows at its largest
    entries, though every value of f is a finite double."""
    return corpus.random_positive(6, np.random.default_rng(6)).scaled(2.0**1016)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_entropy_sweep_rejects_an_f_whose_sums_overflow(mode):
    with pytest.raises(ValueError, match=r"sum of g log2 g over a table of the sweep below 2\^1024"):
        noisy_entropy_sweep(huge_positive(), (0.0, 0.1, 0.5), mode=mode, samples=50)


def test_main_sweep_on_a_huge_f_stays_finite_and_holds():
    # the norms scale each table by its max, so nothing overflows
    reps = main_inequality_sweep(huge_positive(), (1.1, 2.0, 8.0, math.inf), (0.0, 0.1, 0.5))
    assert all(math.isfinite(rep.lhs) and math.isfinite(rep.rhs) and rep.holds() for rep in reps)


def test_entropy_gap_is_small_q_limit_of_main():
    # after normalizing E f = 1, both sides of the entropy inequality are the
    # q -> 1 limits of the norm inequality sides divided by (q-1), up to the
    # drift of the subset rate; check agreement at q = 1 + 1e-4
    f = rand_fn(3, 90)
    f = f.scaled(1.0 / f.mean())
    q = 1.0 + 1e-4
    eps = 0.2
    ent = noisy_entropy_sweep(f, (eps,))[0]
    norm = main_inequality_sweep(f, (q,), (eps,))[0]
    factor = q / ((q - 1.0) * LN2)
    assert norm.lhs * factor == pytest.approx(ent.lhs, abs=1e-3)
    assert norm.rhs * factor == pytest.approx(ent.rhs, abs=1e-3)


# ---------------------------------------------------------------------------
# hypercontractive comparator
# ---------------------------------------------------------------------------

def test_hypercontractive_endpoints():
    f = rand_fn(3, 41)
    norm = math.exp(log_lq_norms(f.values, (2.0,))[0])
    assert hypercontractive_sweep(f, (2.0,), (0.0,))[0].rhs == pytest.approx(norm)
    assert hypercontractive_sweep(f, (2.0,), (0.5,))[0].rhs == pytest.approx(f.mean(), abs=1e-13)


def test_hypercontractive_closed_form():
    f = CubeFunction(1, [2.0, 0.0])
    got = hypercontractive_sweep(f, (2.0,), (0.25,))[0].rhs
    assert got == pytest.approx((2.0**1.25 / 2.0) ** (1 / 1.25), abs=1e-13)


def test_hypercontractive_rejects_a_nan_exponent():
    with pytest.raises(ValueError, match="norm inequality needs q > 1, got nan"):
        hypercontractive_sweep(rand_fn(3, 41), (math.nan,), (0.1,))


def test_hypercontractive_gap_nonnegative():
    for seed in range(5):
        f = rand_fn(4, 500 + seed)
        for q in (1.5, 2.0, 4.0):
            for eps in (0.0, 0.1, 0.3, 0.5):
                assert hypercontractive_sweep(f, (q,), (eps,))[0].gap >= -1e-9


# ---------------------------------------------------------------------------
# log-Sobolev form
# ---------------------------------------------------------------------------

def test_log_sobolev_constant_zero_both_sides():
    (rep,) = log_sobolev_sweep(CubeFunction(3, np.full(8, 4.0)), (2.0,))
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.params["equality"] and rep.params["equality_expected"]


def test_log_sobolev_point_indicator_equality():
    vals = np.zeros(8)
    vals[3] = 8.0
    f = CubeFunction(3, vals)
    for rep in log_sobolev_sweep(f, (2.0, 3.0, 4.0)):
        assert abs(rep.gap) <= 1e-9 * max(1.0, abs(rep.lhs))
        assert rep.params["equality"] and rep.params["equality_expected"]


def test_log_sobolev_strict_below_two():
    for seed in range(5):
        f = CubeFunction(3, 0.1 + np.random.default_rng(600 + seed).random(8))
        (rep,) = log_sobolev_sweep(f, (1.5,))
        assert rep.gap > 1e-12
        assert not rep.params["equality"]
        assert not rep.params["equality_expected"]


def test_log_sobolev_nonnegative_random():
    for seed in range(8):
        f = rand_fn(3, 700 + seed)
        assert all(rep.gap >= -1e-9 for rep in log_sobolev_sweep(f, Q_GRID))


def test_log_sobolev_equality_condition_detector():
    # disjoint-support pattern: every edge with unequal values has a zero end
    f = CubeFunction(2, [1.0, 0.0, 0.0, 5.0])
    assert log_sobolev_equality_expected(f, 3.0)
    assert log_sobolev_sweep(f, (3.0,))[0].params["equality"]
    # same function fails the condition below q = 2
    assert not log_sobolev_equality_expected(f, 1.5)
    g = CubeFunction(2, [1.0, 2.0, 3.0, 4.0])
    assert not log_sobolev_equality_expected(g, 3.0)
    assert not log_sobolev_sweep(g, (3.0,))[0].params["equality"]


# ---------------------------------------------------------------------------
# two-point inequality
# ---------------------------------------------------------------------------

def test_two_point_equality_at_one():
    for q in Q_GRID:
        rep = two_point_gap(1.0, q)
        assert rep.gap == 0.0 and rep.params["equality"]


def test_two_point_boundary_equality_above_two():
    for q in (2.0, 3.0, 5.5):
        rep = two_point_gap(math.inf, q)
        assert abs(rep.gap) <= 1e-9
        assert rep.params["equality"]


def test_two_point_boundary_strict_below_two():
    # for g = (0, 2) the claim reduces to q >= 4 - 2^(3-q); the slack has the
    # closed form 2^q (q - 4 + 2^(3-q)) / q
    for q in (1.1, 1.5, 1.9):
        rep = two_point_gap(math.inf, q)
        expected = 2.0**q * (q - 4.0 + 2.0 ** (3.0 - q)) / q
        assert rep.gap == pytest.approx(expected, abs=1e-12)
        assert rep.gap > 0 and not rep.params["equality"]


def test_two_point_grid_nonnegative():
    for t in np.logspace(0, 3, 50):
        for q in Q_GRID:
            assert two_point_gap(float(t), q).gap >= -1e-9


def test_two_point_validates():
    with pytest.raises(ValueError):
        two_point_gap(0.5, 2.0)
    with pytest.raises(ValueError):
        two_point_gap(2.0, 1.0)


# ---------------------------------------------------------------------------
# derivative comparison at zero noise
# ---------------------------------------------------------------------------

def test_derivative_closed_form_small_case():
    # f = 1 + w/2 on {0,1}^2 has E(f,f) = 1 and E f^2 = 5/4, so the log-norm
    # derivative at zero noise is -1/(2 * 5/4) = -0.4
    f = CubeFunction(2, 1.0 + 0.5 * character(2, 0b01).values)
    (rep,) = derivative_sweep(f, (2.0,))
    assert rep.lhs == pytest.approx(-0.4, abs=1e-12)
    assert rep.params["rel_err_lhs"] <= 1e-4
    assert rep.params["rel_err_rhs"] <= 1e-4


def test_derivative_strict_order_random():
    for seed in range(6):
        f = rand_fn(3, 800 + seed)
        for rep in derivative_sweep(f, (1.5, 2.0, 3.0)):
            assert rep.gap > 0.0
            assert rep.params["rel_err_lhs"] <= 1e-4
            assert rep.params["rel_err_rhs"] <= 1e-4


def test_derivative_note_prints_both_errors_in_full():
    # a reader checks each difference against its 1e-4 budget from the note
    # alone: at three digits an error of 1.004e-4 printed as 1.00e-04
    f = corpus.random_positive(4, np.random.default_rng(3))
    for rep in derivative_sweep(f, Q_GRID):
        cells = dict(cell.split("=") for cell in rep.params["note"].split(";"))
        assert {k: float(v) for k, v in cells.items()} == {
            k: rep.params[k] for k in ("rel_err_lhs", "rel_err_rhs")
        }


def test_derivative_rhs_is_coordinate_deficit(monkeypatch):
    # derivative_sweep reads the deficit of its whole q grid off one lattice
    # walk, with the bits of a top-two-layer route at each q alone
    walks = []
    real = inequalities.subset_lattice
    monkeypatch.setattr(inequalities, "subset_lattice", lambda f: walks.append(f) or real(f))
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5, 7):
        f = corpus.random_positive(n, rng)
        want = [-2.0 * r_exponent(q) * coordinate_log_norm_deficit(f, q) for q in Q_GRID]
        walks.clear()
        assert [rep.rhs for rep in derivative_sweep(f, Q_GRID)] == want
        assert len(walks) == 1


# (n, q, derivative rhs, log-Sobolev lhs) of random_positive draws from
# default_rng(23), as the two-layer deficit route gives them with the power
# chains of cube._power (each n = 8, q = 3 value is nearer its 50-digit
# reference than the value ** gave: 7.2e-16 and 4.3e-16 relative, against
# 7.9e-16 and 9.7e-16)
DEFICIT_VALUES = [
    (1, 1.5, "-0x1.02bc1a461235ap-10", "0x1.ec3f2503a151fp-10"),
    (1, 3.0, "-0x1.4abc31c4b04cep-9", "0x1.2c10973827b5ep-8"),
    (4, 1.5, "-0x1.27dd188c6ef25p-2", "0x1.f1533e03026abp-3"),
    (4, 3.0, "-0x1.20825dbe6ded3p-1", "0x1.1dbda49332bd6p-2"),
    (8, 1.5, "-0x1.8e24b3c2f3b6ap-1", "0x1.71630954969fdp-1"),
    (8, 3.0, "-0x1.53e08c6248176p+0", "0x1.96aec8596ddf2p-1"),
]


def test_deficit_values_keep_their_bits():
    rng = np.random.default_rng(23)
    functions = {n: corpus.random_positive(n, rng) for n in (1, 4, 8)}
    for n, q, rhs, bound in DEFICIT_VALUES:
        f = functions[n]
        assert derivative_sweep(f, (q,))[0].rhs == float.fromhex(rhs)
        assert log_sobolev_sweep(f, (q,))[0].lhs == float.fromhex(bound)


def test_derivative_rejects_constant():
    with pytest.raises(ValueError, match="nonconstant"):
        derivative_sweep(CubeFunction(2, np.full(4, 1.0)), (2.0,))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_gap_report_serialization():
    rep = GapReport("main", 1.0, 1.5, {"n": 3, "q": 2.0, "eps_or_lambda": 0.1, "mode": "exact"})
    row = rep.csv_row()
    assert row.split(",")[0] == "main"
    assert len(row.split(",")) == len(CSV_COLUMNS)
    assert rep.row()["gap"] == 0.5
    assert rep.holds() and not GapReport("x", 0.0, -1.0, {}).holds()


def test_cond_exp_log_norm_table_matches_direct():
    f = rand_fn(3, 9)
    table = cond_exp_log_norms(f, 2.0)
    for t in range(8):
        assert table[t] == pytest.approx(
            log_lq_norms(conditional_expectation(f, t).values, (2.0,))[0], abs=1e-14
        )
