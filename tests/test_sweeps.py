"""Property tests: the layer-sum sweeps of the main and entropy inequalities
match brute-force sums over all subsets, a q-grid or noise-grid sweep is its
one-point sweeps end to end, an exact sweep walks the subset lattice
once, a Monte Carlo sweep takes every E(f|T) it draws from one walk, q = 2
reads every norm off one Parseval table, and the row-wise entropy kernel keeps
the bits of a table-by-table loop."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (
    derivative_check,
    entropy,
    expand_to_cube,
    log_sobolev_gap,
    noise_operator,
    point_indicator,
    subset_expectation_exact,
)

from cubenoise import corpus, cube, inequalities
from cubenoise.cli import EPS_GRID, Q_GRID, main
from cubenoise.cube import (
    CubeFunction,
    compact_conditional_expectations,
    conditional_expectation,
    log_lq_norms,
    subset_lattice,
)
from cubenoise.inequalities import (
    GapReport,
    cond_exp_log_norms,
    derivative_sweep,
    hypercontractive_sweep,
    log_sobolev_sweep,
    main_inequality_sweep,
    noisy_entropy_sweep,
    r_exponent,
    subset_expectation_mc,
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
    for eps, rep in zip(eps_grid, main_inequality_sweep(f, (q,), eps_grid)):
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
    """Every field of each report, or the error raised instead."""
    try:
        reps = call()
    except ValueError as err:
        return str(err)
    return [[rep.inequality, rep.lhs, rep.rhs, rep.gap, rep.params] for rep in reps]


@SETTINGS
@given(
    functions(max_n=4),
    Q,
    st.lists(NOISE, min_size=1, max_size=3),
    st.sampled_from(["exact", "mc"]),
    st.integers(0, 99),
)
def test_eps_grid_sweep_is_its_one_eps_sweeps(f, q, eps_grid, mode, seed):
    opts = {"mode": mode, "samples": 50, "seed": seed}
    for sweep in (
        lambda grid: main_inequality_sweep(f, (q,), grid, **opts),
        lambda grid: noisy_entropy_sweep(f, grid, **opts),
    ):
        # assert_equal counts NaN as equal to NaN, as it is the same computation.
        np.testing.assert_equal(
            outcome(lambda: sweep(eps_grid)),
            outcome(lambda: [rep for eps in eps_grid for rep in sweep([eps])]),
        )


@SETTINGS
@given(
    functions(max_n=4),
    st.lists(Q, min_size=1, max_size=4),
    st.lists(NOISE, min_size=1, max_size=3),
    st.sampled_from(["exact", "mc"]),
    st.integers(0, 99),
)
def test_q_grid_sweep_is_its_one_q_sweeps(f, q_grid, eps_grid, mode, seed):
    opts = {"mode": mode, "samples": 50, "seed": seed}
    whole = main_inequality_sweep(f, q_grid, eps_grid, **opts)
    parts = [rep for q in q_grid for rep in main_inequality_sweep(f, (q,), eps_grid, **opts)]
    fields = lambda reps: [[r.inequality, r.lhs, r.rhs, r.gap, r.params] for r in reps]
    np.testing.assert_equal(fields(whole), fields(parts))


def refuse_tables_mask_by_mask(monkeypatch):
    """Make the one-mask routes to E(f|T) raise, in cube and under any name
    inequalities could hold them by."""

    def refused(*args):
        raise AssertionError("a sweep builds no E(f|T) one mask at a time")

    monkeypatch.setattr(cube, "conditional_expectation", refused)
    monkeypatch.setattr(inequalities, "conditional_expectation", refused, raising=False)


@pytest.mark.parametrize("sweep", ["main", "entropy"])
def test_exact_sweep_builds_each_subset_table_once(monkeypatch, sweep):
    walks = []

    def counted(f):
        walks.append([])
        for k, masks, tables in subset_lattice(f):
            walks[-1].extend(masks.tolist())
            yield k, masks, tables

    monkeypatch.setattr(inequalities, "subset_lattice", counted)
    refuse_tables_mask_by_mask(monkeypatch)
    f = CubeFunction(4, np.arange(1.0, 17.0))
    if sweep == "main":
        reps = main_inequality_sweep(f, Q_GRID, EPS_GRID)
        assert len(reps) == len(Q_GRID) * len(EPS_GRID)
    else:
        assert len(noisy_entropy_sweep(f, EPS_GRID)) == len(EPS_GRID)
    assert len(walks) == 1
    assert sorted(walks[0]) == list(range(1 << f.n))


@SETTINGS
@given(
    functions(max_n=4),
    st.lists(st.sampled_from([1.5, 2.0, 8.0, math.inf]), min_size=1, max_size=4),
    st.lists(NOISE, min_size=1, max_size=3),
)
def test_hypercontractive_sweep_is_its_gaps(f, q_grid, eps_grid):
    sweep = hypercontractive_sweep(f, q_grid, eps_grid)
    gaps = [hypercontractive_sweep(f, (q,), (eps,))[0] for q in q_grid for eps in eps_grid]
    fields = lambda reps: [[r.inequality, r.lhs, r.rhs, r.gap, r.params] for r in reps]
    np.testing.assert_equal(fields(sweep), fields(gaps))
    for rep in sweep:
        assert math.isfinite(rep.rhs) and rep.holds()


def test_hypercontractive_sweep_takes_mains_domain():
    # q = 1 has a reduced exponent, but the note's main bound needs q > 1
    f = CubeFunction(2, [1.0, 2.0, 3.0, 4.0])
    for sweep in (main_inequality_sweep, hypercontractive_sweep):
        with pytest.raises(ValueError, match=r"^norm inequality needs q > 1, got 1.0$"):
            sweep(f, (1.5, 1.0), (0.1,))


def draw(n, lam, samples, seed):
    """The masks subset_expectation_mc draws, in sample order."""
    rng = np.random.default_rng(seed)
    bits = rng.random((samples, n)) < lam if n else np.zeros((samples, 0), bool)
    return bits.dot(1 << np.arange(n, dtype=np.int64)) if n else np.zeros(samples, np.int64)


def loop_compact(f, t_mask):
    """E(f|T)'s compact table from its own chain of ascending halvings."""
    v, position = f.values, 0  # position: bit of coordinate i in v
    for i in range(f.n):
        if t_mask >> i & 1:
            position += 1
        else:
            w = v.reshape(-1, 2, 1 << position)
            v = (0.5 * (w[:, 0, :] + w[:, 1, :])).reshape(-1)
    return v


def mc_oracle(inequality, f, q_grid, eps_grid, samples, seed):
    """A Monte Carlo sweep as each (q, eps) point ran it before the points
    pooled their masks: h takes each distinct mask's E(f|T) on its own, except
    at q = 2, where it looks the mask up in the Parseval table."""
    points = [(q, r_exponent(q)) for q in q_grid] if inequality == "main" else [(None, 2.0)]
    parseval = cond_exp_log_norms(f, 2.0)
    out = []
    for j, (q, r) in enumerate(points):
        for eps in eps_grid:
            g = noise_operator(f, eps)
            params = {"n": f.n, "q": q, "eps_or_lambda": eps, "mode": "mc"}
            if inequality == "main":
                if eps == 0.5:
                    value = math.log(f.mean())
                    out.append(GapReport("main", value, value, params))
                    continue
                lhs = float(log_lq_norms(g.values, q_grid)[j])
                if q == 2.0:
                    h = lambda t: float(parseval[t])
                else:
                    h = lambda t: float(log_lq_norms(loop_compact(f, t), (q,))[0])
            else:
                lhs = entropy(g)
                h = lambda t: entropy(expand_to_cube(f.n, t, loop_compact(f, t)))
            rhs, stderr = subset_expectation_mc(f.n, (1.0 - 2.0 * eps) ** r, h, samples, seed)
            params.update(samples=samples, seed=seed, stderr=stderr)
            out.append(GapReport(inequality, lhs, rhs, params))
    return out


def outcomes(call):
    """Every field of every report, or the error raised instead."""
    try:
        reps = call()
    except ValueError as err:
        return str(err)
    return [[r.inequality, r.lhs, r.rhs, r.gap, r.params] for r in reps]


MC_Q = (1.5, 2.0, 8.0, math.inf)
MC_EPS = (0.0, 0.1, 0.3, 0.45, 0.5)


@SETTINGS
@given(functions(), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_mc_sweeps_match_per_mask_oracle(f, samples, seed):
    got = outcomes(lambda: main_inequality_sweep(f, MC_Q, MC_EPS, "mc", samples, seed))
    want = outcomes(lambda: mc_oracle("main", f, MC_Q, MC_EPS, samples, seed))
    if not isinstance(got, str) and not isinstance(want, str):
        # the q = 2 lhs is a layer average of the Parseval table, the
        # oracle's the norm of T_eps f: equal up to rounding
        for g, w in zip(got, want):
            if w[4]["q"] == 2.0:
                assert close(g[1], w[1]) and close(g[3], w[3])
                w[1], w[3] = g[1], g[3]
    np.testing.assert_equal(got, want)
    np.testing.assert_equal(
        outcomes(lambda: noisy_entropy_sweep(f, MC_EPS, "mc", samples, seed)),
        outcomes(lambda: mc_oracle("entropy", f, MC_Q, MC_EPS, samples, seed)),
    )


@pytest.mark.parametrize("batch", [1, 4, 16])
@settings(max_examples=15, deadline=None)
@given(functions(), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_mc_sweeps_through_small_buffers_match_oracle(batch, f, samples, seed):
    # batches this small send tables through reused buffers and alone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inequalities, "_NORM_BATCH", batch)
        got = outcomes(lambda: main_inequality_sweep(f, MC_Q, MC_EPS, "mc", samples, seed))
        got_entropy = outcomes(lambda: noisy_entropy_sweep(f, MC_EPS, "mc", samples, seed))
    want = outcomes(lambda: mc_oracle("main", f, MC_Q, MC_EPS, samples, seed))
    if not isinstance(got, str) and not isinstance(want, str):
        for g, w in zip(got, want):
            if w[4]["q"] == 2.0:  # a layer average of the Parseval table, as above
                assert close(g[1], w[1]) and close(g[3], w[3])
                w[1], w[3] = g[1], g[3]
    np.testing.assert_equal(got, want)
    want_entropy = outcomes(lambda: mc_oracle("entropy", f, MC_Q, MC_EPS, samples, seed))
    np.testing.assert_equal(got_entropy, want_entropy)


@pytest.mark.parametrize("sweep", ["main", "entropy"])
def test_mc_sweep_draws_each_rate_once(monkeypatch, sweep):
    real, drawn = inequalities._sample_masks, []

    def counted(uniforms, lam):
        drawn.append(lam)
        return real(uniforms, lam)

    monkeypatch.setattr(inequalities, "_sample_masks", counted)
    f = CubeFunction(6, np.arange(1.0, 65.0))
    if sweep == "main":
        main_inequality_sweep(f, MC_Q, MC_EPS, "mc", 300, 7)
    else:
        noisy_entropy_sweep(f, MC_EPS, "mc", 300, 7)
    assert drawn and len(drawn) == len(set(drawn))


@pytest.mark.parametrize("sweep", ["main", "entropy"])
def test_mc_sweep_walks_its_pooled_masks_once(monkeypatch, sweep):
    walks = []

    def counted(f, masks):
        walks.append([])
        for t_mask, table in compact_conditional_expectations(f, masks):
            walks[-1].append(t_mask)
            yield t_mask, table

    monkeypatch.setattr(inequalities, "compact_conditional_expectations", counted)
    refuse_tables_mask_by_mask(monkeypatch)
    f = CubeFunction(6, np.arange(1.0, 65.0))
    samples, seed = 300, 7
    if sweep == "main":
        reps = main_inequality_sweep(f, MC_Q, MC_EPS, "mc", samples, seed)
        rates = [subset_rate(q, eps) for q in MC_Q for eps in MC_EPS if eps != 0.5]
    else:
        reps = noisy_entropy_sweep(f, MC_EPS, "mc", samples, seed)
        rates = [(1.0 - 2.0 * eps) ** 2 for eps in MC_EPS]
    assert len(reps) == len(MC_EPS) * (len(MC_Q) if sweep == "main" else 1)
    assert len(walks) == 1
    drawn = {int(t) for lam in rates for t in draw(f.n, lam, samples, seed)}
    assert sorted(walks[0]) == sorted(drawn)


def test_mc_sweep_shares_halvings(monkeypatch):
    halve, calls = cube._halve, []

    def counted(*args):
        calls.append(args[1])
        return halve(*args)

    monkeypatch.setattr(cube, "_halve", counted)
    f = CubeFunction(10, np.random.default_rng(3).random(1 << 10))
    samples, seed, eps_grid = 500, 5, (0.1, 0.45)
    main_inequality_sweep(f, Q_GRID, eps_grid, "mc", samples, seed)
    # each (q, eps) point halving each distinct mask it draws from f on its own
    per_mask = sum(
        f.n - t.bit_count()
        for q in Q_GRID
        for eps in eps_grid
        for t in set(draw(f.n, subset_rate(q, eps), samples, seed).tolist())
    )
    assert 0 < len(calls) < per_mask


@SETTINGS
@given(st.integers(0, 8), RATES, st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_subset_expectation_mc_evaluates_each_distinct_mask_once(n, lam, samples, seed):
    values = np.random.default_rng(seed).normal(size=1 << n)
    seen = []

    def h(t):
        seen.append(t)
        return float(values[t])

    got = subset_expectation_mc(n, lam, h, samples, seed)
    # oracle: the same draw, with h evaluated on every sample in sample order
    masks = draw(n, lam, samples, seed)
    vals = np.array([float(values[int(m)]) for m in masks])
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    assert got == (float(vals.mean()), stderr)
    assert sorted(seen) == sorted(set(masks.tolist()))


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_monte_carlo_needs_two_samples(samples):
    # one draw has standard error 0, so it alone would decide a verdict
    f = CubeFunction(3, np.arange(1.0, 9.0))
    for call in (
        lambda: subset_expectation_mc(3, 0.5, lambda t: 1.0, samples, 0),
        lambda: main_inequality_sweep(f, (1.5, 2.0), (0.1,), "mc", samples, 0),
        lambda: noisy_entropy_sweep(f, (0.1,), "mc", samples, 0),
    ):
        with pytest.raises(ValueError, match="two draws"):
            call()


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_sweeps_reject_underflowing_mean(mode, eps):
    f = CubeFunction(1, [0.0, 5e-324])  # nonzero, but its mean rounds to 0
    assert f.mean() == 0.0
    opts = {"mode": mode, "samples": 50}
    for call in (
        lambda: main_inequality_sweep(f, (2.0,), [eps], **opts),
        lambda: noisy_entropy_sweep(f, [eps], **opts),
    ):
        with pytest.raises(ValueError, match="E f > 0"):
            call()


@SETTINGS
@given(functions(), Q, st.sampled_from([0.0, 0.5]))
def test_main_gap_zero_at_noise_endpoints(f, q, eps):
    rep = main_inequality_sweep(f, (q,), (eps,))[0]
    assert rep.gap == 0.0
    if eps == 0.5:
        assert rep.lhs == rep.rhs == math.log(f.mean())


@SETTINGS
@given(st.integers(0, 6), RATES, st.integers(0, 2**32 - 1))
def test_subset_expectation_exact_matches_brute_force(n, lam, seed):
    values = np.random.default_rng(seed).normal(size=1 << n)
    got = subset_expectation_exact(n, lam, lambda t: float(values[t]))
    assert close(got, brute(n, lam, values))


# ---------------------------------------------------------------------------
# q = 2 by Parseval
# ---------------------------------------------------------------------------

@st.composite
def corpus_functions(draw, max_n=10):
    """A function of one of the corpus families, n <= max_n."""
    kind = draw(st.sampled_from(["nonneg", "positive", "set", "point", "character", "code"]))
    n = draw(st.integers(1 if kind in ("character", "code") else 0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "point":
        return point_indicator(n, int(rng.integers(1 << n)))
    return {
        "nonneg": corpus.random_nonneg,
        "positive": corpus.random_positive,
        "set": corpus.random_set_indicator,
        "character": corpus.shifted_character,
        "code": corpus.random_code_indicator,
    }[kind](n, rng)


@settings(max_examples=30, deadline=None)
@given(corpus_functions(), st.sampled_from([1.0, 1e-300, 1e300]))
def test_parseval_table_is_each_conditional_norm(f, scale):
    # squares of 1e300-scale values overflow, and of 1e-300-scale ones
    # underflow, unless the route scales f first; the absolute floor covers
    # entries within rounding of ln 1 = 0
    f = f.scaled(scale)
    table = cond_exp_log_norms(f, 2.0)
    for t in range(1 << f.n):
        want = log_lq_norms(loop_compact(f, t), (2.0,))[0]
        assert table[t] == pytest.approx(want, rel=1e-14, abs=1e-14)
    assert table[0] == pytest.approx(math.log(f.mean()), rel=1e-14, abs=1e-14)
    assert main_inequality_sweep(f, (2.0,), (0.0,))[0].gap == 0.0


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_q2_sweep_needs_no_lattice_walk_or_noisy_function(monkeypatch, mode):
    def refused(*args):
        raise AssertionError("a q = 2 sweep reads every norm off the Parseval table")

    for name in ("subset_lattice", "compact_conditional_expectations", "noise_blocks"):
        monkeypatch.setattr(cube, name, refused)
        monkeypatch.setattr(inequalities, name, refused)
    monkeypatch.setattr(cube, "wht_forward", refused)
    refuse_tables_mask_by_mask(monkeypatch)
    f = CubeFunction(6, np.arange(1.0, 65.0))
    reps = main_inequality_sweep(f, (2.0,), EPS_GRID, mode, samples=300, seed=7)
    assert len(reps) == len(EPS_GRID)
    assert all(rep.params["mode"] == mode for rep in reps)


@pytest.mark.parametrize("n", range(14, 19))
def test_mc_q2_estimate_within_four_stderr_of_exact(monkeypatch, n):
    # past the lattice's cap, where q = 2 is the only exact route
    monkeypatch.delenv("CUBENOISE_MAX_VERIFY_N", raising=False)
    f = corpus.random_nonneg(n, np.random.default_rng(n))
    eps_grid = (0.05, 0.1, 0.25, 0.45)
    exact = main_inequality_sweep(f, (2.0,), eps_grid)
    mc = main_inequality_sweep(f, (2.0,), eps_grid, "mc", samples=2000, seed=n)
    for e, m in zip(exact, mc):
        assert (e.params["mode"], m.params["mode"]) == ("exact", "mc")
        assert m.lhs == e.lhs
        assert abs(m.rhs - e.rhs) <= 4.0 * m.params["stderr"]


# ---------------------------------------------------------------------------
# the row-wise entropy kernel
# ---------------------------------------------------------------------------

def oracle_entropy(values):
    """Ent of one table as a single 1-D evaluation takes it: E v and the sum
    of v log2 v over the whole table, 0 log2 0 = 0, each one pairwise sum."""
    v = np.asarray(values, dtype=np.float64)
    ef = float(v.mean())
    if ef <= 0.0:
        raise ValueError("entropy requires E f > 0")
    terms = v * np.log2(np.where(v > 0.0, v, 1.0))
    return float(np.sum(terms)) / v.shape[0] - ef * math.log2(ef)


def oracle_entropy_kernel(n):
    """The kernel as a loop: each compact table expanded to the cube on its
    own, then its entropy; the rounding the recorded reference values pin."""
    return lambda batch: np.array(
        [[oracle_entropy(expand_to_cube(n, int(t), g).values)
          for masks, tables in batch for t, g in zip(masks, tables)]]
    )


@st.composite
def zero_heavy_functions(draw, max_n=8):
    """Corpus functions, and random ones with a drawn share of zero values."""
    if draw(st.booleans()):
        return draw(corpus_functions(max_n))
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(1 << n) ** draw(st.sampled_from([1, 8]))
    values[rng.random(1 << n) < draw(st.sampled_from([0.1, 0.5, 0.9]))] = 0.0
    values[rng.integers(1 << n)] = 1.0
    return CubeFunction(n, values)


def assert_entropy_kernel_keeps_the_cube_bits(f, masks, batch, lattice_tables=None):
    """The exact and given-masks routes of the entropy kernel against the
    loop on each expanded table, bit for bit; returns the loop's row."""
    if lattice_tables is None:
        lattice_tables = [loop_compact(f, t) for t in range(1 << f.n)]
    want = oracle_entropy_kernel(f.n)([(range(1 << f.n), lattice_tables)])
    exact = inequalities._conditional_rows(f, inequalities._entropy_kernel(f.n), 1)
    assert np.array_equal(exact.view(np.uint64), want.view(np.uint64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inequalities, "_NORM_BATCH", batch)
        mc = inequalities._conditional_rows(f, inequalities._entropy_kernel(f.n), 1, masks)
    assert np.array_equal(mc.view(np.uint64), want[:, masks].view(np.uint64))
    return want


@settings(max_examples=60, deadline=None)
@given(zero_heavy_functions(), st.data())
def test_entropy_kernel_bit_identical_to_cube_tables(f, data):
    masks = np.array(
        sorted(data.draw(st.sets(st.integers(0, (1 << f.n) - 1), min_size=1, max_size=80)))
    )
    batch = data.draw(st.sampled_from([1, 8, 1 << 12]))
    assert_entropy_kernel_keeps_the_cube_bits(f, masks, batch)


# Past n = 8 the sum tree pairs coordinates 7 and up (cube._pairwise_order),
# which the drawn functions above never reach.
@pytest.mark.parametrize("n", [9, 11, 13])
@pytest.mark.parametrize("family", [corpus.random_nonneg, corpus.random_set_indicator,
                                    corpus.shifted_character])
def test_entropy_kernel_bit_identical_to_cube_tables_past_eight_coordinates(n, family):
    rng = np.random.default_rng(n)
    f = family(n, rng)
    tables = [None] * (1 << n)
    for _, layer, rows in subset_lattice(f):
        for t, g in zip(layer.tolist(), rows):
            tables[t] = g
    masks = np.unique(np.concatenate([rng.integers(0, 1 << n, 300), [0, (1 << n) - 1]]))
    assert_entropy_kernel_keeps_the_cube_bits(f, masks, 1 << 12, tables)


def test_entropy_kernel_expands_no_table_of_a_function_near_the_largest_double(monkeypatch):
    # values past 2^(1000 - n), so that some sums overflow: the replay still
    # takes every table, and gives the oracle's inf and nan as it comes to them
    def refused(*args):
        raise AssertionError("a table was laid out on the cube")

    monkeypatch.setattr(cube, "conditional_expectation", refused)
    monkeypatch.setattr(inequalities, "conditional_expectation", refused, raising=False)
    seen = set()
    for exponent in (995, 1010, 1016):
        f = corpus.random_positive(9, np.random.default_rng(9)).scaled(2.0**exponent)
        with np.errstate(over="ignore", invalid="ignore"):
            want = assert_entropy_kernel_keeps_the_cube_bits(f, np.arange(0, 1 << 9, 7), 1 << 12)
        seen |= {"nan" if math.isnan(x) else "inf" if math.isinf(x) else "finite" for x in want[0].tolist()}
    assert seen == {"finite", "inf", "nan"}


def test_entropy_kernel_rejects_an_underflowing_mean():
    # E f = 5e-324 > 0, but the halvings round the constant E(f|{}) to 0
    f = CubeFunction(2, [5e-324, 5e-324, 5e-324, 0.0])
    assert f.mean() > 0.0
    with pytest.raises(ValueError, match="E f > 0"):
        inequalities._conditional_rows(f, inequalities._entropy_kernel(f.n), 1)
    with pytest.raises(ValueError, match="E f > 0"):
        cube.entropies(np.array([[1.0, 2.0], [5e-324, 0.0]]))


def test_entropies_rows_are_entropy():
    rng = np.random.default_rng(11)
    rows = rng.random((9, 64)) ** 4
    rows[2, ::3] = 0.0
    rows[5] = 0.0
    rows[5, 7] = 2.0
    got = cube.entropies(rows)
    for i, row in enumerate(rows):
        assert got[i] == entropy(CubeFunction(6, row)) == oracle_entropy(row)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One entropy kernel call's traced peak per compact value of its batch
# (bytes).  Over every batch of the lattice walks below the most measured is
# 85.0 (numpy 2.4, x86-64), on batches of a few thousand values; a long
# layer's batch goes in calls of rows and takes less a value.  Laying a
# table out on the cube would take 8 bytes for each of its 2^n points.
ENTROPY_KERNEL_BYTES_PER_VALUE = 96


def test_entropy_kernel_peak_memory_per_value():
    for n, family in itertools.product((9, 11, 13), (corpus.random_nonneg, corpus.random_set_indicator)):
        f = family(n, np.random.default_rng(n))
        kernel = inequalities._entropy_kernel(n)
        for batch in inequalities._batches((layer, tables) for _, layer, tables in subset_lattice(f)):
            kernel(batch)  # warm caches that would count towards the first peak
            values = sum(tables.size for _, tables in batch)
            assert traced_peak(lambda: kernel(batch)) <= ENTROPY_KERNEL_BYTES_PER_VALUE * values, (n, values)


# One cli.main call's traced peak when each T_eps f took a transform pair of
# its own, one at a time (MiB): the noise blocks and the norm passes over a q
# grid are sized to stay within them.
LARGE_MC_REPORTS = (
    ("verify --target main --n 18 --fuzz 1 --mode mc --samples 100 --q 1.5,3", 15.2),
    ("verify --target hypercontractive --n 16 --fuzz 1 --mode mc --samples 100", 8.8),
    ("verify --target entropy --n 16 --fuzz 1 --mode mc --samples 100", 4.0),
)


@pytest.mark.parametrize("argv,bound_mib", LARGE_MC_REPORTS)
def test_large_mc_report_peak_memory_within_the_one_eps_at_a_time_route(capsys, argv, bound_mib):
    assert traced_peak(lambda: main(argv.split())) <= bound_mib * 2**20
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# derivative and log-Sobolev sweeps
# ---------------------------------------------------------------------------

FINITE_Q = st.one_of(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]), st.floats(1.01, 16.0))


@SETTINGS
@given(corpus_functions(max_n=8), st.lists(FINITE_Q, max_size=3).flatmap(
    lambda extra: st.permutations([1.1, 8.0, *extra])))
def test_zero_noise_sweeps_match_their_one_q_oracles(f, q_grid):
    # every field, the derivative's differences too: the sweep's T_h f and
    # T_2h f share one transform, the oracle's take one each
    fields = lambda reps: [[r.inequality, r.lhs, r.rhs, r.gap, r.params] for r in reps]
    assert fields(log_sobolev_sweep(f, q_grid)) == fields(log_sobolev_gap(f, q) for q in q_grid)
    if f.is_constant():
        with pytest.raises(ValueError, match="nonconstant"):
            derivative_sweep(f, q_grid)
        return
    assert fields(derivative_sweep(f, q_grid)) == fields(derivative_check(f, q) for q in q_grid)
