"""Property tests: every quantity computed from the (size, deficiency)
histogram matches brute force over all subsets, and the syndrome-space noisy
indicator and its cube-order sums match the noise operator and numpy's sum on
the whole cube, bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PETERSEN, random_multigraph_with_loops
from references import (
    code_of_dimension,
    connected_components,
    cube_f_value,
    deficiency_inequality_gap,
    deficiency_mean,
    entropy,
    f_value,
    graph_inequality_gap,
    log2_of_one_plus,
    matroid_rank,
    mean_deficiency,
    noise_operator,
    plain_zeta_histogram,
    plain_zeta_table,
    tail_bound_check,
    tutte_identity_check,
)

from cubenoise.codes import (
    LinearCode,
    reed_muller,
    _cube_sums,
    _noisy_rows,
    _subspace_classes,
    _pivot_columns,
    deficiency_expectation,
    deficiency_table,
    f_sweep,
    gf2_rank,
    gf2_rref,
    rank_of_columns,
    scaled_indicator,
)
from cubenoise.inequalities import noise_rate, subset_expectation_mc
from cubenoise.matroids import (
    BinaryMatroid,
    Graph,
    deficiency_sweep,
    graph_sweep,
    mu_curve,
    subset_rate_for,
    tail_sweep,
    tutte_polynomial,
    tutte_sweep,
)

RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
INNER_RATES = st.floats(0.01, 0.99)
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def matroids(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n))
    return BinaryMatroid(n, tuple(rows))


@st.composite
def graphs(draw):
    vertices = draw(st.integers(1, 6))
    vertex = st.integers(0, vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=10))
    return Graph(vertices, tuple(edges))


@st.composite
def codes(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=n))
    independent = []
    for row in rows:
        if gf2_rank(independent + [row]) > len(independent):
            independent.append(row)
    return LinearCode(n, tuple(independent))


def weight(n, lam, size):
    return lam**size * (1.0 - lam) ** (n - size)


def expect(n, lam, values):
    """Sum over all masks S of lam^|S| (1-lam)^(n-|S|) values[S]."""
    return math.fsum(weight(n, lam, s.bit_count()) * v for s, v in enumerate(values))


def deficiencies(m):
    return [s.bit_count() - matroid_rank(m, s) for s in range(1 << m.n)]


def brute_histogram(n, width, defs):
    """N[k, d] counted mask by mask from the deficiency d of every mask."""
    brute = np.zeros((n + 1, width), dtype=np.int64)
    for s, d in enumerate(defs):
        brute[s.bit_count(), d] += 1
    return brute


def table_histogram(code):
    """N[k, d] from the per-mask deficiency_table oracle: one bincount of
    (n - k + 1) |T| + d(T) over the masks."""
    n, width = code.n, code.n - code.k + 1
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)
    cells = sizes * width + deficiency_table(code)
    return np.bincount(cells, minlength=(n + 1) * width).reshape(n + 1, width)


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@SETTINGS
@given(matroids())
def test_histogram_counts_subsets(m):
    hist = m.row_space_code.histogram
    brute = brute_histogram(m.n, hist.shape[1], deficiencies(m))
    assert np.array_equal(hist, brute)
    assert np.array_equal(m.row_space_code.histogram, brute)


def count_dtype(code):
    """The narrowest little-endian unsigned dtype of at least n - k bits, in
    which the deficiency table counts 2^d and then holds d."""
    return np.dtype(f"<u{next(size for size in (1, 2, 4) if code.n - code.k <= 8 * size)}")


# deficiency tables count 2^d in the narrowest unsigned dtype of at least
# n - k bits: codes on both sides of the uint8/uint16 and uint16/uint32
# switches, with k = 0 (d(T) = |T|, the largest counts) among them
@pytest.mark.parametrize(
    "n,k", [(1, 0), (8, 0), (9, 0), (16, 0), (17, 0), (12, 4), (12, 3), (18, 2), (18, 1)]
)
def test_deficiency_table_and_histogram_at_count_width_edges(n, k):
    code = code_of_dimension(n, k, 40 * n + k)
    table = deficiency_table(code)
    assert table.dtype == count_dtype(code)
    full = (1 << n) - 1
    masks = np.random.default_rng(n).integers(0, 1 << n, 2000)
    for t in (0, full, *map(int, masks)):
        assert table[t] == t.bit_count() - rank_of_columns(code, t)
    assert table[full] == n - k
    defs = [s.bit_count() - rank_of_columns(code, s) for s in range(1 << n)]
    assert np.array_equal(code.histogram, brute_histogram(n, n - k + 1, defs))
    assert np.array_equal(code.histogram, table_histogram(code))


def check_table_and_histogram(code):
    """The table and the histogram against brute-force ranks up to n = 12,
    against the plain-zeta oracle past that."""
    n = code.n
    if n <= 12:
        defs = np.array([t.bit_count() - rank_of_columns(code, t) for t in range(1 << n)])
        want = brute_histogram(n, n - code.k + 1, defs)
    else:
        defs, want = plain_zeta_table(code), plain_zeta_histogram(code)
    table = deficiency_table(code)
    assert table.dtype == count_dtype(code)
    assert np.array_equal(table, defs)
    assert np.array_equal(code.histogram, want)
    assert np.array_equal(code.histogram, table_histogram(code))


# n - k = 8, 9, 16, 17 are the uint8/uint16/uint32 count edges of the table.  The histogram projects the
# side of larger dimension onto min(4, its dimension) low coordinates:
# (1, 1) and (2, 0) project every coordinate, (3, 1) and (19, 2) reflect the
# dual's histogram, and (16, 8) is the first k = n - k past the small sizes
@pytest.mark.parametrize("n,k", [
    (8, 0), (9, 0), (16, 0), (17, 0), (11, 3), (12, 3), (19, 3), (20, 3),
    (14, 6), (15, 6), (15, 7), (16, 7), (16, 8), (17, 8), (17, 9), (18, 9),
    (1, 1), (2, 0), (3, 1), (13, 5), (19, 2),
])
def test_relabelled_table_and_histogram_match_the_oracles(n, k):
    check_table_and_histogram(code_of_dimension(n, k, 50 * n + k))


# numpy 2.0 casts bincount's input to intp only where that is safe, so
# uint64 keys would raise there
@pytest.mark.parametrize("n,k", [(10, 5), (12, 3), (17, 0)])
def test_histogram_bincount_keys_cast_safely_to_intp(n, k, monkeypatch):
    code = code_of_dimension(n, k, 60 * n + k)
    want = plain_zeta_histogram(code)
    bincount = np.bincount

    def strict(keys, *args, **kwargs):
        assert np.can_cast(keys.dtype, np.intp, "safe"), keys.dtype
        return bincount(keys, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", strict)
    assert np.array_equal(code.histogram, want)


def test_histogram_of_a_20_10_code_peaks_below_2_5_mib():
    # 13 bytes for each of the 2^16 high masks: 0.82 MiB measured; the 2^20
    # deficiency table it replaced peaked at 2.38 MiB
    rng = np.random.default_rng(20)
    code = LinearCode(20, tuple(gf2_rref((int(r) for r in rng.integers(0, 1 << 20, 10)), 20)[1]))
    assert code.k == 10
    tracemalloc.start()
    try:
        code.histogram
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("n,k", [(12, 5), (16, 9)])
def test_code_whose_first_seven_columns_are_dependent(n, k):
    # columns 0-6 are zero or copies of column 7, so the histogram's pivot
    # columns come from past them
    rng = np.random.default_rng(n)
    rows = []
    while len(rows) < k:
        row = int(rng.integers(0, 1 << (n - 7))) << 7
        row |= 0b1011010 if row >> 7 & 1 else 0
        if gf2_rank(rows + [row]) > len(rows):
            rows.append(row)
    code = LinearCode(n, tuple(rows))
    assert rank_of_columns(code, 0b1111111) <= 1
    assert sum(c < 7 for c in _pivot_columns(code, 4)) <= 1
    check_table_and_histogram(code)


@pytest.mark.parametrize("n,rank", [(12, 8), (14, 3)])
def test_matroid_with_dependent_rows_and_zero_columns(n, rank):
    rng = np.random.default_rng(n + rank)
    zero = 0b1001 << (n // 2)  # two loops
    rows = [int(r) & ~zero for r in rng.integers(0, 1 << n, rank)]
    m = BinaryMatroid(n, tuple(rows + [rows[0] ^ rows[1], rows[2], 0]))
    assert m.k == gf2_rank(rows) and len(m.rows) > m.k
    check_table_and_histogram(m.row_space_code)
    defs = deficiencies(m)
    assert np.array_equal(m.row_space_code.histogram, brute_histogram(n, n - m.k + 1, defs))


# every dimension at every length up to 12: the code itself is projected
# while k >= n - k (k = n - k among them at even n), its dual below
@pytest.mark.parametrize("n", range(1, 13))
def test_histogram_at_every_dimension_matches_the_oracles(n):
    rng = np.random.default_rng(70 + n)
    for k in range(n + 1):
        code = random_code(n, k, rng)
        defs = [t.bit_count() - rank_of_columns(code, t) for t in range(1 << n)]
        assert np.array_equal(code.histogram, brute_histogram(n, n - k + 1, defs)), (n, k)
        assert np.array_equal(code.histogram, table_histogram(code)), (n, k)


@pytest.mark.parametrize("seed", range(12))
def test_graph_histogram_with_loops_and_parallel_edges_matches_union_find(seed):
    # d(S) = |S| + c(S) - |V| by union-find, on 4 to 14 edges
    g = random_multigraph_with_loops(seed, vertices=3 + seed % 4, edges=4 + seed)
    n = len(g.edges)
    defs = [s.bit_count() + connected_components(g, s) - g.vertex_count for s in range(1 << n)]
    code = g.matroid.row_space_code
    assert np.array_equal(code.histogram, brute_histogram(n, n - code.k + 1, defs))
    assert np.array_equal(code.histogram, table_histogram(code))


def subspace_bit_sets(bits):
    """Every subspace of F_2^bits as the bit set of its vectors, by closing
    each subset of the vectors under addition."""
    spaces = set()
    for chosen in range(1 << (1 << bits)):
        members = {v for v in range(1 << bits) if chosen >> v & 1}
        if 0 in members and all(u ^ v in members for u in members for v in members):
            spaces.add(chosen)
    return spaces


@pytest.mark.parametrize("bits,count", [(0, 1), (1, 2), (2, 5), (3, 16), (4, 67)])
def test_subspace_classes_find_every_subspace_and_count_its_table(bits, count):
    # 1, 2, 5, 16 and 67 subspaces of F_2^0 to F_2^4; each class table counts,
    # over the 2^bits coordinate sets L, |L| against dim(P ∩ F_2^L)
    classes, tables = _subspace_classes(bits)
    spaces = subspace_bit_sets(bits) if bits < 4 else {s for s in range(1 << 16) if classes[s] < len(tables)}
    assert len(spaces) == count
    assert sorted(np.flatnonzero(classes < len(tables)).tolist()) == sorted(spaces)
    for space in spaces:
        direct = np.zeros((bits + 1, bits + 1), dtype=np.int64)
        for sets in range(1 << bits):
            inside = [v for v in range(1 << bits) if space >> v & 1 and v & ~sets == 0]
            direct[sets.bit_count(), len(inside).bit_length() - 1] += 1
        assert np.array_equal(tables[classes[space]], direct), bin(space)
    assert len({t.tobytes() for t in tables}) == len(tables)


def test_subspace_classes_at_four_bits_are_exactly_the_closed_bit_sets():
    # a bit set holds a subspace when it holds 0 and the sum of any two of
    # its vectors: checked on all 2^16 bit sets at once
    sets = np.arange(1 << 16)
    closed = (sets & 1) == 1
    for u in range(16):
        for v in range(u + 1, 16):
            both = (sets >> u & 1) & (sets >> v & 1) == 1
            closed &= ~both | (sets >> (u ^ v) & 1 == 1)
    classes, tables = _subspace_classes(4)
    assert np.array_equal(classes < len(tables), closed)
    assert (len(tables), int(closed.sum())) == (16, 67)


@SETTINGS
@given(matroids(), RATES)
def test_mgf_and_mean_deficiency(m, p):
    defs = deficiencies(m)
    t = subset_rate_for(p)
    (rep,) = deficiency_sweep(m, [p])
    assert close(rep.lhs, math.log2(expect(m.n, p, [2.0**d for d in defs])))
    assert close(rep.rhs, expect(m.n, t, defs))
    ((mean, _),) = deficiency_expectation(m.row_space_code, [p])
    assert close(mean, expect(m.n, p, defs))
    ((_, mu),) = mu_curve(m, [p])
    assert close(mu, expect(m.n, p, defs))


@SETTINGS
@given(matroids(), INNER_RATES, st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_tail_and_bounded_difference(m, p, delta):
    defs = deficiencies(m)
    t = subset_rate_for(p)
    (rep,) = tail_sweep(m, [p], [delta])
    threshold = rep.params["threshold"]
    assert close(threshold, expect(m.n, t, defs) + delta)
    assert close(rep.lhs, expect(m.n, p, [float(d >= threshold) for d in defs]))
    mu_p = expect(m.n, p, defs)
    want = math.exp(-2.0 * ((t - p) * mu_p + p * delta) ** 2 / (p**2 * m.n))
    assert close(float(rep.params["note"].removeprefix("bounded_diff=")), want)


@SETTINGS
@given(matroids(), INNER_RATES)
def test_tutte_identity_sides(m, p):
    defs = deficiencies(m)
    (rep,) = tutte_sweep(m, [p])
    assert close(2.0**rep.lhs, expect(m.n, p, [2.0**d for d in defs]))
    assert close(rep.rhs, expect(m.n, subset_rate_for(p), defs))


@SETTINGS
@given(matroids())
def test_tutte_coefficients(m):
    # T(x, y) = sum over S of (x-1)^(r - r(S)) (y-1)^(|S| - r(S)); its values
    # on the grid {0..r} x {0..n-r} fix every coefficient
    r = m.k
    terms = [(r - matroid_rank(m, s), d) for s, d in enumerate(deficiencies(m))]
    poly = tutte_polynomial(m)
    for x in range(r + 1):
        for y in range(m.n - r + 1):
            brute = sum((x - 1) ** a * (y - 1) ** b for a, b in terms)
            assert poly.evaluate(x, y) == brute


@SETTINGS
@given(graphs(), RATES)
def test_graph_gap_matches_union_find(g, p):
    n = len(g.edges)
    comps = [connected_components(g, s) for s in range(1 << n)]
    t = subset_rate_for(p)
    (rep,) = graph_sweep(g, deficiency_sweep(g.matroid, [p]))
    lhs = math.log2(expect(n, p, [2.0 ** (s.bit_count() + c) for s, c in enumerate(comps)]))
    assert close(rep.lhs, lhs)
    assert close(rep.rhs, t * n + expect(n, t, comps))


# Monte Carlo: each estimate reads the (size, deficiency) cell of every drawn
# mask, so it equals subset_expectation_mc over a per-mask rank computation
MC_SAMPLES = 300
SEEDS = st.integers(0, 2**31 - 2)


@SETTINGS
@given(codes(), RATES, SEEDS, st.sampled_from(["default", "row", "table"]))
def test_mc_deficiency_expectation_is_per_mask_oracle(code, lam, seed, kind):
    width = code.n - code.k + 1
    values = {
        "default": None,
        "row": np.exp2(np.arange(width)),
        "table": np.random.default_rng(seed).random((code.n + 1, width)),
    }[kind]
    table = np.broadcast_to(np.arange(width) if values is None else values, (code.n + 1, width))

    def h(t):
        size = t.bit_count()
        return float(table[size, size - rank_of_columns(code, t)])

    want = subset_expectation_mc(code.n, lam, h, MC_SAMPLES, seed)
    assert deficiency_expectation(code, [lam], values, "mc", MC_SAMPLES, seed) == [want]


@SETTINGS
@given(codes(), st.lists(RATES, max_size=6), SEEDS, st.sampled_from(["default", "row", "table"]))
def test_deficiency_expectation_grid_is_per_rate_oracle(code, rates, seed, kind):
    # both modes, each rate bit for bit its one-rate reference: the exact
    # histogram reduction at that rate alone, and subset_expectation_mc of
    # each drawn mask's cell
    rates = [0.0, 1.0, *rates, *rates[:2]]
    width = code.n - code.k + 1
    values = {
        "default": None,
        "row": np.exp2(np.arange(width)),
        "table": np.random.default_rng(seed).random((code.n + 1, width)),
    }[kind]
    for mode in ("exact", "mc"):
        got = deficiency_expectation(code, rates, values, mode, MC_SAMPLES, seed)
        assert got == [deficiency_mean(code, lam, values, mode, MC_SAMPLES, seed) for lam in rates]


@SETTINGS
@given(codes(), st.lists(RATES, max_size=6), SEEDS, st.sampled_from(["row", "table"]))
def test_deficiency_expectation_per_rate_values_are_one_rate_calls(code, rates, seed, kind):
    # values with a leading rate axis, a row or a whole table per rate (the
    # tail indicators are rows): each rate's mean, in both modes, is bit for
    # bit its one-rate reference with its own values
    rates = [0.0, 1.0, *rates, *rates[:2]]
    width = code.n - code.k + 1
    rows = code.n + 1 if kind == "table" else 1
    values = np.random.default_rng(seed).random((len(rates), rows, width))
    for mode in ("exact", "mc"):
        got = deficiency_expectation(code, rates, values, mode, MC_SAMPLES, seed)
        want = [deficiency_mean(code, lam, table, mode, MC_SAMPLES, seed) for lam, table in zip(rates, values)]
        assert got == want


@pytest.mark.parametrize("code", [reed_muller(1, 7), LinearCode(70, ((1 << 70) - 1, 0b1011 << 60, 0b111))])
def test_mc_deficiency_expectation_grid_past_64_coordinates(code):
    rates = (0.0, 0.5, 0.9, 1.0, 0.5)
    got = deficiency_expectation(code, rates, None, "mc", 60, 8)
    assert got == [deficiency_mean(code, lam, None, "mc", 60, 8) for lam in rates]
    assert got[3] == (code.n - code.k, 0.0)


@SETTINGS
@given(matroids(), RATES, SEEDS)
def test_mc_matroid_gap_is_per_mask_oracle(m, p, seed):
    t = subset_rate_for(p)
    h_excess = lambda s: 2.0 ** (s.bit_count() - matroid_rank(m, s)) - 1.0
    h_def = lambda s: float(s.bit_count() - matroid_rank(m, s))
    excess, _ = subset_expectation_mc(m.n, p, h_excess, MC_SAMPLES, seed)
    rhs, stderr = subset_expectation_mc(m.n, t, h_def, MC_SAMPLES, seed + 1)
    (rep,) = deficiency_sweep(m, [p], mode="mc", samples=MC_SAMPLES, seed=seed)
    assert (rep.lhs, rep.rhs, rep.params["stderr"]) == (log2_of_one_plus(excess), rhs, stderr)


@SETTINGS
@given(graphs(), RATES, SEEDS)
def test_mc_graph_gap_is_union_find_oracle(g, p, seed):
    # the graph row is its deficiency row plus |V|, with d = |S| + c(S) - |V|
    # counted by union-find on every drawn mask
    n, t, v = len(g.edges), subset_rate_for(p), g.vertex_count
    d = lambda s: s.bit_count() + connected_components(g, s) - v
    excess, _ = subset_expectation_mc(n, p, lambda s: 2.0 ** d(s) - 1.0, MC_SAMPLES, seed)
    mean_d, stderr = subset_expectation_mc(n, t, lambda s: float(d(s)), MC_SAMPLES, seed + 1)
    (rep,) = graph_sweep(g, deficiency_sweep(g.matroid, [p], mode="mc", samples=MC_SAMPLES, seed=seed))
    assert (rep.lhs, rep.rhs, rep.params["stderr"]) == (v + log2_of_one_plus(excess), v + mean_d, stderr)


# Each sweep against its one-p oracle.  The Tutte sweep folds the prefactors
# into the terms and the tail sweep writes the comparator through
# y = (t - p) mu / p + delta, so those values move in the last bits: against
# exact rationals, the oracle's unfolded Tutte forms err by up to 1.3e-15
# relative and the folded ones by 0.9e-15, and log2 of the first turns that
# into an absolute change of the lhs; the comparator exp(-z) changes by z
# times the change of its exponent, so the exponents are compared.  The
# oracles' powers of 1/p overflow at tiny p (the sweeps' edge tests are in
# test_matroids.py), so the drawn p stay at or above 1e-5.
P_GRIDS = st.lists(st.floats(1e-5, 1.0), max_size=3).flatmap(
    lambda extra: st.permutations([0.0, 1.0, 1e-5, *extra])
)
DELTA_GRIDS = st.lists(st.floats(0.0, 8.0), max_size=2).flatmap(
    lambda extra: st.permutations([0.0, math.inf, *extra])
)
TUTTE_TOL = 4e-15


def near(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fields(reps):
    return [[r.inequality, r.lhs, r.rhs, r.gap, r.params] for r in reps]


def without(rep, *keys):
    return [rep.inequality, {k: v for k, v in rep.params.items() if k not in keys}]


@SETTINGS
@given(st.data(), P_GRIDS, DELTA_GRIDS, st.sampled_from(["exact", "mc"]), SEEDS)
def test_matroid_sweeps_match_their_one_p_oracles(matroid_corpus, data, p_grid, delta_grid, mode, seed):
    graphs = st.one_of(st.just(PETERSEN), st.integers(0, 99).map(random_multigraph_with_loops))
    g = data.draw(st.one_of(st.none(), graphs))
    m = data.draw(st.sampled_from([m for _, m in matroid_corpus])) if g is None else g.matroid
    sampling = {"mode": mode, "samples": MC_SAMPLES, "seed": seed}

    gaps = deficiency_sweep(m, p_grid, **sampling)
    assert fields(gaps) == fields(deficiency_inequality_gap(m, p, **sampling) for p in p_grid)
    if g is not None:
        assert fields(graph_sweep(g, gaps)) == fields(
            graph_inequality_gap(g, p, **sampling) for p in p_grid
        )

    tuttes = tutte_sweep(m, p_grid)
    oracle = [tutte_identity_check(m, p) for p in p_grid if 0.0 < p < 1.0]
    assert [without(r, "mgf_residual", "deficiency_residual", "note") for r in tuttes] == [
        without(r, "mgf_residual", "deficiency_residual", "note") for r in oracle
    ]
    for a, b in zip(tuttes, oracle):
        assert near(a.lhs, b.lhs, TUTTE_TOL) and near(a.rhs, b.rhs, TUTTE_TOL), (a.params, b.params)
        assert near(a.gap, b.gap, TUTTE_TOL * max(1.0, abs(a.lhs), abs(a.rhs)))
        for key in ("mgf_residual", "deficiency_residual"):
            assert abs(a.params[key] - b.params[key]) <= TUTTE_TOL

    tails = tail_sweep(m, p_grid, delta_grid)
    oracle = [tail_bound_check(m, p, delta) for p in p_grid if p > 0.0 for delta in delta_grid]
    assert [[r.lhs, r.rhs, r.gap, *without(r, "note")] for r in tails] == [
        [r.lhs, r.rhs, r.gap, *without(r, "note")] for r in oracle
    ]
    for a, b in zip(tails, oracle):
        got, want = (float(r.params["note"].removeprefix("bounded_diff=")) for r in (a, b))
        assert got == want or near(math.log(got), math.log(want), 1e-15), (a.params, b.params)

    grid = [*np.linspace(0.0, 1.0, 101), *p_grid]
    assert mu_curve(m, grid) == [(float(p), mean_deficiency(m, float(p))) for p in grid]


LOOPY = Graph(3, ((0, 1), (1, 1)))


@pytest.mark.parametrize(
    "entry",
    [
        lambda mode: deficiency_expectation(LinearCode(3, (0b011,)), [0.5], mode=mode),
        lambda mode: deficiency_sweep(BinaryMatroid(3, (0b011, 0b011)), [0.5], mode=mode),
        lambda mode: graph_sweep(LOOPY, deficiency_sweep(LOOPY.matroid, [0.5], mode=mode)),
    ],
)
def test_unknown_mode_raises_at_every_entry(entry):
    with pytest.raises(ValueError, match="unknown mode 'sampled'"):
        entry("sampled")


def noise_for(q, lam):
    if q == 1.0:
        return (1.0 - math.sqrt(lam)) / 2.0
    if q == math.inf:
        return (1.0 - lam ** (2.0 * math.log(2.0))) / 2.0
    return noise_rate(q, lam)


def cube_labels(code):
    """The label of every cube point, in index order."""
    out = np.zeros(1 << code.n, dtype=np.intp)
    for i, label in enumerate(code.syndrome_layout.labels):
        out[1 << i : 2 << i] = out[: 1 << i] ^ label
    return out


@SETTINGS
@given(codes(), RATES, st.sampled_from([1.0, 1.5, 2.0, math.inf]))
def test_syndrome_route_matches_cube(code, lam, q):
    eps = noise_for(q, lam)
    direct = noise_operator(scaled_indicator(code), eps)
    (noisy,) = _noisy_rows(code, [eps])
    labels = cube_labels(code)
    # the label of x names its syndrome, and T_eps f there is the cube's at x
    dual = code.dual.generator
    for x in range(1 << code.n):
        s = sum(((h & x).bit_count() & 1) << j for j, h in enumerate(dual))
        assert code.syndrome_layout.syndromes[labels[x]] == s
    assert np.array_equal(noisy[labels], direct.values)
    if q == 1.0:
        want = entropy(direct)
    elif q == math.inf:
        want = math.log2(float(direct.values.max()))
    else:
        want = math.log2(float(np.mean(np.maximum(direct.values, 0.0) ** q))) / (q - 1.0)
    (row,) = f_sweep(code, [lam], [q])
    got = {2.0: row.identities.moment, math.inf: row.identities.sup}.get(q, row.values[0])
    assert got == want


def test_syndrome_route_extreme_dimensions():
    full = LinearCode(4, (1, 2, 4, 8))  # k = n: one syndrome, T_eps f = 1
    assert _noisy_rows(full, [0.3]).tolist() == [[1.0]]
    zero = LinearCode(4, ())  # k = 0: the syndrome is x itself
    for eps, noisy in zip((0.0, 0.2, 0.5), _noisy_rows(zero, (0.0, 0.2, 0.5))):
        direct = noise_operator(scaled_indicator(zero), eps).values
        assert np.array_equal(noisy[cube_labels(zero)], direct)


@settings(max_examples=60, deadline=None)
@given(codes(max_n=14), st.integers(0, 2**32 - 1))
def test_cube_sums_are_numpys_sums(code, seed):
    # rows of mixed signs and magnitudes: any other order of the adds would
    # round differently somewhere
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, 1 << (code.n - code.k))) * np.exp2(rng.integers(-30, 30, (3, 1)))
    want = [np.add.reduce(row[cube_labels(code)]) for row in rows]
    assert _cube_sums(rows, code.syndrome_layout.labels).tolist() == want


def random_code(n, k, rng):
    while True:
        basis = gf2_rref((int(r) for r in rng.integers(0, 1 << n, k)), n)[1]
        if len(basis) == k:
            return LinearCode(n, tuple(basis))


SWEEP_Q = (1.0, 1.5, 2.0, 3.0, math.inf)


@pytest.mark.parametrize("n", range(1, 21))
def test_f_sweep_matches_the_cube_route_bit_for_bit(n):
    # k = 0, k = n and a random k at every n from 1 to 20 (below 3 and 7
    # coordinates numpy's sum takes its short forms), lam at 0 and 1 and
    # inside, q = 1 on the cube layout, q = inf at the max, and every other q
    # against the mean of the 2^n-point gather
    rng = np.random.default_rng(n)
    for k in sorted({0, n, int(rng.integers(0, n + 1))}):
        code = random_code(n, k, rng)
        lams = (0.0, 1.0, float(rng.uniform(0.05, 0.95))) if n - k <= 16 else (0.0, 0.35)
        for lam, row in zip(lams, f_sweep(code, lams, SWEEP_Q)):
            assert row.values == tuple(f_value(code, lam, q) for q in SWEEP_Q), (n, k, lam)
            assert row.identities.moment == cube_f_value(code, lam, 2.0), (n, k, lam)
            assert row.identities.sup == cube_f_value(code, lam, math.inf), (n, k, lam)
