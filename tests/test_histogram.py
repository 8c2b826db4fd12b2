"""Property tests: every quantity computed from the (size, deficiency)
histogram matches brute force over all subsets, and the syndrome-space noisy
indicator matches the noise operator on the whole cube."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubenoise.codes import (
    LinearCode,
    _on_cube,
    deficiency_histogram,
    dual_code,
    f_value,
    gf2_rank,
    noisy_indicator,
    rank_deficiency,
    scaled_indicator,
)
from cubenoise.cube import entropy, noise_operator
from cubenoise.inequalities import noise_rate
from cubenoise.matroids import (
    BinaryMatroid,
    Graph,
    bounded_diff_tail,
    connected_components,
    deficiency_inequality_gap,
    graph_inequality_gap,
    matroid_deficiency_histogram,
    matroid_rank,
    mu_curve,
    subset_rate_for,
    tail_bound_check,
    tutte_identity_check,
    tutte_polynomial,
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
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
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


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@SETTINGS
@given(matroids())
def test_histogram_counts_subsets(m):
    hist = matroid_deficiency_histogram(m)
    brute = np.zeros_like(hist)
    for s, d in enumerate(deficiencies(m)):
        brute[s.bit_count(), d] += 1
    assert np.array_equal(hist, brute)
    assert np.array_equal(deficiency_histogram(m.row_space_code()), brute)


@SETTINGS
@given(matroids(), RATES)
def test_mgf_and_mean_deficiency(m, p):
    defs = deficiencies(m)
    t = subset_rate_for(p)
    rep = deficiency_inequality_gap(m, p)
    assert close(rep.lhs, math.log2(expect(m.n, p, [2.0**d for d in defs])))
    assert close(rep.rhs, expect(m.n, t, defs))
    assert close(rank_deficiency(m.row_space_code(), p), expect(m.n, p, defs))
    ((_, mu),) = mu_curve(m, [p])
    assert close(mu, expect(m.n, p, defs))


@SETTINGS
@given(matroids(), INNER_RATES, st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_tail_and_bounded_difference(m, p, delta):
    defs = deficiencies(m)
    t = subset_rate_for(p)
    rep = tail_bound_check(m, p, delta)
    threshold = rep.params["threshold"]
    assert close(threshold, expect(m.n, t, defs) + delta)
    assert close(rep.lhs, expect(m.n, p, [float(d >= threshold) for d in defs]))
    mu_p = expect(m.n, p, defs)
    want = math.exp(-2.0 * ((t - p) * mu_p + p * delta) ** 2 / (p**2 * m.n))
    assert close(bounded_diff_tail(m, p, t, delta), want)


@SETTINGS
@given(matroids(), INNER_RATES)
def test_tutte_identity_sides(m, p):
    defs = deficiencies(m)
    rep = tutte_identity_check(m, p)
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
    rep = graph_inequality_gap(g, p)
    lhs = math.log2(expect(n, p, [2.0 ** (s.bit_count() + c) for s, c in enumerate(comps)]))
    assert close(rep.lhs, lhs)
    assert close(rep.rhs, t * n + expect(n, t, comps))


def noise_for(q, lam):
    if q == 1.0:
        return (1.0 - math.sqrt(lam)) / 2.0
    if q == math.inf:
        return (1.0 - lam ** (2.0 * math.log(2.0))) / 2.0
    return noise_rate(q, lam)


@SETTINGS
@given(codes(), RATES, st.sampled_from([1.0, 1.5, 2.0, math.inf]))
def test_syndrome_route_matches_cube(code, lam, q):
    eps = noise_for(q, lam)
    direct = noise_operator(scaled_indicator(code), eps)
    syndromes = noisy_indicator(code, eps).values
    dual = dual_code(code).generator
    for x in range(1 << code.n):
        s = sum(((h & x).bit_count() & 1) << j for j, h in enumerate(dual))
        assert syndromes[s] == direct.values[x]
    # laid out on the cube again, in index order, for cube-order averages
    assert np.array_equal(_on_cube(code, syndromes), direct.values)
    if q == 1.0:
        want = entropy(direct)
    elif q == math.inf:
        want = math.log2(float(direct.values.max()))
    else:
        want = math.log2(float(np.mean(np.maximum(direct.values, 0.0) ** q))) / (q - 1.0)
    assert f_value(code, lam, q, mode="cube").value == want


def test_syndrome_route_extreme_dimensions():
    full = LinearCode(4, (1, 2, 4, 8))  # k = n: one syndrome, T_eps f = 1
    assert noisy_indicator(full, 0.3).values.tolist() == [1.0]
    zero = LinearCode(4, ())  # k = 0: the syndrome is x itself
    for eps in (0.0, 0.2, 0.5):
        direct = noise_operator(scaled_indicator(zero), eps).values
        assert np.array_equal(noisy_indicator(zero, eps).values, direct)
