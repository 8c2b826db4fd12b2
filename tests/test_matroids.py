import math

import numpy as np
import pytest

from references import bounded_diff_tail, connected_components, dump_graph, matroid_rank

from cubenoise import matroids
from cubenoise.codes import deficiency_table
from cubenoise.matroids import (
    BinaryMatroid,
    Graph,
    deficiency_sweep,
    graph_sweep,
    load_graph,
    load_matroid,
    mu_curve,
    subset_rate_for,
    tail_sweep,
    tutte_polynomial,
    tutte_sweep,
)

LN2 = math.log(2.0)

K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def random_matroid(n, seed):
    rng = np.random.default_rng(seed)
    rows = tuple(int(r) for r in rng.integers(0, 1 << n, int(rng.integers(1, n + 1))))
    return BinaryMatroid(n, rows)


# ---------------------------------------------------------------------------
# deletion-contraction oracle for graph Tutte polynomials
# ---------------------------------------------------------------------------

def _poly_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _poly_shift(a, dx, dy):
    return {(i + dx, j + dy): c for (i, j), c in a.items()}


def _is_bridge(edges, idx):
    u, v = edges[idx]
    if u == v:
        return False
    rest = edges[:idx] + edges[idx + 1 :]
    # reachability from u without edge idx
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for a, b in rest:
            for nxt, other in ((a, b), (b, a)):
                if other == x and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return v not in seen


def oracle_tutte(edges):
    """Deletion-contraction on a multigraph edge list; vertices implicit."""
    if not edges:
        return {(0, 0): 1}
    u, v = edges[0]
    rest = edges[1:]
    if u == v:
        return _poly_shift(oracle_tutte(rest), 0, 1)  # loop: y * T(G - e)
    if _is_bridge(edges, 0):
        merged = [(a if a != v else u, b if b != v else u) for a, b in rest]
        return _poly_shift(oracle_tutte(merged), 1, 0)  # coloop: x * T(G / e)
    merged = [(a if a != v else u, b if b != v else u) for a, b in rest]
    return _poly_add(oracle_tutte(rest), oracle_tutte(merged))


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_matroid_rank_examples():
    ident = BinaryMatroid(4, (1, 2, 4, 8))
    assert matroid_rank(ident, 0) == 0
    assert matroid_rank(ident, 0b1111) == 4
    twin = BinaryMatroid(2, (0b11,))
    assert matroid_rank(twin, 0b11) == 1
    with pytest.raises(ValueError):
        matroid_rank(twin, 4)


def test_deficiency_table_matches_direct():
    for seed in range(5):
        m = random_matroid(7, seed)
        table = deficiency_table(m.row_space_code)
        for s in range(1 << m.n):
            assert table[s] == s.bit_count() - matroid_rank(m, s)


# ---------------------------------------------------------------------------
# Tutte polynomial
# ---------------------------------------------------------------------------

def test_tutte_primitive_matroids():
    assert dict(tutte_polynomial(BinaryMatroid(1, (1,))).coeffs) == {(1, 0): 1}
    assert dict(tutte_polynomial(BinaryMatroid(1, (0,))).coeffs) == {(0, 1): 1}


def test_tutte_triangle():
    poly = tutte_polynomial(K3.matroid)
    assert dict(poly.coeffs) == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert poly.basis_count() == 3


def test_expansion_is_built_once_and_read_only():
    # row i holds the coefficients of (x - 1)^i; every Tutte expansion of a
    # given size shares the one array, which no caller can write
    p = matroids._expansion(4)
    assert p is matroids._expansion(4)
    assert p.tolist()[3] == [-1, 3, -3, 1, 0]
    with pytest.raises(ValueError):
        p[0, 0] = 2


def test_tutte_counts_subsets_and_bases():
    for seed in range(5):
        m = random_matroid(8, 10 + seed)
        poly = tutte_polynomial(m)
        assert poly.evaluate(2, 2) == 1 << m.n
        bases = sum(
            1
            for s in range(1 << m.n)
            if s.bit_count() == m.k and matroid_rank(m, s) == m.k
        )
        assert poly.basis_count() == bases
        assert all(c > 0 for c in poly.coeffs.values())


@pytest.mark.parametrize(
    "graph",
    [
        K3,
        K4,
        Graph(2, ((0, 1), (0, 1))),  # doubled edge
        Graph(3, ((0, 1), (1, 2))),  # path: two bridges
        Graph(2, ((0, 0), (0, 1), (1, 1))),  # loops at both ends
        Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 2), (1, 1))),
    ],
)
def test_tutte_matches_deletion_contraction(graph):
    got = dict(tutte_polynomial(graph.matroid).coeffs)
    assert got == oracle_tutte(list(graph.edges))


# ---------------------------------------------------------------------------
# deficiency inequality
# ---------------------------------------------------------------------------

def test_deficiency_gap_free_matroid():
    free = BinaryMatroid(5, (1, 2, 4, 8, 16))
    (rep,) = deficiency_sweep(free, [0.6])
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == 0.0


def test_deficiency_gap_degenerate_rate():
    (rep,) = deficiency_sweep(random_matroid(6, 20), [0.0])
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_deficiency_gap_repetition_pair():
    (rep,) = deficiency_sweep(BinaryMatroid(2, (0b11,)), [0.5])
    t = subset_rate_for(0.5)
    assert rep.lhs == pytest.approx(math.log2(5 / 4), abs=1e-14)
    assert rep.rhs == pytest.approx(t * t, abs=1e-14)
    assert rep.gap >= 0


def test_deficiency_gap_random_corpus():
    for seed in range(10):
        m = random_matroid(8, 30 + seed)
        for rep in deficiency_sweep(m, (0.2, 0.5, 0.8, 1.0)):
            assert rep.gap >= -1e-9


def test_deficiency_gap_mc_close_to_exact():
    m = random_matroid(8, 41)
    (exact,) = deficiency_sweep(m, [0.4])
    (mc,) = deficiency_sweep(m, [0.4], mode="mc", samples=40_000, seed=5)
    assert mc.rhs == pytest.approx(exact.rhs, abs=0.05)
    assert mc.lhs == pytest.approx(exact.lhs, abs=0.1)


# ---------------------------------------------------------------------------
# Tutte-form identities
# ---------------------------------------------------------------------------

def test_tutte_identity_primitives():
    # coloop at p = 1/2: both routes give E 2^(|S|-r) = 1
    (rep,) = tutte_sweep(BinaryMatroid(1, (1,)), [0.5])
    assert 2.0**rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.params["mgf_residual"] <= 1e-12
    # loop at p = 1/2: E 2^|S| = 3/2
    (rep,) = tutte_sweep(BinaryMatroid(1, (0,)), [0.5])
    assert 2.0**rep.lhs == pytest.approx(1.5, abs=1e-12)
    assert rep.params["mgf_residual"] <= 1e-12


def test_tutte_identity_triangle_and_random():
    for rep in tutte_sweep(K3.matroid, (0.2, 0.5, 0.8)):
        assert rep.params["mgf_residual"] <= 1e-9
        assert rep.params["deficiency_residual"] <= 1e-9
        assert rep.gap >= -1e-9
    for seed in range(8):
        m = random_matroid(7, 50 + seed)
        for rep in tutte_sweep(m, (0.25, 0.6)):
            assert rep.params["mgf_residual"] <= 1e-9
            assert rep.params["deficiency_residual"] <= 1e-9
            assert rep.gap >= -1e-9


def test_tutte_identity_rejects_poles():
    # the Tutte arguments have poles at p = 0 and 1: those p get no row
    m = random_matroid(4, 60)
    assert tutte_sweep(m, (0.0, 1.0)) == []
    assert [rep.params["eps_or_lambda"] for rep in tutte_sweep(m, (0.0, 0.5, 1.0))] == [0.5]
    with pytest.raises(ValueError, match="sampling rate"):
        tutte_sweep(m, (0.5, 1.5))


def test_tutte_identity_keeps_tiny_rates_finite():
    # the unfolded forms take powers of 1/p, which overflow at p = 1e-300 on
    # K4 and at p = 1e-40 once the rank reaches 8
    m = random_matroid(19, 61)
    assert m.k >= 8
    for matroid, p in ((K4.matroid, 1e-300), (m, 1e-40), (m, 5e-324)):
        (rep,) = tutte_sweep(matroid, [p])
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs), p
        assert rep.params["mgf_residual"] <= 1e-15 and rep.params["deficiency_residual"] <= 1e-15


# ---------------------------------------------------------------------------
# tails and the mean curve
# ---------------------------------------------------------------------------

def test_tail_bound_trivial_threshold():
    m = random_matroid(6, 70)
    (rep,) = tail_sweep(m, [0.5], [0.0])
    assert rep.lhs <= 1.0 + 1e-12


def test_tail_bound_free_matroid():
    free = BinaryMatroid(4, (1, 2, 4, 8))
    assert [rep.lhs for rep in tail_sweep(free, [0.5], (0.5, 1.0))] == [0.0, 0.0]


def test_tail_bound_k4_exact():
    m = K4.matroid
    for delta, rep in zip((0.5, 1.0, 2.0), tail_sweep(m, [0.5], (0.5, 1.0, 2.0))):
        assert rep.lhs <= 2.0**-delta + 1e-12


def test_mu_curve_examples():
    free = BinaryMatroid(3, (1, 2, 4))
    assert all(mu == 0.0 for _, mu in mu_curve(free, np.linspace(0, 1, 11)))
    loop = BinaryMatroid(1, (0,))
    for p, mu in mu_curve(loop, [0.0, 0.25, 1.0]):
        assert mu == pytest.approx(p, abs=1e-14)
    twin = BinaryMatroid(2, (0b11,))
    for p, mu in mu_curve(twin, [0.0, 0.3, 0.9]):
        assert mu == pytest.approx(p * p, abs=1e-14)


def test_mu_curve_monotone_convex():
    grid = np.linspace(0, 1, 101)
    for seed in range(5):
        pts = mu_curve(random_matroid(8, 80 + seed), grid)
        mus = [mu for _, mu in pts]
        assert mus[0] == 0.0
        diffs = np.diff(mus)
        assert diffs.min() >= -1e-12
        assert np.diff(diffs).min() >= -1e-9


def bounded_diff(rep):
    return float(rep.params["note"].removeprefix("bounded_diff="))


def test_bounded_diff_comparator():
    # free matroid: mu = 0, so the comparator is exp(-2 delta^2 / n)
    free = BinaryMatroid(4, (1, 2, 4, 8))
    assert bounded_diff(tail_sweep(free, [0.3], [0.0])[0]) == 1.0
    assert bounded_diff(tail_sweep(free, [0.5], [1.0])[0]) == pytest.approx(math.exp(-0.5), abs=1e-12)
    m = K4.matroid
    (rep,) = tail_sweep(m, [0.3], [1.0])
    want = bounded_diff_tail(m, 0.3, subset_rate_for(0.3), 1.0)
    assert 0.0 < bounded_diff(rep) <= 1.0
    assert bounded_diff(rep) == pytest.approx(want, rel=1e-15)
    # no row at p = 0, where the comparator divides by p
    assert tail_sweep(m, [0.0], [1.0]) == []
    with pytest.raises(ValueError, match="sampling rate"):
        tail_sweep(m, [1.5], [1.0])


def test_bounded_diff_comparator_at_the_edges():
    # y = (t - p) mu / p + delta has no p^2 to underflow to 0 (below
    # p = 2e-162) and no delta^2 to overflow (delta = 1e200)
    m = K4.matroid
    edges = tail_sweep(m, (1e-300, 0.5, 1.0), (0.0, 1e200, math.inf))
    at_half = pytest.approx(bounded_diff_tail(m, 0.5, subset_rate_for(0.5), 0.0), rel=1e-15)
    assert [bounded_diff(rep) for rep in edges] == [1.0, 0.0, 0.0, at_half, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert [rep.rhs for rep in edges[1::3]] == [0.0, 0.0, 0.0]
    assert all(rep.gap >= 0.0 for rep in edges)


@pytest.mark.parametrize("delta", [-1.0, math.nan])
def test_tail_offsets_must_be_nonnegative(delta):
    m = K4.matroid
    with pytest.raises(ValueError, match="threshold offset"):
        tail_sweep(m, [0.5], [1.0, delta])
    # checked even when no p gets a row
    with pytest.raises(ValueError, match="threshold offset"):
        tail_sweep(m, [0.0], [delta])


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def test_connected_components_examples():
    assert connected_components(K3, 0) == 3
    assert connected_components(K3, 0b011) == 1  # spanning tree
    assert connected_components(K3, 0b001) == 2
    loopy = Graph(2, ((0, 0), (0, 1)))
    assert connected_components(loopy, 0b01) == 2  # loop joins nothing


def test_graphic_matroid_examples():
    single = Graph(2, ((0, 1),)).matroid
    assert matroid_rank(single, 1) == 1
    loop = Graph(1, ((0, 0),)).matroid
    assert matroid_rank(loop, 1) == 0
    tri = K3.matroid
    assert matroid_rank(tri, 0b111) == 2


@pytest.mark.parametrize(
    "graph",
    [K3, K4, Graph(3, ((0, 1), (0, 1), (1, 1), (1, 2))), Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))],
)
def test_graphic_rank_identity_exhaustive(graph):
    m = graph.matroid
    for s in range(1 << len(graph.edges)):
        assert matroid_rank(m, s) == graph.vertex_count - connected_components(graph, s)


def graph_rows(g, p_grid, **sampling):
    return graph_sweep(g, deficiency_sweep(g.matroid, p_grid, **sampling))


def test_graph_gap_single_edge():
    (rep,) = graph_rows(Graph(2, ((0, 1),)), [0.3])
    # closed form: both sides equal 2 for a single edge on two vertices
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)


def test_graph_gap_k4_exhaustive():
    (rep,) = graph_rows(K4, [0.5])
    assert rep.gap >= -1e-9


def test_graph_gap_consistent_with_matroid_form():
    # |S| + c(S) = |V| + (|S| - rank S), so each graph row is its deficiency
    # row shifted by the vertex count
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (1, 1)))
    p = 0.35
    (mg,) = deficiency_sweep(g.matroid, [p])
    (gg,) = graph_sweep(g, [mg])
    assert (gg.lhs, gg.rhs) == (mg.lhs + g.vertex_count, mg.rhs + g.vertex_count)
    assert gg.params == {**mg.params, "vertices": g.vertex_count}


def test_graph_gap_on_a_17_edge_path():
    edges = tuple((i, i + 1) for i in range(17))
    (rep,) = graph_rows(Graph(18, edges), [0.4])
    assert rep.gap >= -1e-9


def test_graph_gap_mc_mode():
    (rep,) = graph_rows(K4, [0.5], mode="mc", samples=20_000, seed=11)
    (exact,) = graph_rows(K4, [0.5])
    assert rep.rhs == pytest.approx(exact.rhs, abs=0.05)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_graph_file_roundtrip(tmp_path):
    path = tmp_path / "k4.graph"
    dump_graph(K4, str(path))
    back = load_graph(str(path))
    assert back == K4


def test_matroid_file_allows_dependent_rows(tmp_path):
    path = tmp_path / "dep.matroid"
    path.write_text("2 2\n11\n11\n")
    m = load_matroid(str(path))
    assert m.k == 1


def test_graph_file_errors(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_graph(str(path))
