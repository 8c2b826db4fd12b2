"""Binary matroids given by GF(2) column matrices, their Tutte polynomials,
the subset rank-deficiency inequality, exact tail bounds, and the graphic
specialization where rank(S) = |V| - components(V, S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .codes import deficiency_expectation, gf2_rref
from .codes import LinearCode, _natural, _read_file, parse_bit_matrix
from .inequalities import GapReport, LN2, _exact_row_sums, _require_mode


@dataclass(frozen=True)
class BinaryMatroid:
    """Ground set = columns 1..n of a bit matrix; rank(S) = GF(2) rank of the
    column submatrix.  Rows may be dependent; zero columns are loops."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        for row in self.rows:
            if not 0 <= row < (1 << self.n):
                raise ValueError("matrix row out of range for ground-set size")

    @cached_property
    def row_space_code(self) -> LinearCode:
        """The code spanned by the rows.  Column ranks depend only on the row
        space, so its tables (the deficiency histogram above all) are the
        matroid's, and are built once and freed with the matroid."""
        return LinearCode(self.n, tuple(gf2_rref(self.rows, self.n)[1]))

    @cached_property
    def tutte(self) -> TuttePolynomial:
        """The Tutte polynomial (:func:`tutte_polynomial`), expanded once for
        every p of a report and freed with the matroid."""
        return tutte_polynomial(self)

    @property
    def k(self) -> int:
        return self.row_space_code.k


def subset_rate_for(p: float) -> float:
    """The matched comparison rate t = p^(1/(2 ln 2)); t >= p on [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"sampling rate must be in [0, 1], got {p}")
    return p ** (1.0 / (2.0 * LN2))


# ---------------------------------------------------------------------------
# Tutte polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuttePolynomial:
    """T(x, y) = sum of t_ij x^i y^j with exact integer coefficients."""

    coeffs: Mapping[tuple[int, int], int]

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def basis_count(self) -> int:
        return int(self.evaluate(1, 1))


@cache
def _expansion(m: int) -> np.ndarray:
    """P[i, a] = C(i, a) (-1)^(i - a) for i, a <= m, in int64: row i holds
    the coefficients of (x - 1)^i.  Built once per m, read-only."""
    out = np.array([[comb(i, a) * (-1) ** (i - a) for a in range(m + 1)] for i in range(m + 1)], dtype=np.int64)
    out.flags.writeable = False
    return out


def tutte_polynomial(m: BinaryMatroid) -> TuttePolynomial:
    """Corank-nullity sum over all 2^n subsets, expanded to exact monomial
    coefficients; consistency of the expansion is asserted against the
    subset counts at (1,1) and (2,2).  The subsets come from the row-space
    code's deficiency histogram, so CUBENOISE_MAX_N bounds n: size s and
    nullity j give corank k - (s - j).

    With C[i, j] the number of subsets of corank i and nullity j, the sum
    of C[i, j] (x - 1)^i (y - 1)^j has the coefficients P_k^T C P_(n-k)
    (:func:`_expansion`), multiplied out in int64.  That is exact: int64
    arithmetic is exact modulo 2^64, and every coefficient lies in [0, 2^n]
    with n <= 32, where the deficiency table stops.  The monomials are
    listed by the power of y, then of x."""
    k, n = m.k, m.n
    hist = m.row_space_code.histogram
    corank, nullity = np.ogrid[: k + 1, : n - k + 1]
    size = k - corank + nullity
    cells = np.where(size <= n, hist[np.minimum(size, n), nullity], 0)
    expanded = _expansion(k).T @ cells @ _expansion(n - k)
    coeffs = {(a, b): c for b, row in enumerate(expanded.T.tolist()) for a, c in enumerate(row) if c}
    poly = TuttePolynomial(coeffs)

    if any(c < 0 for c in coeffs.values()):
        raise ArithmeticError("negative Tutte coefficient: expansion bug")
    if poly.basis_count() != int(hist[k, 0]):
        raise ArithmeticError("Tutte evaluation at (1,1) does not count bases")
    if poly.evaluate(2, 2) != 1 << m.n:
        raise ArithmeticError("Tutte evaluation at (2,2) does not count subsets")
    return poly


# ---------------------------------------------------------------------------
# inequality, identity and tail sweeps
# ---------------------------------------------------------------------------

def _log2_of_one_plus(x: float) -> float:
    """log2(1 + x) for x >= 0, the printed lhs of an mgf 1 + x: log1p(x) / ln 2
    below 1, where 1 + x would round away the digits of a small x, and log2
    of 1 + x from 1 up, where it rounds closer than log1p over ln 2 does
    (and 2^m - 1 gives m exactly)."""
    return math.log1p(x) / LN2 if x < 1.0 else math.log2(1.0 + x)


def deficiency_sweep(
    m: BinaryMatroid,
    p_grid: Sequence[float],
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[GapReport]:
    """For every p of the grid, in grid order, check
    log2 E over S ~ p of 2^(|S| - rank S) <= E over T ~ t of (|T| - rank T),
    with t = p^(1/(2 ln 2)).

    Both sides are averages over the row-space code's (size, deficiency)
    cells (:func:`cubenoise.codes.deficiency_expectation`), in either mode,
    one call per side for the whole grid; mc mode draws the rhs with
    seed + 1.  The mgf is within O(p) of 1 at small p, so the lhs is
    log2(1 + E 2^d - 1) (:func:`_log2_of_one_plus`) of the average of
    2^d - 1 (exact for every d), not log2 of an average that has already
    rounded away most of its excess over 1."""
    rates = [subset_rate_for(p) for p in p_grid]  # the whole grid first
    _require_mode(mode)
    code = m.row_space_code
    excess_values = np.exp2(np.arange(code.n - code.k + 1)) - 1.0
    excesses = deficiency_expectation(code, p_grid, excess_values, mode, samples, seed)
    means = deficiency_expectation(code, rates, None, mode, samples, seed + 1)
    out = []
    for p, t, (excess, _), (rhs, stderr) in zip(p_grid, rates, excesses, means):
        lhs = _log2_of_one_plus(excess)
        params = {"n": m.n, "q": None, "eps_or_lambda": p, "mode": mode, "t": t,
                  "samples": samples, "seed": seed, "stderr": stderr}
        out.append(GapReport("deficiency", lhs, rhs, params))
    return out


def tutte_sweep(m: BinaryMatroid, p_grid: Sequence[float]) -> list[GapReport]:
    """For every p of the grid strictly between 0 and 1 (the Tutte arguments
    below have poles at 0 and 1), recompute both sides of the deficiency
    inequality through the Tutte polynomial:

        E over S ~ p of 2^(|S| - r(S)) = p^k (1-p)^(n-k) T(1/p, (1+p)/(1-p))
        E over T ~ t of (|T| - r(T))  = t^(k+1) (1-t)^(n-k-1) dT/dy(1/t, 1/(1-t))

    The prefactors are folded into the terms, and the mgf is taken less
    its 1 (the same sum with (1+p)^j replaced by 1), as
    sum of c_ij p^(k-i) (1-p)^(n-k-j) ((1+p)^j - 1) and
    sum of c_ij j t^(k+1-i) (1-t)^(n-k-j), whose exponents are nonnegative
    (i <= k, j <= n - k), so no power of 1/p overflows however small p is.
    Every term is >= 0, with (1+p)^j - 1 taken as expm1(j log1p p) for
    p < 1/2, so the excess over 1 keeps its relative accuracy at small p,
    and as the power less 1 from p = 1/2 up, where (1+p)^j >= 1.5^j and the
    power rounds closer; the lhs is log2 of 1 plus the excess as in
    :func:`deficiency_sweep`.
    Each form takes one array of terms, a row per p, and each row is summed
    correctly rounded, as the layer averages are
    (:func:`cubenoise.inequalities.layer_expectations`).
    The report's gap is the inequality restated through the Tutte forms; the
    params carry the relative residuals of each identity against the
    histogram averages (one call per side for the grid; the mgf's as the
    two excesses over 1), each held to the tolerance.
    """
    rates = [subset_rate_for(p) for p in p_grid]  # the whole grid first
    k, n = m.k, m.n
    code = m.row_space_code
    inner = [(p, t) for p, t in zip(p_grid, rates) if 0.0 < p < 1.0]
    excesses = deficiency_expectation(code, [p for p, _ in inner], np.exp2(np.arange(n - k + 1)) - 1.0)
    means = deficiency_expectation(code, [t for _, t in inner])
    coeffs = m.tutte.coeffs
    i, j = np.array(list(coeffs), dtype=np.intp).reshape(-1, 2).T
    c = np.array([float(v) for v in coeffs.values()])
    cj = np.array([float(v * b) for (_, b), v in coeffs.items()])
    ps = np.array([p for p, _ in inner])[:, None]
    ts = np.array([t for _, t in inner])[:, None]
    growth = np.where(ps < 0.5, np.expm1(j * np.log1p(ps)), (1 + ps) ** j - 1)
    excess_terms = c * ps ** (k - i) * (1 - ps) ** (n - k - j) * growth
    drv_terms = cj * ts ** (k + 1 - i) * (1 - ts) ** (n - k - j)

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    out = []
    for (p, t), (excess, _), (mean, _), excess_tutte, drv_tutte in zip(
        inner, excesses, means, _exact_row_sums(excess_terms), _exact_row_sums(drv_terms)
    ):
        mgf_residual = rel(excess, excess_tutte)
        deficiency_residual = rel(mean, drv_tutte)
        params = {
            "n": n,
            "q": None,
            "eps_or_lambda": p,
            "mode": "exact",
            "t": t,
            "mgf_residual": mgf_residual,
            "deficiency_residual": deficiency_residual,
            "note": f"mgf_residual={mgf_residual:.2e};deficiency_residual={deficiency_residual:.2e}",
        }
        lhs = _log2_of_one_plus(excess_tutte)
        budgets = {"mgf_residual": None, "deficiency_residual": None}
        out.append(GapReport("tutte", lhs, drv_tutte, params, budgets))
    return out


def tail_sweep(m: BinaryMatroid, p_grid: Sequence[float], delta_grid: Sequence[float]) -> list[GapReport]:
    """For every p > 0 of the grid and then every delta, the exact tail
    probability that the deficiency reaches its comparison mean E over
    T ~ t of d(T) plus delta, against the guaranteed bound 2^(-delta).  Both
    grids are checked first, delta even when every p is 0.

    Each row notes the comparator from the bounded-differences inequality
    plus convexity of mu, exp(-2 y^2 / n) with y = (t - p) mu(p) / p + delta
    (:func:`mu_curve`), which is reported, never asserted; written with y it
    has no p^2 to underflow and no square of a huge delta to overflow.  The
    means E over t of d and mu(p) take one deficiency_expectation call each
    for the whole grid, and the probabilities one more, its indicator
    values one table per (p, delta) threshold."""
    rates = [subset_rate_for(p) for p in p_grid]  # the whole grid first
    for delta in delta_grid:
        if not delta >= 0:
            raise ValueError(f"threshold offset must be >= 0, got {delta}")
    code = m.row_space_code
    positive = [(p, t) for p, t in zip(p_grid, rates) if p != 0.0]
    means = deficiency_expectation(code, [t for _, t in positive])
    mus = deficiency_expectation(code, [p for p, _ in positive])
    cases = [(p, t, mean_t + delta, mu_p, delta)
             for (p, t), (mean_t, _), (mu_p, _) in zip(positive, means, mus) for delta in delta_grid]
    thresholds = np.array([threshold for _, _, threshold, _, _ in cases])
    indicators = np.arange(code.n - code.k + 1) >= thresholds[:, None, None]  # a row over d per case
    probs = deficiency_expectation(code, [p for p, *_ in cases], indicators)
    out = []
    for (p, t, threshold, mu_p, delta), (prob, _) in zip(cases, probs):
        bound = 2.0**-delta
        y = (t - p) * (mu_p / p) + delta
        comparator = math.exp(-2.0 * y * y / m.n)
        params = {"n": m.n, "q": None, "eps_or_lambda": p, "mode": "exact", "delta": delta,
                  "threshold": threshold, "note": f"bounded_diff={comparator!r}"}
        out.append(GapReport("tail", prob, bound, params))
    return out


def mu_curve(m: BinaryMatroid, p_grid: Sequence[float]) -> list[tuple[float, float]]:
    """The mean-deficiency curve mu(p) = E over S ~ p of (|S| - rank S);
    increasing and convex in p, with mu(0) = 0: one deficiency_expectation
    call for the whole grid."""
    means = deficiency_expectation(m.row_space_code, p_grid)
    return [(float(p), mu) for p, (mu, _) in zip(p_grid, means)]


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """A multigraph on vertices 0..V-1; parallel edges and loops allowed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")

    @cached_property
    def matroid(self) -> BinaryMatroid:
        """The graphic matroid: the vertex-edge incidence matrix over GF(2),
        built once and freed with the graph.  Loops become zero columns and
        rank(S) = |V| - components(V, S)."""
        if not self.edges:
            raise ValueError("graphic matroid needs at least one edge")
        rows = [0] * self.vertex_count
        for j, (u, v) in enumerate(self.edges):
            rows[u] ^= 1 << j
            rows[v] ^= 1 << j
        return BinaryMatroid(len(self.edges), tuple(rows))


def graph_sweep(g: Graph, gaps: Sequence[GapReport]) -> list[GapReport]:
    """The graph inequality
    log2 E over S ~ p of 2^(|S| + c(S)) <= t |E| + E over T ~ t of c(T)
    for every row of `gaps`, the :func:`deficiency_sweep` of g.matroid, in
    their order.  A subset S has c(S) = |V| - rank S components, so
    |S| + c(S) = |V| + d(S) and t |E| + E c(T) = |V| + E d(T): each graph
    row is its deficiency row with |V| added to both sides, in either mode,
    and its params name the vertex count too."""
    v = g.vertex_count
    return [GapReport("graph", rep.lhs + v, rep.rhs + v, {**rep.params, "vertices": v}) for rep in gaps]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_matroid(path: str) -> BinaryMatroid:
    """Same layout as the code format: 'k n' then k rows of n bits; rows may
    be dependent here."""
    return _read_file(path, lambda text: BinaryMatroid(*parse_bit_matrix(text)))


def load_graph(path: str) -> Graph:
    """Line 1 'V E', then E lines 'u v' of 0-indexed endpoints."""
    return _read_file(path, _parse_graph)


def _parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'V E'")
    v_count, e_count = map(_natural, "VE", head)
    if len(lines) - 1 != e_count:
        raise ValueError(f"expected {e_count} edges, got {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:], 1):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge {i} must be 'u v'")
        edges.append(tuple(_natural(f"edge {i} endpoint", part) for part in parts))
    return Graph(v_count, tuple(edges))
