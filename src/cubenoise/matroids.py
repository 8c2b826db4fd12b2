"""Binary matroids given by GF(2) column matrices, their Tutte polynomials,
the subset rank-deficiency inequality, exact tail bounds, and the graphic
specialization where rank(S) = |V| - components(V, S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .codes import deficiency_histogram as _code_deficiency_histogram
from .codes import deficiency_table as _code_deficiency_table
from .codes import gf2_rank, gf2_rref, histogram_expectation, parse_bit_matrix, LinearCode
from .cube import SubsetMask
from .inequalities import GapReport, LN2, subset_expectation_mc

_TUTTE_CAP = 24


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

    @property
    def k(self) -> int:
        return gf2_rank(self.rows)

    def row_space_code(self) -> LinearCode:
        return LinearCode(self.n, tuple(gf2_rref(self.rows, self.n)[1]))

    @classmethod
    def from_code(cls, code: LinearCode) -> "BinaryMatroid":
        return cls(code.n, code.generator)


def matroid_rank(m: BinaryMatroid, s_mask: SubsetMask) -> int:
    if not 0 <= s_mask < (1 << m.n):
        raise ValueError(f"subset mask {s_mask} out of range for n={m.n}")
    return gf2_rank(row & s_mask for row in m.rows)


def matroid_deficiency_table(m: BinaryMatroid, cap: int | None = None) -> np.ndarray:
    """|S| - rank(S) for every subset mask S (column ranks depend only on the
    row space, so the code-side table applies verbatim)."""
    return _code_deficiency_table(m.row_space_code(), cap=cap)


def matroid_deficiency_histogram(m: BinaryMatroid, cap: int | None = None) -> np.ndarray:
    """N[k, d] = #{S : |S| = k, |S| - rank S = d}, from the row-space code
    (see :func:`cubenoise.codes.deficiency_histogram`)."""
    return _code_deficiency_histogram(m.row_space_code(), cap=cap)


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

    def derivative_y(self, x, y):
        return sum(
            c * j * x**i * y ** (j - 1) for (i, j), c in self.coeffs.items() if j
        )

    def basis_count(self) -> int:
        return int(self.evaluate(1, 1))


def tutte_polynomial(m: BinaryMatroid) -> TuttePolynomial:
    """Corank-nullity sum over all 2^n subsets, expanded to exact monomial
    coefficients; consistency of the expansion is asserted against the
    subset counts at (1,1) and (2,2).  The subsets come from the deficiency
    histogram: size s and nullity j give corank k - (s - j)."""
    if m.n > _TUTTE_CAP:
        raise ValueError(f"direct Tutte sum capped at n={_TUTTE_CAP}, got {m.n}")
    k = m.k
    hist = matroid_deficiency_histogram(m, cap=_TUTTE_CAP)

    coeffs: dict[tuple[int, int], int] = {}
    for (size, j), c in np.ndenumerate(hist):
        i, c = k - size + j, int(c)
        if c:
            for a in range(i + 1):
                for b in range(j + 1):
                    term = c * comb(i, a) * comb(j, b) * (-1) ** ((i - a) + (j - b))
                    if term:
                        coeffs[(a, b)] = coeffs.get((a, b), 0) + term
    coeffs = {ij: c for ij, c in coeffs.items() if c}
    poly = TuttePolynomial(coeffs)

    if any(c < 0 for c in coeffs.values()):
        raise ArithmeticError("negative Tutte coefficient: expansion bug")
    if poly.basis_count() != int(hist[k, 0]):
        raise ArithmeticError("Tutte evaluation at (1,1) does not count bases")
    if poly.evaluate(2, 2) != 1 << m.n:
        raise ArithmeticError("Tutte evaluation at (2,2) does not count subsets")
    return poly


# ---------------------------------------------------------------------------
# inequality, identity and tail checks
# ---------------------------------------------------------------------------

def deficiency_inequality_gap(
    m: BinaryMatroid,
    p: float,
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> GapReport:
    """Check log2 E over S ~ p of 2^(|S| - rank S)
    <= E over T ~ t of (|T| - rank T), with t = p^(1/(2 ln 2))."""
    t = subset_rate_for(p)
    params = {"n": m.n, "q": None, "eps_or_lambda": p, "mode": mode, "t": t}
    if mode == "exact":
        hist = matroid_deficiency_histogram(m)
        lhs = math.log2(histogram_expectation(hist, p, np.exp2(np.arange(hist.shape[1]))))
        rhs = histogram_expectation(hist, t)
    elif mode == "mc":
        h_mgf = lambda s: 2.0 ** (s.bit_count() - matroid_rank(m, s))
        h_def = lambda s: float(s.bit_count() - matroid_rank(m, s))
        mgf, _ = subset_expectation_mc(m.n, p, h_mgf, samples, seed)
        rhs, stderr = subset_expectation_mc(m.n, t, h_def, samples, seed + 1)
        lhs = math.log2(mgf)
        params.update(samples=samples, seed=seed, stderr=stderr)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GapReport("deficiency", lhs, rhs, rhs - lhs, params)


def tutte_identity_check(m: BinaryMatroid, p: float) -> GapReport:
    """Recompute both sides of the deficiency inequality through the Tutte
    polynomial:

        E over S ~ p of 2^(|S| - r(S)) = p^k (1-p)^(n-k) T(1/p, (1+p)/(1-p))
        E over T ~ t of (|T| - r(T))  = t^(k+1) (1-t)^(n-k-1) dT/dy(1/t, 1/(1-t))

    The report's gap is the inequality restated through the Tutte forms; the
    params carry the relative residuals of each identity against direct
    enumeration.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"Tutte arguments have poles at p in {{0,1}}; got {p}")
    t = subset_rate_for(p)
    k, n = m.k, m.n
    poly = tutte_polynomial(m)
    hist = matroid_deficiency_histogram(m)

    mgf_direct = histogram_expectation(hist, p, np.exp2(np.arange(hist.shape[1])))
    mgf_tutte = p**k * (1 - p) ** (n - k) * poly.evaluate(1 / p, (1 + p) / (1 - p))
    drv_direct = histogram_expectation(hist, t)
    drv_tutte = t ** (k + 1) * (1 - t) ** (n - k - 1) * poly.derivative_y(
        1 / t, 1 / (1 - t)
    )

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    params = {
        "n": n,
        "q": None,
        "eps_or_lambda": p,
        "mode": "exact",
        "t": t,
        "mgf_residual": rel(mgf_direct, mgf_tutte),
        "deficiency_residual": rel(drv_direct, drv_tutte),
        "note": f"residuals={rel(mgf_direct, mgf_tutte):.2e},{rel(drv_direct, drv_tutte):.2e}",
    }
    lhs = math.log2(mgf_tutte)
    return GapReport("tutte", lhs, drv_tutte, drv_tutte - lhs, params)


def tail_bound_check(m: BinaryMatroid, p: float, delta: float) -> GapReport:
    """Exact tail probability of the deficiency exceeding its comparison mean
    by delta, against the guaranteed bound 2^(-delta)."""
    if delta < 0:
        raise ValueError(f"threshold offset must be >= 0, got {delta}")
    t = subset_rate_for(p)
    hist = matroid_deficiency_histogram(m)
    mean_t = histogram_expectation(hist, t)
    prob = histogram_expectation(hist, p, np.arange(hist.shape[1]) >= mean_t + delta)
    bound = 2.0**-delta
    params = {
        "n": m.n,
        "q": None,
        "eps_or_lambda": p,
        "mode": "exact",
        "delta": delta,
        "threshold": mean_t + delta,
    }
    return GapReport("tail", prob, bound, bound - prob, params)


def mu_curve(m: BinaryMatroid, p_grid: Sequence[float]) -> list[tuple[float, float]]:
    """The mean-deficiency curve mu(p) = E over S ~ p of (|S| - rank S);
    increasing and convex in p, with mu(0) = 0."""
    hist = matroid_deficiency_histogram(m)
    return [(float(p), histogram_expectation(hist, float(p))) for p in p_grid]


def bounded_diff_tail(m: BinaryMatroid, p: float, t: float, delta: float) -> float:
    """Comparator from the bounded-differences inequality plus convexity of mu:
    exp(-2 ((t - p) mu(p) + p delta)^2 / (p^2 n)).  Reported alongside the
    2^(-delta) bound, never asserted against it."""
    if not 0.0 < p <= t <= 1.0:
        raise ValueError(f"need 0 < p <= t <= 1, got p={p}, t={t}")
    mu_p = histogram_expectation(matroid_deficiency_histogram(m), p)
    return math.exp(-2.0 * ((t - p) * mu_p + p * delta) ** 2 / (p**2 * m.n))


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


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.components = size

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.components -= 1


def connected_components(g: Graph, s_mask: SubsetMask) -> int:
    """Components of (V, S), isolated vertices included."""
    if not 0 <= s_mask < (1 << len(g.edges)):
        raise ValueError(f"edge mask {s_mask} out of range")
    uf = _UnionFind(g.vertex_count)
    for j, (u, v) in enumerate(g.edges):
        if s_mask >> j & 1:
            uf.union(u, v)
    return uf.components


def graphic_matroid(g: Graph) -> BinaryMatroid:
    """Vertex-edge incidence matrix over GF(2); loops become zero columns and
    rank(S) = |V| - components(V, S)."""
    if not g.edges:
        raise ValueError("graphic matroid needs at least one edge")
    rows = [0] * g.vertex_count
    for j, (u, v) in enumerate(g.edges):
        rows[u] ^= 1 << j
        rows[v] ^= 1 << j
    return BinaryMatroid(len(g.edges), tuple(rows))


def graph_inequality_gap(
    g: Graph,
    p: float,
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> GapReport:
    """Check log2 E over S ~ p of 2^(|S| + c(S)) <= t |E| + E over T ~ t of c(T).

    Exact mode reads the components off the graphic matroid's deficiency
    histogram: a subset of size k and deficiency d has c = |V| - k + d
    components.  mc mode counts them per sample with union-find."""
    n = len(g.edges)
    t = subset_rate_for(p)
    params = {"n": n, "q": None, "eps_or_lambda": p, "mode": mode, "t": t, "vertices": g.vertex_count}
    if mode == "exact":
        # no edges: the only subset is empty, with deficiency 0
        hist = matroid_deficiency_histogram(graphic_matroid(g)) if n else np.ones((1, 1), np.int64)
        sizes, deficiency = np.indices(hist.shape)
        comp = g.vertex_count - sizes + deficiency
        lhs = math.log2(histogram_expectation(hist, p, np.exp2(sizes + comp)))
        rhs = t * n + histogram_expectation(hist, t, comp)
    elif mode == "mc":
        h_lhs = lambda s: 2.0 ** (s.bit_count() + connected_components(g, s))
        h_rhs = lambda s: float(connected_components(g, s))
        mgf, _ = subset_expectation_mc(n, p, h_lhs, samples, seed)
        mean_c, stderr = subset_expectation_mc(n, t, h_rhs, samples, seed + 1)
        lhs = math.log2(mgf)
        rhs = t * n + mean_c
        params.update(samples=samples, seed=seed, stderr=stderr)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GapReport("graph", lhs, rhs, rhs - lhs, params)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_matroid(path: str) -> BinaryMatroid:
    """Same layout as the code format: 'k n' then k rows of n bits; rows may
    be dependent here."""
    with open(path, "r", encoding="ascii") as fh:
        rows, _, n = parse_bit_matrix(fh.read(), source=path)
    return BinaryMatroid(n, tuple(rows))


def load_graph(path: str) -> Graph:
    """Line 1 'V E', then E lines 'u v' of 0-indexed endpoints."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: first line must be 'V E'")
    v_count, e_count = int(head[0]), int(head[1])
    if len(lines) - 1 != e_count:
        raise ValueError(f"{path}: expected {e_count} edges, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: edge lines must be 'u v'")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(v_count, tuple(edges))


def dump_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.vertex_count} {len(g.edges)}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
