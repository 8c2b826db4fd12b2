"""Binary linear codes over GF(2): rank functions, weight distributions, the
noise/erasure value family F(lam, q), and all code-facing bounds.

Matrices are stored row-major as Python ints, one machine word per row for
n <= 64 and arbitrary-precision beyond; column j (1-based) is bit j-1, the
same convention the cube module uses for coordinates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple

import numpy as np

from .cube import CubeFunction, FourierSpectrum, SubsetMask, dimension_cap, popcounts
from .cube import entropy as cube_entropy, wht_inverse
from .inequalities import LN2, enum_cap, noise_rate, size_weights

_DEFAULT_CODEWORD_CAP = 28  # enumeration walks 2^k codewords


def codeword_cap() -> int:
    return int(os.environ.get("CUBENOISE_MAX_K", _DEFAULT_CODEWORD_CAP))


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int bitsets
# ---------------------------------------------------------------------------

def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) by elimination on the highest set bit."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            p = cur.bit_length() - 1
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                rank += 1
                break
    return rank


def gf2_rref(rows: Iterable[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (pivot columns, reduced nonzero rows)."""
    work = [r for r in rows if r]
    pivot_cols: list[int] = []
    reduced: list[int] = []
    for col in range(n):
        hit = None
        for i, r in enumerate(work):
            if r >> col & 1:
                hit = i
                break
        if hit is None:
            continue
        pivot = work.pop(hit)
        reduced = [r ^ pivot if r >> col & 1 else r for r in reduced]
        work = [r ^ pivot if r >> col & 1 else r for r in work]
        reduced.append(pivot)
        pivot_cols.append(col)
    return pivot_cols, reduced


def gf2_nullspace(rows: Iterable[int], n: int) -> list[int]:
    """Basis of the right nullspace: all v with (row & v) of even parity."""
    pivot_cols, reduced = gf2_rref(rows, n)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = 1 << free
        for pcol, prow in zip(pivot_cols, reduced):
            if prow >> free & 1:
                v |= 1 << pcol
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearCode:
    """A binary linear code given by an independent-row generator matrix."""

    n: int
    generator: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("code length must be positive")
        for row in self.generator:
            if not 0 <= row < (1 << self.n):
                raise ValueError("generator row out of range for code length")
        if gf2_rank(self.generator) != len(self.generator):
            raise ValueError("generator rows are linearly dependent over GF(2)")

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def size(self) -> int:
        return 1 << self.k

    @classmethod
    def from_rows(cls, rows: Iterable[int], n: int) -> "LinearCode":
        return cls(n, tuple(rows))


def rank_of_columns(code: LinearCode, t_mask: SubsetMask) -> int:
    """Rank of the generator's column submatrix indexed by T."""
    return gf2_rank(row & t_mask for row in code.generator)


def _span(rows: Iterable[int]) -> np.ndarray:
    """XOR of every subset a of the rows, at index a (bit j <-> row j), as uint64."""
    words = np.zeros(1, dtype=np.uint64)
    for row in rows:
        words = np.concatenate([words, words ^ np.uint64(row)])
    return words


def codeword_masks(code: LinearCode) -> np.ndarray:
    """All 2^k codewords as uint64 masks (requires n <= 64), by span doubling."""
    if code.n > 64:
        raise ValueError("vectorized enumeration needs n <= 64")
    if code.k > codeword_cap():
        raise ValueError(f"codeword enumeration capped at k={codeword_cap()}")
    return _span(code.generator)


@dataclass(frozen=True)
class WeightDistribution:
    """Counts a_0..a_n of codewords at each Hamming weight."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("weight counts must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts)


def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact weight counts by enumerating all 2^k codewords."""
    if code.k > codeword_cap():
        raise ValueError(f"weight enumeration capped at k={codeword_cap()}")
    if code.n <= 64:
        counts = _weights_by_blocks(code)
    else:
        counts = _weights_by_gray_walk(code)
    return WeightDistribution(tuple(counts))


def _weights_by_blocks(code: LinearCode, block_bits: int = 20) -> list[int]:
    # span of the first <= block_bits rows held as one vector, remaining rows
    # folded in by a Gray-code walk of whole-block XORs
    base_bits = min(code.k, block_bits)
    block = _span(code.generator[:base_bits])
    rest = code.generator[base_bits:]
    counts = np.zeros(code.n + 1, dtype=np.int64)
    counts += np.bincount(np.bitwise_count(block).astype(np.int64), minlength=code.n + 1)
    gray_steps = (1 << len(rest)) - 1
    for step in range(1, gray_steps + 1):
        flip = (step & -step).bit_length() - 1
        block ^= np.uint64(rest[flip])
        counts += np.bincount(np.bitwise_count(block).astype(np.int64), minlength=code.n + 1)
    return counts.tolist()


def _weights_by_gray_walk(code: LinearCode) -> list[int]:
    counts = [0] * (code.n + 1)
    word = 0
    counts[0] = 1
    for step in range(1, 1 << code.k):
        flip = (step & -step).bit_length() - 1
        word ^= code.generator[flip]
        counts[word.bit_count()] += 1
    return counts


def dual_code(code: LinearCode) -> LinearCode:
    """The orthogonal complement over GF(2); dim n - k."""
    return LinearCode(code.n, tuple(gf2_nullspace(code.generator, code.n)))


def krawtchouk(n: int, i: int, k: int) -> int:
    """K_i(k) = sum over j of (-1)^j C(k, j) C(n-k, i-j), exact."""
    return sum(
        (-1) ** j * comb(k, j) * comb(n - k, i - j)
        for j in range(max(0, i - (n - k)), min(i, k) + 1)
    )


def macwilliams_transform(a: WeightDistribution, n: int, k: int) -> WeightDistribution:
    """Dual weight counts b_i = (1/2^k) sum_k a_k K_i(k), exact integers.

    Raises if any b_i fails to come out an integer, which signals that the
    input was not the weight distribution of a dimension-k length-n code.
    """
    if a.n != n:
        raise ValueError(f"distribution is for length {a.n}, not {n}")
    size = 1 << k
    out = []
    for i in range(n + 1):
        num = sum(a.counts[w] * krawtchouk(n, i, w) for w in range(n + 1))
        q, r = divmod(num, size)
        if r != 0 or q < 0:
            raise ValueError(f"transform gives non-integer count at weight {i}")
        out.append(q)
    return WeightDistribution(tuple(out))


def _require_cube(code: LinearCode) -> None:
    if code.n > dimension_cap():
        raise ValueError(f"cube embedding capped at n={dimension_cap()}")


def scaled_indicator(code: LinearCode) -> CubeFunction:
    """f = (2^n / |C|) 1_C, the mean-one weighting of the code's indicator."""
    _require_cube(code)
    vals = np.zeros(1 << code.n)
    vals[codeword_masks(code)] = (1 << code.n) / code.size
    return CubeFunction(code.n, vals)


def cond_exp_norm_exponent(code: LinearCode, t_mask: SubsetMask, q: float) -> float:
    """q ln||E(f|T)||_q for the scaled indicator: (q-1)(|T| - rank(T)) ln 2."""
    if not q > 1.0:
        raise ValueError(f"need q > 1, got {q}")
    deficiency = t_mask.bit_count() - rank_of_columns(code, t_mask)
    return (q - 1.0) * deficiency * LN2


# ---------------------------------------------------------------------------
# subset rank-deficiency machinery
# ---------------------------------------------------------------------------

def _require_enumerable(n: int, cap: int | None) -> None:
    if cap is None:
        cap = max(enum_cap(), 0)
    if n > cap:
        raise ValueError(f"deficiency table capped at n={cap}, got {n}")


def deficiency_table(code: LinearCode, cap: int | None = None) -> np.ndarray:
    """|T| - rank(T) for every mask T, via a subset-zeta transform.

    The deficiency equals the log2-count of dual codewords contained in T, so
    one zeta transform of the dual indicator yields the whole table in
    O(n 2^n) vector steps.  Reports reduce it at once to
    :func:`deficiency_histogram` and do not keep it.
    """
    n = code.n
    _require_enumerable(n, cap)
    dual = dual_code(code)
    # counts are powers of two 2^d <= 2^n (a table past n = 30 would not fit
    # in memory), and 2^d - 1 has exactly d one bits
    counts = np.zeros(1 << n, dtype=np.int32)
    counts[codeword_masks(dual)] = 1
    for i in range(n):
        v = counts.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    counts -= 1
    return np.bitwise_count(counts).astype(np.int64)


def deficiency_histogram(code: LinearCode, cap: int | None = None) -> np.ndarray:
    """N[k, d] = #{T : |T| = k, |T| - rank T = d}, an (n+1) x (n-k+1) array,
    from one :func:`deficiency_table`; memoised per code (the table is not)."""
    _require_enumerable(code.n, cap)
    return _histogram(code)


@lru_cache(maxsize=4)
def _histogram(code: LinearCode) -> np.ndarray:
    width = code.n - code.k + 1
    cells = popcounts(code.n) * width
    cells += deficiency_table(code, cap=code.n)
    hist = np.bincount(cells, minlength=(code.n + 1) * width).reshape(code.n + 1, width)
    hist.setflags(write=False)
    return hist


def histogram_expectation(hist: np.ndarray, lam: float, values=None) -> float:
    """E over T ~ lam of values[|T|, d(T)] (by default of d(T) itself) from
    the deficiency histogram; `values` broadcasts against it."""
    if values is None:
        values = np.arange(hist.shape[1])
    return float(size_weights(hist.shape[0] - 1, lam) @ (hist * values).sum(axis=1))


def rank_deficiency(
    code: LinearCode,
    lam: float,
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> float:
    """lam * n - E over T ~ lam of rank(T), always nonnegative."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"erasure rate must be in [0, 1], got {lam}")
    if mode == "exact":
        return histogram_expectation(deficiency_histogram(code), lam)
    if mode == "mc":
        from .inequalities import subset_expectation_mc

        mean, _ = subset_expectation_mc(
            code.n,
            lam,
            lambda t: float(t.bit_count() - rank_of_columns(code, t)),
            samples,
            seed,
        )
        return mean
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the F(lam, q) value family
# ---------------------------------------------------------------------------

class FValue(NamedTuple):
    lam: float
    q: float
    value: float


def dual_weight_distribution(code: LinearCode) -> WeightDistribution:
    """Weight counts of the dual, by enumeration from whichever side fits."""
    cap = codeword_cap()
    if code.n - code.k <= cap:
        return weight_distribution(dual_code(code))
    if code.k <= cap:
        return macwilliams_transform(weight_distribution(code), code.n, code.k)
    raise ValueError(f"need k or n-k <= {cap} to reach the dual weights")


def _enumerator_value(code: LinearCode, theta: float) -> float:
    """log2 sum_i b_i theta^i from the dual weight counts."""
    b = dual_weight_distribution(code).counts
    return math.log2(sum(c * theta**i for i, c in enumerate(b) if c))


def noisy_indicator(code: LinearCode, eps: float) -> CubeFunction:
    """T_eps f for the scaled code indicator f, on the 2^(n-k) syndromes.

    f has Fourier coefficient 1 on the dual code and 0 elsewhere, so with
    rho = 1 - 2 eps and u = aH for the dual generator H, T_eps f(x) = g(Hx),
    g(s) = sum_a rho^wt(aH) (-1)^(a.s): one Walsh-Hadamard transform of size
    2^(n-k).  :func:`_on_cube` lays g out on the cube, bit for bit equal to
    the noise operator applied to f on all 2^n points.
    """
    _require_cube(code)
    dual = dual_code(code)
    dual_weights = np.bitwise_count(codeword_masks(dual)).astype(np.int64)
    return wht_inverse(FourierSpectrum(dual.k, (1.0 - 2.0 * eps) ** dual_weights))


def _on_cube(code: LinearCode, values: np.ndarray) -> np.ndarray:
    """values[s(x)] for every cube point x in index order, where bit j of the
    syndrome s(x) is the parity of h_j & x for the dual generator rows h_j."""
    dual = dual_code(code).generator
    columns = (sum((h >> i & 1) << j for j, h in enumerate(dual)) for i in range(code.n))
    return values[_span(columns)]


def f_value(code: LinearCode, lam: float, q: float, mode: str = "auto") -> FValue:
    """F(lam, q) = (1/(q-1)) log2 E f_eps^q at the matched noise
    eps = (1 - lam^(1/r(q)))/2, where f is the scaled code indicator.

    q = 1 is the entropy limit Ent(f at noise (1-sqrt(lam))/2); q = inf is
    log2 of the sup norm at noise (1 - lam^(2 ln 2))/2.  mode 'weights' uses
    the dual weight enumerator (valid for q in {2, inf} at any length with
    k or n-k enumerable); mode 'cube' uses :func:`noisy_indicator` (n up to
    the cube dimension cap); 'auto' picks.  Cube means run over all 2^n
    points in index order: near lam = 0.1 one ulp of the moment moves F by
    ~6e-12 of itself, and this keeps F equal to the direct cube value.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"erasure rate must be in [0, 1], got {lam}")
    if not (q == math.inf or q >= 1.0):
        raise ValueError(f"need q >= 1, got {q}")
    if mode == "auto":
        mode = "weights" if q in (2.0, math.inf) else "cube"
    theta = lam ** (2.0 * LN2)
    if mode == "weights":
        if q not in (2.0, math.inf):
            raise ValueError("weight-enumerator route only covers q = 2 and q = inf")
        return FValue(lam, q, _enumerator_value(code, theta))
    if mode != "cube":
        raise ValueError(f"unknown mode {mode!r}")
    if q == 1.0:
        eps = (1.0 - math.sqrt(lam)) / 2.0
    elif q == math.inf:
        eps = (1.0 - theta) / 2.0
    else:
        eps = noise_rate(q, lam)
    noisy = noisy_indicator(code, eps).values
    if q == math.inf:
        return FValue(lam, q, math.log2(float(noisy.max())))
    if q == 1.0:
        return FValue(lam, q, cube_entropy(CubeFunction(code.n, _on_cube(code, noisy))))
    moment = float(np.mean(_on_cube(code, np.maximum(noisy, 0.0) ** q)))
    return FValue(lam, q, math.log2(moment) / (q - 1.0))


class EnumeratorIdentityValues(NamedTuple):
    """Four routes to one number: the second-moment value F(lam, 2), the sup
    value F(lam, inf), the dual-side enumerator sum and the primal-side sum."""

    moment: float
    sup: float
    dual_sum: float
    primal_sum: float

    def spread(self) -> float:
        vals = (self.moment, self.sup, self.dual_sum, self.primal_sum)
        return max(vals) - min(vals)


def enumerator_identities(code: LinearCode, lam: float) -> EnumeratorIdentityValues:
    """Evaluate, with theta = lam^(2 ln 2):

    F(lam, 2) and F(lam, inf) on the cube, log2 sum_i b_i theta^i from the
    dual weights, and log2((1/|C|) sum_k a_k (1-theta)^k (1+theta)^(n-k))
    from the primal weights.  All four agree for every linear code.
    """
    theta = lam ** (2.0 * LN2)
    if code.n <= dimension_cap():
        moment = f_value(code, lam, 2.0, mode="cube").value
        sup = f_value(code, lam, math.inf, mode="cube").value
    else:
        moment = f_value(code, lam, 2.0, mode="weights").value
        sup = f_value(code, lam, math.inf, mode="weights").value
    dual_sum = _enumerator_value(code, theta)
    a = weight_distribution(code).counts
    primal = sum(
        c * (1.0 - theta) ** w * (1.0 + theta) ** (code.n - w)
        for w, c in enumerate(a)
        if c
    )
    primal_sum = math.log2(primal / code.size)
    return EnumeratorIdentityValues(moment, sup, dual_sum, primal_sum)


def alpha_reversal_holds(a: WeightDistribution, alpha: Fraction) -> bool:
    """Exact check of sum_k a_k alpha^(n-k) <= sum_k a_k alpha^k for alpha in [0,1]."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    n = a.n
    low = sum(c * alpha ** (n - w) for w, c in enumerate(a.counts))
    high = sum(c * alpha**w for w, c in enumerate(a.counts))
    return low <= high


# ---------------------------------------------------------------------------
# weight-distribution bounds
# ---------------------------------------------------------------------------

def dual_weight_bound(
    code: LinearCode, lam: float, i: int, mode: str = "exact"
) -> float:
    """Upper bound lam^(-(2 ln 2) i) 2^(lam n - E rank(T)) on the dual count b_i."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"erasure rate must be in [0, 1], got {lam}")
    if not 0 <= i <= code.n:
        raise ValueError(f"weight index out of range: {i}")
    if lam == 0.0:
        return 1.0 if i == 0 else math.inf
    deficiency = rank_deficiency(code, lam, mode=mode)
    return lam ** (-(2.0 * LN2) * i) * 2.0**deficiency


def bec_bound_dual_side(n: int, rate: float, k: int) -> float:
    """Primal count bound (1/(1-R))^((2 ln 2) k*) when the dual code recovers
    erasures at its rate; the subexponential factor is set to 1."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    if not 0 <= k <= n:
        raise ValueError(f"weight out of range: {k}")
    k_star = min(k, n - k)
    return (1.0 / (1.0 - rate)) ** (2.0 * LN2 * k_star)


def bec_dual_exponent(rate: float, k_star: int) -> float:
    """log2 of :func:`bec_bound_dual_side`: (2 ln 2) k* log2(1/(1-R))."""
    return 2.0 * LN2 * k_star * math.log2(1.0 / (1.0 - rate))


def bec_bound_primal_side(n: int, rate: float, k: int, code_size: int) -> float:
    """Primal count bound when the code itself recovers erasures at its rate,
    with theta = R^(2 ln 2):  |C| / ((1-theta)^k* (1+theta)^(n-k*)) while
    k* <= (1-theta) n / 2, and C(n, k*) |C| / 2^n beyond; the subexponential
    factor is set to 1."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    if not 0 <= k <= n:
        raise ValueError(f"weight out of range: {k}")
    theta = rate ** (2.0 * LN2)
    k_star = min(k, n - k)
    if k_star <= (1.0 - theta) / 2.0 * n:
        return code_size / ((1.0 - theta) ** k_star * (1.0 + theta) ** (n - k_star))
    return comb(n, k_star) * code_size / 2.0**n


def sberlo_exponent(n: int, rate: float, k: int, constant: float = 30.0) -> float:
    """Exponent C R k* (2 log2(n/k*) + 3) of the literature comparison bound."""
    k_star = min(k, n - k)
    if k_star < 1:
        raise ValueError("comparison bound needs 1 <= k* <= n/2")
    return constant * rate * k_star * (2.0 * math.log2(n / k_star) + 3.0)


def sberlo_bound(n: int, rate: float, k: int, constant: float = 30.0) -> float:
    """The comparison bound itself; +inf when it overflows a double."""
    try:
        return 2.0 ** sberlo_exponent(n, rate, k, constant)
    except OverflowError:
        return math.inf


def sberlo_comparison_rows(n: int, rate: float, k_max: int) -> list[dict]:
    """Exponent table comparing the erasure-based dual-side bound with the
    literature bound for 1 <= k* <= k_max."""
    rows = []
    for k_star in range(1, k_max + 1):
        ours = bec_dual_exponent(rate, k_star)
        theirs = sberlo_exponent(n, rate, k_star)
        rows.append(
            {
                "k_star": k_star,
                "dual_side_exponent": ours,
                "comparison_exponent": theirs,
                "dual_side_smaller": ours < theirs,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Reed-Muller construction
# ---------------------------------------------------------------------------

def reed_muller(r: int, m: int) -> LinearCode:
    """RM(r, m): evaluation vectors of all monomials of degree <= r in m
    boolean variables, length 2^m, dimension sum over i <= r of C(m, i)."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    n = 1 << m
    rows = []
    for degree in range(r + 1):
        for s_mask in range(1 << m):
            if s_mask.bit_count() != degree:
                continue
            row = 0
            for x in range(n):
                if x & s_mask == s_mask:
                    row |= 1 << x
            rows.append(row)
    return LinearCode(n, tuple(rows))


# ---------------------------------------------------------------------------
# file format: line 1 "k n", then k rows of n characters from {0, 1}
# ---------------------------------------------------------------------------

def parse_bit_matrix(text: str, source: str = "<string>") -> tuple[list[int], int, int]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{source}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{source}: first line must be 'k n'")
    k, n = int(head[0]), int(head[1])
    if len(lines) - 1 != k:
        raise ValueError(f"{source}: expected {k} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"{source}: rows must be {n} characters of 0/1")
        rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    return rows, k, n


def load_code(path: str) -> LinearCode:
    with open(path, "r", encoding="ascii") as fh:
        rows, _, n = parse_bit_matrix(fh.read(), source=path)
    return LinearCode(n, tuple(rows))


def dump_bit_matrix(rows: Iterable[int], n: int, path: str) -> None:
    rows = list(rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(rows)} {n}\n")
        for row in rows:
            fh.write("".join("1" if row >> j & 1 else "0" for j in range(n)) + "\n")
