"""Binary linear codes over GF(2): rank functions, weight distributions, the
noise/erasure value family F(lam, q), and all code-facing bounds.

Matrices are stored row-major as Python ints, one machine word per row for
n <= 64 and arbitrary-precision beyond; column j (1-based) is bit j-1, the
same convention the cube module uses for coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cube import _NORMS_BLOCK, CubeFunction, SubsetMask, _butterfly, _clean_values, _zeta
from .cube import _entropy_from_sums, _pairwise_order, _plogp, _require_dimension, check_size, popcounts, size_cap
from .inequalities import LN2, _mean_stderr, _pooled_draws, _require_mode, layer_expectations, noise_rate

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

    # Tables derived from the code are cached on it, so each is built once
    # and freed with the code.

    @cached_property
    def dual(self) -> LinearCode:
        """The orthogonal complement over GF(2); dim n - k."""
        return LinearCode(self.n, tuple(gf2_nullspace(self.generator, self.n)))

    @cached_property
    def syndrome_layout(self) -> SyndromeLayout:
        """The 2^(n-k) syndromes relabelled for sums in cube order (see
        :func:`_cube_sums`).  The syndrome s(x) of a cube point x has bit j
        the parity of h_j & x for the dual generator rows h_j, so s is linear
        and s(x) is the XOR of the syndromes of x's coordinates.  The labels
        are coordinates in a basis of coordinate syndromes, taken greedily in
        the reverse of the order in which numpy's sum tree pairs coordinates
        and then the lane coordinates (:func:`_pairwise_order`): so the
        syndromes spanned by the coordinates a level of the tree has yet to
        pair are the labels 0 to 2^d - 1."""
        dual = self.dual.generator
        columns = [sum((h >> i & 1) << j for j, h in enumerate(dual)) for i in range(self.n)]
        lanes, pairs = _pairwise_order(self.n)
        basis: list[int] = []
        pivots: dict[int, tuple[int, int]] = {}  # top bit -> (vector, its label)
        labels = [0] * self.n
        for i in pairs[::-1] + lanes:
            vector, label = columns[i], 0
            while vector and vector.bit_length() - 1 in pivots:
                pivot, pivot_label = pivots[vector.bit_length() - 1]
                vector ^= pivot
                label ^= pivot_label
            if vector:  # a new basis vector: columns[i] = vector ^ (the labelled sum)
                pivots[vector.bit_length() - 1] = (vector, label ^ (1 << len(basis)))
                label = 1 << len(basis)
                basis.append(columns[i])
            labels[i] = label
        syndromes = _span(basis, np.intp)
        syndromes.setflags(write=False)
        return SyndromeLayout(tuple(labels), syndromes)

    @cached_property
    def weights(self) -> WeightDistribution:
        """Weight counts a_0..a_n, by enumerating all 2^k codewords."""
        check_size("CUBENOISE_MAX_K", "weight enumeration", "k", self.k, "raise CUBENOISE_MAX_K")
        return WeightDistribution(tuple(_weights_by_blocks(self)))

    @cached_property
    def dual_weights(self) -> WeightDistribution:
        """Weight counts b_0..b_n of the dual, by enumeration of the dual
        within the codeword cap, else by MacWilliams from :attr:`weights`."""
        if self.n - self.k <= size_cap("CUBENOISE_MAX_K"):
            return self.dual.weights
        return macwilliams_transform(self.weights, self.n, self.k)

    @cached_property
    def codeword_weights(self) -> np.ndarray:
        """The weight of every codeword, in the order of
        :func:`codeword_masks`, as uint8 (read-only)."""
        weights = np.bitwise_count(codeword_masks(self))
        weights.setflags(write=False)
        return weights

    @cached_property
    def histogram(self) -> np.ndarray:
        """N[s, d] = #{T : |T| = s, |T| - rank T = d}, an (n+1) x (n-k+1)
        int64 array, from :func:`_projected_histogram` of the side of larger
        dimension, with no 2^n array.

        That side D is the code itself when k >= n - k and its dual
        otherwise, so only the 2^min(k, n-k) codewords of the other side are
        listed.  The dual's histogram gives the code's by matroid duality:
        with T' the complement of T, rank T = k - |T'| + rank_dual T', so
        d(T) = |T| - k + d_dual(T') and N[s, d] = N_dual[n - s, d + k - s]."""
        n, k = self.n, self.k
        _check_table_size(n)
        if 2 * k >= n:
            hist = _projected_histogram(self, self.dual)
        else:
            # row s of the dual's (n+1) x (k+1) histogram, reversed, is laid
            # out from flat position s (n + 2), so that position s (n + 1) + t
            # holds N_dual[n - s, t - s]: N[s, d] at t = d + k, and zero
            # where t - s is not in 0..k
            flat = np.zeros((n + 1) * (n + 2), dtype=np.int64)
            flat.reshape(n + 1, n + 2)[:, : k + 1] = _projected_histogram(self.dual, self)[::-1]
            hist = flat[: (n + 1) ** 2].reshape(n + 1, n + 1)[:, k:]
        hist.setflags(write=False)
        return hist


class SyndromeLayout(NamedTuple):
    """`labels[i]`: the label of the syndrome of cube coordinate i, so the
    label of a point is the XOR of its coordinates' labels; `syndromes[l]`:
    the syndrome with label l, as np.intp (numpy's index type, so gathers
    through it cast nothing)."""

    labels: tuple[int, ...]
    syndromes: np.ndarray


def rank_of_columns(code: LinearCode, t_mask: SubsetMask) -> int:
    """Rank of the generator's column submatrix indexed by T."""
    return gf2_rank(row & t_mask for row in code.generator)


def _span(rows: Iterable[int], dtype=np.uint64) -> np.ndarray:
    """XOR of every subset a of the rows, at index a (bit j <-> row j), as
    `dtype` (uint64 by default)."""
    rows = list(rows)
    words = np.zeros(1 << len(rows), dtype=dtype)
    for i, row in enumerate(rows):
        np.bitwise_xor(words[: 1 << i], words.dtype.type(row), out=words[1 << i : 2 << i])
    return words


def codeword_masks(code: LinearCode) -> np.ndarray:
    """All 2^k codewords as uint64 masks (requires n <= 64), by span doubling."""
    if code.n > 64:
        raise ValueError("vectorized enumeration needs n <= 64")
    check_size("CUBENOISE_MAX_K", "codeword enumeration", "k", code.k, "raise CUBENOISE_MAX_K")
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


def _weights_by_blocks(code: LinearCode, block_bits: int = 20) -> list[int]:
    # span of the first <= block_bits rows held as one uint64 block per 64
    # coordinates, remaining rows folded in by a Gray-code walk of whole-block
    # XORs; a codeword's weight is the sum of its blocks' popcounts
    shifts = range(0, code.n, 64)
    word = (1 << 64) - 1
    base_bits = min(code.k, block_bits)
    blocks = [_span(row >> s & word for row in code.generator[:base_bits]) for s in shifts]
    rest = [[np.uint64(row >> s & word) for s in shifts] for row in code.generator[base_bits:]]
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for step in range(1 << len(rest)):
        if step:
            for block, flip in zip(blocks, rest[(step & -step).bit_length() - 1]):
                block ^= flip
        weights = np.bitwise_count(blocks[0]).astype(np.int64)
        for block in blocks[1:]:
            weights += np.bitwise_count(block)
        counts += np.bincount(weights, minlength=code.n + 1)
        del weights  # freed before the next step's, so the allocator reuses its pages
    return counts.tolist()


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
        num = sum(c * krawtchouk(n, i, w) for w, c in enumerate(a.counts) if c)
        q, r = divmod(num, size)
        if r != 0 or q < 0:
            raise ValueError(f"transform gives non-integer count at weight {i}")
        out.append(q)
    return WeightDistribution(tuple(out))


def scaled_indicator(code: LinearCode) -> CubeFunction:
    """f = (2^n / |C|) 1_C, the mean-one weighting of the code's indicator."""
    _require_dimension(code.n)  # before the 2^n values are made
    vals = np.zeros(1 << code.n)
    vals[codeword_masks(code)] = (1 << code.n) / code.size
    return CubeFunction(code.n, vals)


# ---------------------------------------------------------------------------
# subset rank-deficiency machinery
# ---------------------------------------------------------------------------

# the counts of 2^d: little-endian, so that their bytes are counted in place
_COUNT_DTYPES = tuple(np.dtype(f"<u{size}") for size in (1, 2, 4))
# LinearCode.histogram projects onto this many low coordinates: 2^(2^4)
# bit sets of F_2^4, one lookup entry each (see _subspace_classes)
_PROJECTED_BITS = 4


def _check_table_size(n: int) -> None:
    """Refuse a subset count over 2^n masks past CUBENOISE_MAX_N, or past
    n = 32 (d <= n - k takes at most 32 bits, the widest count)."""
    route = "use --mode mc for a code report, or raise CUBENOISE_MAX_N for a matroid report"
    check_size("CUBENOISE_MAX_N", "deficiency table", "n", n, route)
    if n > 32:
        raise ValueError(f"deficiency table capped at n=32, got {n}")


def _count_dtype(bits: int) -> np.dtype:
    """The narrowest count dtype of at least `bits` bits: counts of 2^d with
    d <= bits, taken modulo 2^width, keep 2^d - 1 exact (2^width wraps to 0,
    and 0 - 1 is 2^width - 1)."""
    return next(t for t in _COUNT_DTYPES if bits <= 8 * t.itemsize)


def _log2_counts(counts: np.ndarray) -> np.ndarray:
    """d from counts of 2^d (modulo 2^width, see :func:`_count_dtype`), in
    place: 2^d - 1 has exactly d one bits, and they are counted a byte at a
    time.  numpy's np.bitwise_count has no fast 16-bit loop (numpy 2.4 on a
    2-core Xeon: 0.49 ms on 2^19 values as uint16, 0.16 ms as uint32, 0.03
    ms as uint8), and one multiply by 0x01...01 and one shift add a word's
    byte counts into its top byte and bring them down, so no second array is
    made."""
    counts -= 1
    octets = counts.view(np.uint8)
    np.bitwise_count(octets, out=octets)
    # the byte counts are at most 32, so no carry; uint8 counts already hold
    # d, and the identity multiply and shift on them (times 1, >> 0) took 6%
    # of an n = 16 histogram
    if counts.itemsize > 1:
        counts *= np.iinfo(counts.dtype).max // 255
        counts >>= 8 * counts.itemsize - 8
    return counts


def deficiency_table(code: LinearCode) -> np.ndarray:
    """|T| - rank(T) for every mask T, the tests' per-mask oracle: no report
    builds it, as :attr:`LinearCode.histogram` counts the same (size,
    deficiency) pairs with no 2^n array.  d(T) is the log2-count of the dual
    codewords within T, so one :func:`_zeta` of the dual's indicator counts
    them, in the narrowest unsigned dtype of at least n - k bits (uint8 up to
    n - k = 8, uint16 up to 16, uint32 up to 32, so n stops at 32 whatever
    the cap, checked before any 2^n table is built), and :func:`_log2_counts`
    turns each count into d in place."""
    _check_table_size(code.n)
    counts = np.zeros(1 << code.n, dtype=_count_dtype(code.n - code.k))
    counts[codeword_masks(code.dual)] = 1
    return _log2_counts(_zeta(counts))


def _pivot_columns(code: LinearCode, count: int) -> list[int]:
    """The first `count` pivot columns of the generator's reduced row
    echelon form: in ascending order, the columns independent of the columns
    before them.  Pivot columns are independent, so no nonzero dual codeword
    lies within them."""
    pivots: dict[int, int] = {}  # top bit -> reduced column
    found: list[int] = []
    for col in range(code.n):
        if len(found) == count:
            break
        column = sum((row >> col & 1) << i for i, row in enumerate(code.generator))
        while column and column.bit_length() - 1 in pivots:
            column ^= pivots[column.bit_length() - 1]
        if column:
            pivots[column.bit_length() - 1] = column
            found.append(col)
    return found


def _listed_parts(listed: LinearCode, low: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every codeword w of `listed` with coordinate low[j] at bit j, for j
    below b = len(low), and the other coordinates above in ascending order,
    split into its high part w >> b, as np.intp, and its low part
    w & (2^b - 1), as uint8."""
    b = len(low)

    def relabel(h: int) -> int:
        word = sum((h >> c & 1) << j for j, c in enumerate(low))
        for c in sorted(low, reverse=True):
            h = h & ((1 << c) - 1) | h >> (c + 1) << c
        return word | h << b

    words = codeword_masks(LinearCode(listed.n, tuple(map(relabel, listed.generator))))
    high = np.right_shift(words, b, out=np.empty(words.shape, np.intp), casting="unsafe")
    return high, (words & ((1 << b) - 1)).astype(np.uint8)


@cache
def _subspace_classes(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The subspaces P of F_2^bits, each held as the bit set of its vectors
    (bit v set for each vector v of P), grouped by their table G[l, j], the
    number of coordinate sets L of size l with dim(P ∩ F_2^L) = j, where
    F_2^L holds the vectors within L.  Returns (classes, tables): classes,
    uint8 over all 2^(2^bits) bit sets, gives the class of each subspace and
    len(tables) at every other bit set; tables[c], int64 (bits+1) x
    (bits+1), is the G of class c.  Read-only, built on first use (64 KiB at
    4 bits: 67 subspaces in 16 classes)."""
    vectors = range(1 << bits)
    spaces, grown = {1}, [1]  # {0} is the bit set 1
    while grown:
        space = grown.pop()
        members = [v for v in vectors if space >> v & 1]
        for v in vectors:
            wider = space | sum(1 << (u ^ v) for u in members)
            if wider not in spaces:
                spaces.add(wider)
                grown.append(wider)
    within = [sum(1 << v for v in vectors if v & ~sets == 0) for sets in vectors]
    found: dict[bytes, int] = {}
    tables = []
    classes = np.zeros(1 << (1 << bits), dtype=np.uint8)
    for space in sorted(spaces):
        table = np.zeros((bits + 1, bits + 1), dtype=np.int64)
        for sets in vectors:
            table[sets.bit_count(), (space & within[sets]).bit_count().bit_length() - 1] += 1
        classes[space] = found.setdefault(table.tobytes(), len(tables))
        if classes[space] == len(tables):
            tables.append(table)
    others = np.ones(classes.shape, dtype=bool)
    others[sorted(spaces)] = False
    classes[others] = len(tables)
    tables = np.array(tables)
    classes.setflags(write=False)
    tables.setflags(write=False)
    return classes, tables


@cache
def _class_shifts(bits: int, m: int) -> np.ndarray:
    """Y[(c, e), (l, d)] = G_c[l, d - e] (0 where d - e is not in 0..bits)
    for the class tables G_c of :func:`_subspace_classes` (bits), e and d
    below m + 1, as a read-only float64 matrix: a cell (c, |H|, e) of
    :func:`_projected_histogram` adds its row to N[|H| + l, d]."""
    tables = _subspace_classes(bits)[1]
    shifts = np.zeros((len(tables), m + 1, bits + 1, m + bits + 1))
    for e in range(m + 1):
        shifts[:, e, :, e : e + bits + 1] = tables
    shifts = shifts[..., : m + 1].reshape((m + 1) * len(tables), -1)
    shifts.setflags(write=False)
    return shifts


def _projected_histogram(side: LinearCode, listed: LinearCode) -> np.ndarray:
    """The (size, deficiency) histogram of `side`, (n+1) x (n-k+1) int64,
    from the codewords of its dual `listed`, with no 2^n array.

    d(T) is the log2-count of the listed codewords within T.  Put b =
    min(4, k) pivot columns of `side` (:func:`_pivot_columns`) at the low
    bits and split each mask into a high part H and a low part L.  The
    listed codewords with high part within H form a subspace W_H; its low
    parts form a subspace P_H of F_2^b and its words with low part 0 number
    2^e_H, so the words of W_H within L number 2^e_H |P_H ∩ F_2^L|, and
    d(H ∪ L) = e_H + dim(P_H ∩ F_2^L).  Pivot columns are independent, so
    no nonzero listed codeword lies within the low bits, and each high part
    h holds at most one: P_H, as a bit set of F_2^b, is the union over h
    within H of the bit of h's codeword's low part, one np.bitwise_or zeta
    over the high bits (:func:`_zeta`), and 2^e_H is the number of h within
    H whose codeword has low part 0, one add zeta in the narrowest count
    dtype.  N depends on P_H only through its class
    (:func:`_subspace_classes`), so one bincount over (class of P_H, |H|,
    e_H) and one product with the class tables G[l, j] give
    N[|H| + l, e_H + j].  The product runs in float64, exact as every
    entry and sum is an integer below 2^53 (the counts sum to 2^(n-b), and
    G is at most 6)."""
    n, m = side.n, listed.k
    b = min(side.k, _PROJECTED_BITS)
    high, low = _listed_parts(listed, _pivot_columns(side, b))
    sets = np.zeros(1 << (n - b), dtype=np.uint16)
    sets[high] = np.left_shift(1, low, dtype=np.uint16)
    counts = np.zeros(sets.shape, dtype=_count_dtype(m))
    counts[high[low == 0]] = 1
    del high, low
    _zeta(sets, op=np.bitwise_or)
    _log2_counts(_zeta(counts))
    classes, tables = _subspace_classes(b)
    sets = classes.take(sets)
    # key (class (n - b + 1) + |H|) (m + 1) + e_H, |H| the popcount of the
    # row plus that of the column of H in a (2^(n-b-c), 2^c) layout
    stride = (n - b + 1) * (m + 1)
    keys = np.multiply(sets, stride, dtype=np.intp)
    del sets
    keys += counts
    del counts
    c = (n - b) // 2
    grid = keys.reshape(-1, 1 << c)
    grid += popcounts(n - b - c)[:, None] * (m + 1)
    grid += popcounts(c) * (m + 1)
    # a bit set of no subspace is class len(tables), past the counted cells
    cells = np.bincount(keys, minlength=len(tables) * stride).reshape(len(tables), n - b + 1, m + 1)
    rows = cells.transpose(1, 0, 2).reshape(n - b + 1, -1) @ _class_shifts(b, m)
    parts = rows.astype(np.int64).reshape(n - b + 1, b + 1, m + 1)
    hist = np.zeros((n + 1, m + 1), dtype=np.int64)
    for l in range(b + 1):
        hist[l : l + n - b + 1] += parts[:, l]
    return hist


def deficiency_expectation(
    code: LinearCode,
    rates: Sequence[float],
    values=None,
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """E over T ~ lam of values[|T|, d(T)] with d(T) = |T| - rank T, and its
    standard error (0 in exact mode), at every rate lam of the grid.  By
    default the values are d(T) itself, and the mean is the rank deficiency
    lam n - E rank(T), always nonnegative.  `values` broadcasts against the
    (size, deficiency) histogram, or, given a leading axis of len(rates)
    (three dimensions), holds one such table per rate.

    The one exact/Monte Carlo dispatch for code, matroid and graph subset
    averages.  Exact mode reduces the code's :attr:`LinearCode.histogram`
    against the values to layer sums, one row per rate where the values
    differ by rate, for one
    :func:`cubenoise.inequalities.layer_expectations` call, so each mean is
    that of a one-rate call; mc mode makes one draw of the grid and ranks
    each distinct mask once."""
    for lam in rates:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"erasure rate must be in [0, 1], got {lam}")
    _require_mode(mode)
    if not len(rates):
        return []
    width = code.n - code.k + 1
    values = np.arange(width) if values is None else values
    if mode == "exact":
        means = layer_expectations(rates, (code.histogram * values).sum(axis=-1))
        return [(mean, 0.0) for mean in means]
    cells = np.broadcast_to(values, (len(rates), code.n + 1, width))
    pool, draws = _pooled_draws(code.n, rates, samples, seed)
    masks = pool.tolist()
    sizes = np.array([t.bit_count() for t in masks], dtype=np.intp)
    deficits = sizes - [rank_of_columns(code, t) for t in masks]
    return [_mean_stderr(cells[i, sizes[d], deficits[d]].astype(np.float64)) for i, d in enumerate(draws)]


# ---------------------------------------------------------------------------
# the F(lam, q) value family
# ---------------------------------------------------------------------------

def _enumerator_value(code: LinearCode, theta: float) -> float:
    """log2 sum_i b_i theta^i from the dual weight counts."""
    b = code.dual_weights.counts
    return math.log2(sum(c * theta**i for i, c in enumerate(b) if c))


def _prefix(labels: Iterable[int]) -> int:
    """The size 2^d of the label prefix that `labels` span (see
    :attr:`LinearCode.syndrome_layout`)."""
    return 1 << max(labels, default=0).bit_length()


def _xor_take(rows: np.ndarray, offset: int, size: int) -> np.ndarray:
    """rows[:, l ^ offset] for the labels l below `size`, a power of two: a
    slice, then a gather when offset has bits below size."""
    start, low = offset & -size, offset & (size - 1)
    part = rows[:, start : start + size]
    return np.take(part, np.arange(size) ^ low, axis=1) if low else part


def _cube_sums(rows: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """np.add.reduce of each row laid out on the cube, bit for bit, without
    the layout: the sum over cube points x in index order of row[l(x)], where
    the label l(x) is the XOR of labels[i] over the coordinates i of x.

    Every node of numpy's sum tree (:func:`_pairwise_order`) covers an
    aligned block of points, and its value depends only on the label of the
    block's first point: so the tree runs level by level over labels, each
    level holding one sum per label of a first point, and float addition
    being commutative, every add is one numpy makes.  With the labels of
    :attr:`LinearCode.syndrome_layout` a level's first points are a prefix
    of labels, so pairing over a coordinate whose label adds a basis vector
    adds the two halves of the prefix, and over any other coordinate adds a
    gather within it.  Work and memory are O(2^(n-k)) a row.
    """
    lanes, pairs = _pairwise_order(len(labels))
    size = _prefix(labels[i] for i in pairs)
    sums = rows[:, :size].copy()
    for offset in _span((labels[i] for i in lanes), np.intp)[1:].tolist():
        sums += _xor_take(rows, offset, size)
    for j, i in enumerate(pairs):
        size = _prefix(labels[c] for c in pairs[j + 1 :])
        sums = sums[:, :size] + _xor_take(sums, labels[i], size)
    return sums[:, 0] + 0.0  # numpy adds the sum to its initial 0.0


def _noisy_rows(code: LinearCode, eps_grid: Sequence[float]) -> np.ndarray:
    """T_eps f for the scaled code indicator f and every eps of the grid, as
    the rows of one array, on the 2^(n-k) syndromes in label order
    (:attr:`LinearCode.syndrome_layout`).

    f has Fourier coefficient 1 on the dual code and 0 elsewhere, so with
    rho = 1 - 2 eps and u = aH for the dual generator H, T_eps f(x) = g(Hx),
    g(s) = sum_a rho^wt(aH) (-1)^(a.s): one Walsh-Hadamard transform of size
    2^(n-k) per eps, all run by one set of butterflies, which gives each row
    the values its own transform would.
    """
    weights = code.dual.codeword_weights
    rows = np.empty((len(eps_grid), weights.size))
    for row, eps in zip(rows, eps_grid):
        np.power(1.0 - 2.0 * eps, weights, out=row)
    return _butterfly(rows)[:, code.syndrome_layout.syndromes]


def _syndrome_values(
    code: LinearCode, points: Iterable[tuple[float, float]]
) -> dict[tuple[float, float], float]:
    """F at each (eps, q) of `points` from T_eps f on the syndromes, in blocks
    of at most _NORMS_BLOCK values (one point each past that size), each
    block one :func:`_block_values` call, whose tables are freed before the
    next block is built."""
    m = code.n - code.k
    what = "F(lambda, q) for q other than 2 and inf, on the 2^(n-k) syndromes,"
    check_size("CUBENOISE_MAX_N", what, "n-k", m, "use --q 2,inf (q = 2 and inf run on the weight enumerator)")
    points = list(dict.fromkeys(points))
    step = max(1, _NORMS_BLOCK >> m)
    out = {}
    for start in range(0, len(points), step):
        out.update(_block_values(code, points[start : start + step]))
    return out


def _block_values(
    code: LinearCode, points: list[tuple[float, float]]
) -> dict[tuple[float, float], float]:
    """F at each (eps, q) of `points` from one set of transforms
    (:func:`_noisy_rows`) for their rates: q = inf from the max, and every
    other q from sums over the cube in index order, all in one
    :func:`_cube_sums` call, which equals numpy's sum of the direct cube
    evaluation bit for bit.  q = 1 is the entropy of T_eps f from its sums
    of g and of g log2 g (cube._plogp), g the row cleaned of transform
    roundoff once; any other q is the mean of max(T_eps f, 0)^q."""
    rates = list(dict.fromkeys(eps for eps, _ in points))
    noisy = dict(zip(rates, _noisy_rows(code, rates)))
    summed = [(eps, q) for eps, q in points if q != math.inf]
    table = np.empty((len(summed) + sum(q == 1.0 for _, q in summed), 1 << (code.n - code.k)))
    rows = iter(table)
    for eps, q in summed:
        row = next(rows)
        if q == 1.0:
            row[...] = _clean_values(noisy[eps])
            _plogp(row, out=next(rows))
        else:
            np.maximum(noisy[eps], 0.0, out=row)
            row **= q  # the ** operator, as on a whole array: it squares at q = 2
    sums = iter(_cube_sums(table, code.syndrome_layout.labels)[:, None])
    out = {}
    for eps, q in points:
        if q == math.inf:
            out[eps, q] = math.log2(float(noisy[eps].max()))
        elif q == 1.0:
            out[eps, q] = float(_entropy_from_sums(next(sums), next(sums), 1 << code.n)[0])
        else:
            out[eps, q] = math.log2(float(next(sums)[0]) / (1 << code.n)) / (q - 1.0)
    return out


class EnumeratorIdentityValues(NamedTuple):
    """Four routes to one number: the second-moment value F(lam, 2), the sup
    value F(lam, inf), the dual-side enumerator sum and the primal-side sum."""

    moment: float | None
    sup: float | None
    dual_sum: float
    primal_sum: float

    def spread(self) -> float:
        """Largest difference between the routes that were computed."""
        vals = [v for v in self if v is not None]
        return max(vals) - min(vals)


class FRow(NamedTuple):
    """F at one lam: `values[j]` at the j-th q of the grid, and the four
    routes of the enumerator identity."""

    values: tuple[float, ...]
    identities: EnumeratorIdentityValues


def f_sweep(code: LinearCode, lam_grid: Sequence[float], q_grid: Sequence[float]) -> list[FRow]:
    """F(lam, q) = (1/(q-1)) log2 E f_eps^q at the matched noise
    eps = (1 - lam^(1/r(q)))/2, f the scaled code indicator, for every lam
    and q of the grids, with the enumerator identities at each lam.

    q = 1 is the entropy limit Ent(f at noise (1-sqrt(lam))/2); q = inf is
    log2 of the sup norm at noise (1 - lam^(2 ln 2))/2.  q = 2 and q = inf
    come from the dual weight enumerator (any length with k or n-k
    enumerable); every other q from T_eps f on the syndromes
    (:func:`_syndrome_values`, n - k up to CUBENOISE_MAX_N).

    The identities set, with theta = lam^(2 ln 2), the syndrome route's
    F(lam, 2) and F(lam, inf) against log2 sum_i b_i theta^i from the dual
    weights and log2((1/|C|) sum_k a_k (1-theta)^k (1+theta)^(n-k)) from the
    primal weights; all four agree for every linear code.  Past the cap
    on n - k the moment and sup routes are not run (their enumerator route is
    the dual sum itself), and they are None.
    """
    lam_grid, q_grid = list(lam_grid), list(q_grid)
    for lam in lam_grid:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"erasure rate must be in [0, 1], got {lam}")
    for q in q_grid:
        if not (q == math.inf or q >= 1.0):
            raise ValueError(f"need q >= 1, got {q}")

    def point(lam: float, q: float) -> tuple[float, float]:
        if q == 1.0:
            return (1.0 - math.sqrt(lam)) / 2.0, q
        if q == math.inf:
            return (1.0 - lam ** (2.0 * LN2)) / 2.0, q
        return noise_rate(q, lam), q

    points = [point(lam, q) for lam in lam_grid for q in q_grid if q not in (2.0, math.inf)]
    checked = code.n - code.k <= size_cap("CUBENOISE_MAX_N")
    if checked:
        points += [point(lam, q) for lam in lam_grid for q in (2.0, math.inf)]
    values = _syndrome_values(code, points) if points else {}
    a = code.weights.counts
    rows = []
    for lam in lam_grid:
        theta = lam ** (2.0 * LN2)
        dual_sum = _enumerator_value(code, theta)
        primal = sum(c * (1.0 - theta) ** w * (1.0 + theta) ** (code.n - w) for w, c in enumerate(a) if c)
        identities = EnumeratorIdentityValues(
            values[point(lam, 2.0)] if checked else None,
            values[point(lam, math.inf)] if checked else None,
            dual_sum,
            math.log2(primal / code.size),
        )
        row = tuple(dual_sum if q in (2.0, math.inf) else values[point(lam, q)] for q in q_grid)
        rows.append(FRow(row, identities))
    return rows


# A result of the paper that no report checks yet.
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

# A result of the paper that no report checks yet.
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
    ((deficiency, _),) = deficiency_expectation(code, [lam], mode=mode)
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


# The constant C of the literature comparison bound.
_SBERLO_CONSTANT = 30.0


def sberlo_exponent(n: int, rate: float, k: int) -> float:
    """Exponent C R k* (2 log2(n/k*) + 3), C = 30, of the literature
    comparison bound."""
    k_star = min(k, n - k)
    if k_star < 1:
        raise ValueError("comparison bound needs 1 <= k* <= n/2")
    return _SBERLO_CONSTANT * rate * k_star * (2.0 * math.log2(n / k_star) + 3.0)


def sberlo_bound(n: int, rate: float, k: int) -> float:
    """The comparison bound itself; +inf when it overflows a double."""
    try:
        return 2.0 ** sberlo_exponent(n, rate, k)
    except OverflowError:
        return math.inf


# A result of the paper that no report checks yet.
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

def _natural(field: str, token: str) -> int:
    """`token` as the nonnegative integer `field`."""
    if not token.isdecimal():
        raise ValueError(f"{field} must be a nonnegative integer, got {token!r}")
    return int(token)


def _read_file(path: str, parse):
    """parse(the text of the ASCII file at `path`), every refusal starting with the path."""
    try:
        with open(path, encoding="ascii") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_bit_matrix(text: str) -> tuple[int, tuple[int, ...]]:
    """(n, rows) of a 'k n' line and then k rows of n characters of 0/1."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'k n'")
    k, n = map(_natural, "kn", head)
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} rows, got {len(lines) - 1}")
    for i, ln in enumerate(lines[1:], 1):
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"row {i} must be {n} characters of 0/1")
    return n, tuple(int(ln[::-1], 2) for ln in lines[1:])  # column j is bit j - 1


def load_code(path: str) -> LinearCode:
    return _read_file(path, lambda text: LinearCode(*parse_bit_matrix(text)))
