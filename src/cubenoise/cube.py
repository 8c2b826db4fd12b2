"""Real-valued functions on the boolean cube {0,1}^n and their calculus:
Walsh-Hadamard transforms, the noise operator, conditional expectations over
coordinate subsets, norms, entropies and the Dirichlet form.

Conventions shared by the whole package:

* a point x = (x_1, ..., x_n) is stored at integer index sum_i x_i * 2^(i-1);
* a coordinate subset T is a bitmask with bit (i-1) set iff coordinate i is in T;
* all expectations are with respect to the uniform measure on the cube;
* entropies are reported in bits (base-2 logs), while the gap verifiers in
  :mod:`cubenoise.inequalities` work with natural logs throughout.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# A coordinate subset, as a bitmask over coordinates 1..n (bit i-1 <-> coordinate i).
SubsetMask = int

# Every size cap, each an environment variable and its default.
CAPS = {
    # every table of 2^m entries: a cube function (2^24 doubles = 128 MiB),
    # the 2^(n-k) syndrome rows of F(lambda, q), and the 2^n deficiency table
    # of the code and matroid reports (1 to 4 bytes an entry)
    "CUBENOISE_MAX_N": 24,
    # exact verifiers that tabulate E(f|T) on all 2^n subsets (about 3^n lattice
    # values; the entropy replays about 16 gathers per lane sum of each compact
    # table); the q = 2 norms run by Parseval and stop only at CUBENOISE_MAX_N
    "CUBENOISE_MAX_VERIFY_N": 13,
    # weight enumeration walks all 2^k codewords
    "CUBENOISE_MAX_K": 28,
}


def size_cap(name: str) -> int:
    """The cap `name` of CAPS, or the integer its environment variable holds."""
    value = os.environ.get(name)
    try:
        return CAPS[name] if value is None else int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_size(name: str, what: str, label: str, size: int, route: str) -> None:
    """The one refusal of a size over its cap: `what` is capped, `label`
    names the size, and `route` names the flag change, or the variable to
    raise, that gets past it."""
    cap = size_cap(name)
    if size > cap:
        raise ValueError(f"{what} capped at {label}={cap}, got {size}; {route}")


def _require_dimension(n: int) -> None:
    """The one check of a cube dimension: an integer from 0 to the cap."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("cube dimension must be a nonnegative integer")
    check_size("CUBENOISE_MAX_N", "cube dimension", "n", n, "raise CUBENOISE_MAX_N")


def full_mask(n: int) -> SubsetMask:
    return (1 << n) - 1


def popcounts(n: int) -> np.ndarray:
    """|T| for every mask T < 2^n, as a fresh int64 array.  The first 2^10
    masks are counted by np.bitwise_count; past them a mask with top bit i
    has one more element than the mask below 2^i it extends, so each doubling
    is one vector add (faster than np.bitwise_count on large tables)."""
    low = min(n, 10)
    pc = np.empty(1 << n, dtype=np.int64)
    np.bitwise_count(np.arange(1 << low), out=pc[: 1 << low])
    for i in range(low, n):
        np.add(pc[: 1 << i], 1, out=pc[1 << i : 2 << i])
    return pc


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """A function {0,1}^n -> R stored as 2^n values in index order."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.n
        _require_dimension(n)
        v = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if v.shape != (1 << n,):
            raise ValueError(f"expected 2^{n} values, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def mean(self) -> float:
        return float(self.values.mean())

    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))

    def scaled(self, c: float) -> "CubeFunction":
        return CubeFunction(self.n, self.values * c)


def require_nonnegative(f: CubeFunction) -> None:
    """Reject inputs the noise-inequality verifiers are not defined for."""
    if float(f.values.min()) < 0.0:
        raise ValueError("function must be nonnegative")
    if float(f.values.max()) <= 0.0:
        raise ValueError("function must not be identically zero")


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized Hadamard butterflies in place along the last axis, O(n 2^n)
    per row, returning `values`: every row of a block gets the adds and
    subtracts a row alone would, in the same order.

    The levels run in Stockham's self-sorting order.  Each level reads the
    pairs (2j, 2j+1) of every row and writes a + b to position j and a - b
    to j + size/2 of the other buffer, so the bit it pairs on moves from the
    bottom of the index to the top and the next level pairs on the next bit.
    The levels thus pair bits 0, 1, 2, ... in turn, as the textbook loop that
    pairs i with i + 2^level in place does, and after log2(size) levels every
    bit is back in place: each value is the same a + b or a - b of the same
    operands as that loop's, bit for bit.  Each level is two ufunc calls over
    stride-2 views, where the loop's low levels run over runs of 1 to 64
    values.  Besides `values` it holds one scratch buffer of the same size;
    after an odd number of levels the result is in the scratch buffer and is
    copied back into `values`.
    """
    size = values.shape[-1]
    half = size // 2
    src, dst = values, np.empty_like(values)
    h = 1
    while h < size:
        pairs = src.reshape(src.shape[:-1] + (half, 2))
        np.add(pairs[..., 0], pairs[..., 1], out=dst[..., :half])
        np.subtract(pairs[..., 0], pairs[..., 1], out=dst[..., half:])
        src, dst = dst, src
        h <<= 1
    if src is not values:
        np.copyto(values, src)
    return values


# _zeta runs the levels below _ZETA_LOW_BITS on blocks of _ZETA_BLOCK values
_ZETA_LOW_BITS = 7
_ZETA_BLOCK = 1 << 16


def _zeta(values: np.ndarray, op: np.ufunc = np.add) -> np.ndarray:
    """Subset sums in place, O(n 2^n): values[T] becomes the sum by `op`
    (np.add, or np.bitwise_or for unions of bit sets) of the old values[R]
    over every mask R contained in T.  Levels run in ascending bit order,
    one `op` per element and level, so float sums are the same bit for bit
    however the levels are laid out, and integer sums wrap exactly as the
    dtype does.  Levels 0 to 6 work on blocks of 2^16 values, each copied
    transposed into one scratch buffer (low 7 bits as rows), so that each
    level is one `op` over long contiguous rows rather than over runs of 1,
    2, 4, ... values; the rest run in place.
    """
    size = values.shape[0]
    low = min(size, 1 << _ZETA_LOW_BITS)
    if low > 1:
        block = min(size, _ZETA_BLOCK)
        scratch = np.empty((low, block // low), dtype=values.dtype)
        for first in range(0, size, block):
            chunk = values[first : first + block].reshape(block // low, low)
            np.copyto(scratch, chunk.T)
            h = block // low
            while h < block:
                rows = scratch.reshape(-1, 2, h)
                op(rows[:, 1, :], rows[:, 0, :], out=rows[:, 1, :])
                h <<= 1
            np.copyto(chunk, scratch.T)
    h = low
    while h < size:
        v = values.reshape(-1, 2, h)
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
        h <<= 1
    return values


def wht_forward(f: CubeFunction) -> np.ndarray:
    """Coefficients c(R) = E_x f(x) w_R(x), with w_R(x) = (-1)^(sum of x_i, i in R),
    as a fresh array with the coefficient of subset R at index = mask of R.
    :func:`_butterfly` alone inverts it: f(x) = sum_R c(R) w_R(x)."""
    arr = f.values.copy()
    _butterfly(arr)
    arr /= 1 << f.n
    return arr


def character(n: int, r_mask: SubsetMask) -> CubeFunction:
    """The Walsh character w_R as a cube function."""
    _check_mask(n, r_mask)
    parity = np.bitwise_count(
        np.arange(1 << n, dtype=np.uint64) & np.uint64(r_mask)
    ).astype(np.int64) & 1
    return CubeFunction(n, 1.0 - 2.0 * parity)


# Values per block of rows in noise_blocks and log_lq_norms: their
# temporaries are held for one block at a time, not for a whole noise grid or
# lattice layer (at n = 16 with 7 q, the walk plus norms peaks at 134.5 MiB
# instead of 208.7).  A row longer than this is a block of its own.
_NORMS_BLOCK = 1 << 16


def noise_blocks(f: CubeFunction, eps_grid: Sequence[float]) -> Iterator[np.ndarray]:
    """T_eps f for every eps of the grid, in grid order, as the rows of 2-D
    blocks of at most _NORMS_BLOCK values (one row each past that size), a
    fresh array each.

    Computed in the Fourier domain from one :func:`wht_forward` of f: the
    coefficient of R picks up the factor (1-2*eps)^|R|, so the mean is
    untouched and each row stays a convex combination of shifted copies of f.
    One set of butterflies inverts a run of such rows at once.  eps = 0 gives
    f itself and eps = 1/2 the constant E f.  Every row is checked finite, as
    a CubeFunction is.
    """
    grid = list(eps_grid)
    for eps in grid:
        if not 0.0 <= eps <= 0.5:
            raise ValueError(f"noise rate must be in [0, 1/2], got {eps}")
    if any(0.0 < eps < 0.5 for eps in grid):
        coeffs = wht_forward(f)
        sizes, degrees = popcounts(f.n), np.arange(f.n + 1)
    step = max(1, _NORMS_BLOCK >> f.n)
    for start in range(0, len(grid), step):
        chunk = grid[start : start + step]
        block = np.empty((len(chunk), 1 << f.n))
        row = 0
        for inside, run in itertools.groupby(chunk, lambda e: 0.0 < e < 0.5):
            run = list(run)
            rows = block[row : row + len(run)]
            for values, eps in zip(rows, run):
                if inside:  # (1-2 eps)^|R| for each R, read off its n+1 values
                    np.take((1.0 - 2.0 * eps) ** degrees, sizes, out=values)
                    values *= coeffs
                else:
                    values[...] = f.values if eps == 0.0 else f.mean()
            if inside:
                _butterfly(rows)
            row += len(run)
        if not np.isfinite(block).all():
            raise ValueError("values must be finite")
        yield block


# Reached by no command; kept for perfbench/, which traces it by name and reads (f, t_mask).
def conditional_expectation(f: CubeFunction, t_mask: SubsetMask) -> CubeFunction:
    """Average f over the coordinates outside T, one at a time in ascending
    order: both values of each pair of points that differ only there become
    0.5 * (a + b), the halving that the compact walks make with the same
    operands, so the values agree bit for bit.  Equivalently: keep only the
    Fourier coefficients of subsets R contained in T."""
    _check_mask(f.n, t_mask)
    values = f.values.copy()
    rest = full_mask(f.n) & ~t_mask
    while rest:
        pairs = values.reshape(-1, 2, rest & -rest)
        np.add(pairs[:, 0, :], pairs[:, 1, :], out=pairs[:, 0, :])
        pairs[:, 0, :] *= 0.5
        pairs[:, 1, :] = pairs[:, 0, :]
        rest &= rest - 1
    return CubeFunction(f.n, values)


def compact_conditional_expectations(
    f: CubeFunction, masks: Iterable[SubsetMask]
) -> Iterator[tuple[int, np.ndarray]]:
    """(T, compact E(f|T)) once for each distinct mask T of `masks`: the
    2^|T| distinct values of E(f|T), indexed by the coordinates of T in
    ascending order (the lowest coordinate of T at bit 0).

    E(f|T) halves f over each coordinate T misses, in ascending order, and the
    table after the first j halvings is shared by every mask with the same j
    lowest missing coordinates.  The walk keeps those tables of the current
    mask on a stack and visits the masks in ascending order of their
    bit-reversed values: of two masks, the one that misses the lowest
    coordinate in which they differ comes first.  So each mask shares with the
    one before it every halving over a coordinate below that lowest difference,
    and starts from there.  After j halvings the missing coordinate c sits at
    compact position c - j whatever the mask, so every halving is the one the
    ascending chain for T alone would make, and every table is the same bit
    for bit: a rounding that the recorded reference values pin, and that
    :func:`subset_lattice` replays operation for operation.  The stack holds
    fewer than 2^n values besides f; a yielded table stays valid after the
    walk moves on.
    """
    n, full = f.n, full_mask(f.n)
    masks = {operator.index(t) for t in masks}
    if masks:
        _check_mask(n, min(masks))
        _check_mask(n, max(masks))
    ts = np.fromiter(masks, np.int64, len(masks))
    reversed_bits = np.zeros_like(ts)
    for i in range(n):
        reversed_bits |= (ts >> i & 1) << (n - 1 - i)
    stack, previous = [f.values.reshape(1, -1)], None  # stack[j]: the table after j halvings
    for t in ts[np.argsort(reversed_bits)].tolist():
        low = 1 if previous is None else (t ^ previous) & -(t ^ previous)  # lowest difference
        del stack[(full & ~t & (low - 1)).bit_count() + 1 :]
        rest = full & ~t & -low  # the coordinates left to halve over, as bits
        while rest:
            c = (rest & -rest).bit_length() - 1
            stack.append(_halve(stack[-1], c - (len(stack) - 1)))
            rest &= rest - 1
        previous = t
        yield t, stack[-1].reshape(-1)


def _halve(tables: np.ndarray, position: int, out: np.ndarray | None = None) -> np.ndarray:
    """Each row of `tables` averaged over the coordinate at compact bit
    `position`: 0.5 * (a + b) for each pair of entries that differ only there.
    Both compact routes to E(f|T) halve here, so their values agree bit for bit."""
    w = tables.reshape(tables.shape[0], -1, 2, 1 << position)
    if out is None:
        out = np.empty((tables.shape[0], tables.shape[1] // 2))
    halves = out.reshape(w.shape[:2] + w.shape[3:])
    np.add(w[:, :, 0, :], w[:, :, 1, :], out=halves)
    halves *= 0.5
    return out


def _pairwise_order(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """numpy's float64 sum of 2^n values in index order, by cube coordinate:
    (lane coordinates, pair coordinates).

    numpy sums pairwise: fewer than 8 values one after another, from 0.0; up
    to 128 in 8 lanes, lane j adding the values at j, j + 8, j + 16, ... one
    after another, and the lane totals as ((0+1)+(2+3))+((4+5)+(6+7)); more
    as the sum of the two halves.  On 2^n points a lane runs over
    coordinates 3 to 6 in counting order, and every later add pairs the two
    blocks that differ in one coordinate: 0, 1, 2, then 7 up to n - 1.  Below
    3 coordinates the one lane runs over all of them.
    """
    if n < 3:
        return tuple(range(n)), ()
    return tuple(range(3, min(n, 7))), (0, 1, 2, *range(7, n))


# _LANE_STEPS[i, m]: the compact offset of lane step i in a table whose lane
# coordinates in T are the bits of m (step i reads the cube point whose b-th
# lane coordinate is bit b of i, so its offset packs the bits of i & m), and
# _LANE_MOVES[j, m]: how far step i is from step i - 1, j the lowest bit of i.
_LANE_STEPS = np.array(
    [[sum(1 << (m & ((1 << b) - 1)).bit_count() for b in range(4) if (i & m) >> b & 1)
      for m in range(16)] for i in range(16)]
)
_LANE_MOVES = _LANE_STEPS[[1, 2, 4, 8]] - _LANE_STEPS[[0, 1, 3, 7]]


def _layout_sums(n: int, masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.add.reduce of each compact table laid out on the cube (each entry
    at every point that agrees with it on T), bit for bit, without the
    layout: out[i] for the table of masks[i], where the first axis of
    `values` holds the compact tables of `masks` one after another (any
    further axes are summed alike).  Exact, an overflow to inf included,
    for tables with no entry below -1, as the g and g log2 g tables of
    g >= 0 are, or with none above 1; past 2^(1000 - n) a table with
    entries of both signs can differ, as numpy may double a sum to inf
    where one ldexp of the undoubled sum need not.

    A lane of numpy's tree (:func:`_pairwise_order`) reads, step by step,
    the compact entries its cube points take: one gather per step for every
    lane of every table at once.  A lane's sum depends only on the pair
    coordinates in T, so each table keeps 2^d lane sums, d the number of
    those.  A pair level over one of them adds the two halves of each run of
    sums, lowest coordinate first.  A pair level over a coordinate outside T
    adds a sum to itself: an exact doubling, which commutes with every add,
    so the doublings of a table are one ldexp at the end.  The tables run
    deepest first, so the runs still being paired are a prefix.
    """
    lanes, pairs = _pairwise_order(n)
    first = lanes[0] if lanes else 3  # T's coordinates below it pair, at compact bits 0 to low - 1
    ts = np.asarray(masks, dtype=np.int64)
    sizes = np.bitwise_count(ts).astype(np.int64)
    low = np.bitwise_count(ts & ((1 << first) - 1)).astype(np.int64)
    lane_masks = ts >> first & ((1 << len(lanes)) - 1)  # T's lane coordinates, the next bits
    mid = np.bitwise_count(lane_masks).astype(np.int64)
    depth = sizes - mid
    order = (-depth).argsort(kind="stable")
    counts = 1 << depth.take(order)
    table = order.repeat(counts)  # the table of each lane sum
    e = np.arange(table.shape[0]) - (np.add.accumulate(counts) - counts).repeat(counts)
    # the compact index of lane step 0 of each lane sum: e with the bits of
    # T's lane coordinates put in at bit low
    index = (np.add.accumulate(1 << sizes) - (1 << sizes)).take(table) + e
    index += (e >> low.take(table)) * (((1 << mid) - 1) << low).take(table)
    moves = np.left_shift(_LANE_MOVES.take(lane_masks, axis=1), low).take(table, axis=1)
    sums = values.take(index, axis=0)
    for i in range(1, 1 << len(lanes)):
        index += moves[(i & -i).bit_length() - 1]
        sums += values.take(index, axis=0)
    live = np.bincount(depth, minlength=1)  # tables of each depth
    for level in range(live.shape[0] - 1):
        paired = sum(int(c) << (d - level) for d, c in enumerate(live.tolist()) if d > level)
        sums = np.concatenate((sums[0:paired:2] + sums[1:paired:2], sums[paired:]))
    out = np.empty_like(sums)
    exponents = (len(pairs) - depth.take(order)).reshape((-1,) + (1,) * (sums.ndim - 1))
    out[order] = np.ldexp(sums, exponents)
    out += 0.0  # numpy adds the sum to its initial 0.0
    return out


def subset_lattice(f: CubeFunction) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every subset's compact E(f|T), one layer |T| = k at a time for k = n..0:
    yields (k, masks, tables), where tables[j] is the compact table that
    compact_conditional_expectations yields for masks[j], bit for bit.

    The parent of T is T + {h}, h the highest coordinate not in T, and T's
    table is the parent's halved over h.  That is the last of the ascending
    halvings that build E(f|T) directly, and the parent's table holds the
    others, so every value is the same.  All coordinates above h are in the
    parent, so h sits at the same compact position k - n + h in every parent
    of size k that loses it: one halving per (layer, h) builds all of those
    children at once.  A layer lists its masks in descending order, so the
    parents that lose h, the masks holding every coordinate from h up, are
    its first C(h, k - n + h) rows; the children of h = n - k, n - k + 1, ...
    follow one another in descending order too.  Only the current layer and
    the next are held.
    """
    n = f.n
    masks = np.array([full_mask(n)], dtype=np.int64)
    tables = f.values.reshape(1, -1)
    for k in range(n, 0, -1):
        yield k, masks, tables
        child_masks = np.empty(math.comb(n, k - 1), dtype=np.int64)
        child = np.empty((child_masks.shape[0], 1 << (k - 1)))
        start = 0
        for h in range(n - k, n):
            rows = math.comb(h, k - n + h)
            _halve(tables[:rows], k - n + h, child[start : start + rows])
            np.bitwise_xor(masks[:rows], 1 << h, out=child_masks[start : start + rows])
            start += rows
        masks, tables = child_masks, child
    yield 0, masks, tables


def _check_mask(n: int, mask: SubsetMask) -> None:
    if not 0 <= mask < (1 << n):
        raise ValueError(f"subset mask {mask} out of range for n={n}")


def _clean_values(v: np.ndarray) -> np.ndarray:
    """The tables along the last axis of v, with transform roundoff like -1e-17
    set to the exact zero it stands for; a table whose negative values are not
    roundoff is rejected.  One sign test of the whole of v comes first, and
    only when it finds a negative entry are each table's min and scale taken."""
    if not (v < 0.0).any():
        return v
    scale = np.maximum(1.0, np.abs(v).max(axis=-1))
    if (v.min(axis=-1) < -1e-12 * scale).any():
        raise ValueError("function has significantly negative values")
    return np.maximum(v, 0.0)


def log_lq_norms(tables: np.ndarray, q_grid: Sequence[float]) -> np.ndarray:
    """ln ||g||_q of every table g along the last axis of `tables` (uniform
    measure on its entries), for every q of the grid: out[j] holds q_grid[j].

    Each norm is ln max g + ln E (g / max g)^q / q, so nothing overflows; a
    zero table gives -inf, and q = inf gives ln max g.  A block of rows takes
    its max, log and scaled tables once, the power of each finite q by
    :func:`_power`, and one mean, log and division over the whole (q, rows)
    block.  A block's scaled tables, its powers and the power being taken,
    rows x (finite q + 2) tables, hold at most half of _NORMS_BLOCK values,
    so a grid too long for one row at all q is split as well (a row too long
    for two q takes one at a time, as a single q would).  Each row's
    reductions are the same whatever its block, so the values do not depend
    on the blocking.

    At q = 1.5, 2.5, 3, 4 and 8 the power is a chain of multiplies, which
    errs by up to 7 roundings where ** errs by about one, so those norms are
    held to a 50-digit budget (tests/test_accuracy.py), not to the bits of
    **; their error stays that of the final log, about 1e-16.
    """
    for q in q_grid:
        if not q >= 1:
            raise ValueError(f"norm exponent must be >= 1, got {q}")
    rows = tables.reshape(-1, tables.shape[-1])
    out = np.empty((len(q_grid), rows.shape[0]))
    finite = [j for j, q in enumerate(q_grid) if q != math.inf]
    infinite = [j for j, q in enumerate(q_grid) if q == math.inf]
    budget = _NORMS_BLOCK // 2 // rows.shape[1]  # tables per block
    step = max(1, budget // (len(finite) + 2))
    q_step = max(1, budget // step - 2)
    groups = []  # (rows of out, their q, the q as a column) for each block of q
    for lo in range(0, len(finite), q_step):
        js = finite[lo : lo + q_step]
        qs = [q_grid[j] for j in js]
        groups.append((js, qs, np.array(qs, dtype=np.float64)[:, None]))
    # a row whose max is not positive is all zeros once cleaned; divided by
    # the least double, which no positive max is below, it stays 0, so its
    # moment is 0 and its norm ln 0 / q + ln 0 = -inf
    with np.errstate(divide="ignore"):
        for start in range(0, rows.shape[0], step):
            block = rows[start : start + step]
            mx = np.maximum(block.max(axis=-1), 0.0)
            log_mx = np.log(mx)
            part = out[:, start : start + step]
            if infinite:
                part[infinite] = log_mx
            if not finite:
                continue
            scaled = _clean_values(block) / np.maximum(mx, 5e-324)[:, None]
            for js, qs, exponents in groups:
                logs = _moments(scaled, qs)
                np.log(logs, out=logs)
                logs /= exponents
                logs += log_mx
                part[js] = logs
    return out.reshape((len(q_grid),) + tables.shape[:-1])


def _moments(scaled: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """out[j, i] = the mean of scaled[i] ** qs[j]: each power by
    :func:`_power` into its row of one buffer, then one sum and division
    (np.mean's own two steps)."""
    powers = np.empty((len(qs),) + scaled.shape)
    for power, q in zip(powers, qs):
        _power(scaled, q, power)
    return np.add.reduce(powers, axis=-1) / scaled.shape[-1]


def _power(x: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """x ** q into `out`, for x in [0, 1].  At q = 1.5, 2, 2.5, 3, 4 and 8 a
    chain of correctly rounded multiplies and one square root, in place:

        x^1.5 = sqrt(x) x,  x^2.5 = (sqrt(x) x) x,  x^2 = x x,
        x^3 = (x x) x,      x^4 = (x x)^2,         x^8 = ((x x)^2)^2;

    at any other q the ** operator.  x^2 has the bits of x ** 2, which
    squares; the other chains take a sixth to a half of pow's time and err
    by up to 7 roundings of 2^-53 relative (x^8), or by the least double
    where the power lies below the normal range."""
    if q in (1.5, 2.5):
        np.sqrt(x, out=out)
        out *= x
        if q == 2.5:
            out *= x
    elif q in (2.0, 3.0):
        np.multiply(x, x, out=out)
        if q == 3.0:
            out *= x
    elif q in (4.0, 8.0):
        np.multiply(x, x, out=out)
        out *= out
        if q == 8.0:
            out *= out
    else:
        out[...] = x ** q
    return out


def entropies(tables: np.ndarray) -> np.ndarray:
    """Ent of every row of the 2-D `tables`, in bits, under the uniform
    measure on its entries.

    Each row's sum of g and of g log2 g (:func:`_plogp`) are row-wise
    reductions along the contiguous last axis, which sum each row pairwise
    as a 1-D call does, so every value is the same bit for bit whatever the
    other rows are.
    """
    v = _clean_values(tables)
    return _entropy_from_sums(v.sum(axis=-1), _plogp(v).sum(axis=-1), v.shape[1])


def _plogp(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """g log2 g for each entry of g >= 0, with 0 log2 0 = 0: the log is of
    max(g, 5e-324), the least double, so a zero entry is a zero term of its
    table's whole sum and leaves numpy's pairing of the other terms as it
    is.  Every entropy of the package sums these terms."""
    out = np.maximum(g, 5e-324, out=out)
    np.log2(out, out=out)
    out *= g
    return out


def _entropy_from_sums(totals: np.ndarray, plogp: np.ndarray, size: int) -> np.ndarray:
    """Ent of tables of `size` entries from the sums of g and of g log2 g of
    each: math.log2 for E g, as for a single table, since np.log2 can differ
    in the last bit."""
    means = totals / size
    if not (means > 0.0).all():
        raise ValueError("entropy requires E f > 0")
    return plogp / size - means * np.fromiter(map(math.log2, means), np.float64, means.shape[0])


def dirichlet_forms(fs: Sequence[CubeFunction], g: CubeFunction) -> list[float]:
    """E(f, g) = E_x sum over neighbors y of (f(x)-f(y)) (g(x)-g(y)) on the
    hypercube graph, for every f of `fs` against one g.

    One coordinate at a time, g's edge differences are taken once for all
    the f, and each f's differences and their products with them go into
    two buffers reused for every coordinate; each product table is summed
    whole, as a fresh one would be, so each form has the bits of a one-f
    call.
    """
    for f in fs:
        if f.n != g.n:
            raise ValueError(f"dimension mismatch: {f.n} != {g.n}")
    half = (1 << g.n) // 2
    dg, product = np.empty(half), np.empty(half)
    totals = [0.0] * len(fs)
    for i in range(g.n):
        rows = lambda values: values.reshape(-1, 2, 1 << i)
        np.subtract(rows(g.values)[:, 0, :], rows(g.values)[:, 1, :], out=dg.reshape(-1, 1 << i))
        for j, f in enumerate(fs):
            np.subtract(rows(f.values)[:, 0, :], rows(f.values)[:, 1, :], out=product.reshape(-1, 1 << i))
            product *= dg
            totals[j] += float(np.sum(product))
    return [2.0 * total / (1 << g.n) for total in totals]
