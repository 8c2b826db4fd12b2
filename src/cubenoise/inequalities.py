"""Gap verifiers for the noise-operator norm inequalities on the cube.

Every verifier returns a :class:`GapReport` for a claim of the form
"lhs <= rhs", whose gap is rhs - lhs by construction, so a nonnegative
gap (up to the caller's tolerance) certifies the instance.  All log-norm
comparisons here use natural logs; base does not affect truth because both
sides of each inequality share it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .cube import (
    CubeFunction,
    SubsetMask,
    _butterfly,
    _clean_values,
    _entropy_from_sums,
    _layout_sums,
    _plogp,
    _zeta,
    check_size,
    compact_conditional_expectations,
    dirichlet_forms,
    entropies,
    full_mask,
    log_lq_norms,
    noise_blocks,
    popcounts,
    require_nonnegative,
    subset_lattice,
)

LN2 = math.log(2.0)


def r_exponent(q: float) -> float:
    """The norm-comparison exponent r(q).

    Piecewise in q: 2^(3-q) (2^(q-1) - 1) / (2 ln2 (q-1)) on 1 < q <= 2 and
    q / (2 ln2 (q-1)) on q >= 2; the branches agree at q = 2, the limit at
    q -> 1 is 2, and r(inf) = 1/(2 ln2).
    """
    if q == math.inf:
        return 1.0 / (2.0 * LN2)
    if not q > 1.0:
        raise ValueError(f"exponent defined for q > 1 only, got {q}")
    if q <= 2.0:
        return 2.0 ** (3.0 - q) * (2.0 ** (q - 1.0) - 1.0) / (2.0 * LN2 * (q - 1.0))
    return q / (2.0 * LN2 * (q - 1.0))


def subset_rate(q: float, eps: float) -> float:
    """The density of the random coordinate subset matched to noise eps: (1-2 eps)^r(q)."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"noise rate must be in [0, 1/2], got {eps}")
    return (1.0 - 2.0 * eps) ** r_exponent(q)

def noise_rate(q: float, lam: float) -> float:
    """Inverse of :func:`subset_rate`: eps = (1 - lam^(1/r(q))) / 2."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"subset density must be in [0, 1], got {lam}")
    return (1.0 - lam ** (1.0 / r_exponent(q))) / 2.0


CSV_COLUMNS = (
    "inequality",
    "n",
    "q",
    "eps_or_lambda",
    "lhs",
    "rhs",
    "gap",
    "mode",
    "samples",
    "seed",
    "note",
    "allowed",
    "stderr",
)


def _fmt(value) -> str:
    """One report cell: empty for None, repr for floats, 1/0 for bools."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


@dataclass
class GapReport:
    """Outcome of one inequality check: the claim is lhs <= rhs, and the gap
    is rhs - lhs, derived from the two sides and never passed.

    The one verdict of every report row is :meth:`holds`.  `budgets` maps
    residuals in params to their budgets (None: the tolerance), and a
    `strict` claim needs gap > 0 with no margin.  A Monte Carlo estimate
    carries its standard error as params["stderr"]."""

    inequality: str
    lhs: float
    rhs: float
    params: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    strict: bool = False

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    def allowed(self, tolerance: float) -> float:
        """How far below zero the gap may fall: tolerance * max(1, |lhs|, |rhs|)
        over the finite sides, the scale of the rounding in rhs - lhs, plus 4
        standard errors; 0 for a strict claim."""
        if self.strict:
            return 0.0
        lhs, rhs = abs(self.lhs), abs(self.rhs)  # an infinite side would pass any gap
        scale = max(1.0, lhs if lhs < math.inf else 1.0, rhs if rhs < math.inf else 1.0)
        return tolerance * scale + 4.0 * self.params.get("stderr", 0.0)

    def holds(self, tolerance: float = 1e-9) -> bool:
        order = self.gap > 0.0 if self.strict else self.gap >= -self.allowed(tolerance)
        return order and all(self.params[k] <= (tolerance if b is None else b) for k, b in self.budgets.items())

    def row(self, tolerance: float = 1e-9) -> dict:
        """The report's cells; only a Monte Carlo estimate names samples, seed
        and stderr."""
        sampled = self.params.get("mode") == "mc"
        return {
            "inequality": self.inequality,
            "n": self.params.get("n"),
            "q": self.params.get("q"),
            "eps_or_lambda": self.params.get("eps_or_lambda"),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "mode": self.params.get("mode"),
            "samples": self.params.get("samples") if sampled else None,
            "seed": self.params.get("seed") if sampled else None,
            "note": self.params.get("note", ""),
            "allowed": self.allowed(tolerance),
            "stderr": self.params.get("stderr") if sampled else None,
        }

    def csv_row(self, tolerance: float = 1e-9) -> str:
        row = self.row(tolerance)
        return ",".join(_fmt(row[c]) for c in CSV_COLUMNS)

    def note_equality(self, tolerance: float) -> GapReport:
        """Flags an exact row whose |gap| is within its margin as an equality
        case, in params["equality"] and the note."""
        equality = abs(self.gap) <= self.allowed(tolerance)
        self.params.update(equality=equality, note="equality" if equality else "")
        return self


# Reached by no command; kept for perfbench/, which traces it by name and reads (n, lam).
def subset_weights(n: int, lam: float) -> np.ndarray:
    """Probability of each mask T under independent inclusion with rate lam."""
    return size_weights(n, lam)[popcounts(n)]


def size_weights(n: int, lam) -> np.ndarray:
    """Probability lam^k (1-lam)^(n-k) of one particular mask of size k, for
    k = 0..n; for a column of rates (shape (m, 1)), one such row per rate,
    each with the bits of its one-rate call."""
    inside = (lam >= 0.0) & (lam <= 1.0)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise ValueError(f"subset density must be in [0, 1], got {lam}")
    k = np.arange(n + 1)
    return np.power(lam, k) * np.power(1.0 - lam, n - k)


def _layer_sums(n: int, table: np.ndarray) -> np.ndarray:
    """L_k = sum of table[T] over the masks T of size k, for k = 0..n."""
    return np.bincount(popcounts(n), weights=table, minlength=n + 1)


def layer_expectations(rates: Sequence[float], layers: np.ndarray) -> list[float]:
    """E over T ~ lam of a table given by its layer sums L_k, k = 0..n, at
    every rate lam of the grid: the one layer average.  `layers` is one row
    L for every rate, or one row per rate, shape (len(rates), n + 1).

    One size_weights matrix and one pass over the grid: the terms w_k L_k,
    0 where w_k = 0, so that an infinite table entry in a layer of
    probability zero cannot make the sum NaN, each row summed correctly
    rounded (:func:`_exact_row_sums`).  So each value is that of a one-rate
    call, whatever the rest of the grid."""
    column = np.asarray(rates, dtype=np.float64)[:, None]
    w = size_weights(layers.shape[-1] - 1, column)
    terms = np.multiply(w, layers, out=np.zeros(np.broadcast_shapes(w.shape, layers.shape)), where=w > 0.0)
    return _exact_row_sums(terms)


def _exact_row_sums(terms: np.ndarray) -> list[float]:
    """The sum of each row of a 2-D array, correctly rounded (math.fsum), so
    it does not depend on the order of the terms.  A row with both inf and
    -inf, or whose partial sums pass the double range, where math.fsum
    raises, gets np.sum of its terms instead: nan or +-inf."""
    out = []
    for row in terms.tolist():
        try:
            out.append(math.fsum(row))
        except (ValueError, OverflowError):
            with np.errstate(over="ignore", invalid="ignore"):
                out.append(float(np.sum(row)))
    return out


def _uniform_draw(n: int, samples: int, seed: int) -> np.ndarray:
    """The uniforms of one Monte Carlo grid from the seed, samples x n.  Every
    rate of the grid thresholds this one draw (:func:`_sample_masks`) and gets
    the masks a draw of its own from the seed would give.  One sample would
    give a standard error of 0, and so decide a verdict alone: at least two
    are needed."""
    if samples < 2:
        raise ValueError("need at least two samples: a standard error needs two draws")
    return np.random.default_rng(seed).random((samples, n))


def _sample_masks(uniforms: np.ndarray, lam: float) -> np.ndarray:
    """The masks drawn at rate lam from a :func:`_uniform_draw`, in sample
    order: coordinate i + 1 of a draw is in its mask when its uniform is
    below lam.

    Coordinate i + 1 is bit i of the mask.  The masks are uint64 up to
    n = 64, so bit 63 is not a sign bit, and Python ints (an object array)
    past it, joined from one uint64 word per 64 coordinates."""
    samples, n = uniforms.shape
    bits = uniforms < lam
    words = [
        bits[:, i : i + 64].dot(np.uint64(1) << np.arange(min(n - i, 64), dtype=np.uint64))
        for i in range(0, n, 64)
    ]
    if len(words) < 2:
        return words[0] if words else np.zeros(samples, np.uint64)
    masks = np.zeros(samples, dtype=object)
    for c, word in enumerate(words):
        masks += word.astype(object) << 64 * c
    return masks


def _pooled_draws(
    n: int, rates: Sequence[float], samples: int, seed: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The one Monte Carlo draw of a rate grid: (pool, draws).  One uniform
    draw from the seed serves the grid, and each distinct rate thresholds it
    once; `pool` holds the distinct masks of all of them, ascending, and
    draws[i] indexes the pool by the masks of rates[i] in sample order.
    Callers take h once per pooled mask, and each rate's :func:`_mean_stderr`
    over its own draws."""
    uniforms = _uniform_draw(n, samples, seed)
    drawn = {lam: _sample_masks(uniforms, lam) for lam in dict.fromkeys(rates)}
    del uniforms  # n values a sample, where each rate's masks hold one
    pool = _distinct(np.concatenate(list(drawn.values())))
    index = {lam: np.searchsorted(pool, masks) for lam, masks in drawn.items()}
    return pool, [index[lam] for lam in rates]


def subset_expectation_mc(
    n: int, lam: float, h: Callable[[SubsetMask], float], samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the subset expectation, (mean, standard error):
    the one-rate case of :func:`_pooled_draws`."""
    pool, (draws,) = _pooled_draws(n, (lam,), samples, seed)
    values = np.array([h(t) for t in pool.tolist()], dtype=np.float64)
    return _mean_stderr(values[draws])


def _distinct(masks: np.ndarray) -> np.ndarray:
    """The distinct masks, ascending; numpy's unique would import numpy.ma (1 MiB)."""
    masks = np.sort(masks)
    return masks[np.concatenate(([True], masks[1:] != masks[:-1]))]


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """(mean, standard error of the mean) of Monte Carlo values in sample order."""
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.shape[0])) if vals.shape[0] > 1 else 0.0
    return mean, stderr


def _squared_l2_norms(f: CubeFunction) -> tuple[np.ndarray, int]:
    """(z, e) with ||E(f|T)||_2^2 = 4^e z[T] for every mask T, in mask order.

    By Parseval ||E(f|T)||_2^2 is the sum of c(R)^2 over the R contained in
    T, c the Walsh-Fourier coefficients of f, so one Walsh-Hadamard
    transform, squaring and one subset-sum (zeta) transform give the whole
    table in O(n 2^n), in place on one copy of f.  The copy is f / 2^(e+n),
    e the binary exponent of max f, so the transform yields c(R) / 2^e, below
    1 in magnitude, and z[T] >= (E f / 2^e)^2 >= 4^-(n+1): no square over- or
    underflows.  Scaling by a power of two is exact, so for max f in [1/2, 1)
    the coefficients are wht_forward's bit for bit.
    """
    e = math.frexp(float(f.values.max()))[1]
    z = np.ldexp(f.values, -e - f.n)
    _butterfly(z)
    z *= z
    return _zeta(z), e


def _log_l2(z: np.ndarray, e: int, out: np.ndarray | None = None) -> np.ndarray:
    """ln sqrt(4^e z), with one order of operations for every caller, so that
    equal squared norms give equal log-norms bit for bit."""
    out = np.log(z, out=out)
    out *= 0.5
    out += e * LN2
    return out


# Reached by no command; kept for perfbench/, which traces it by name and reads (f, q).
def cond_exp_log_norms(f: CubeFunction, q: float) -> np.ndarray:
    """ln of the q-norm of the conditional expectation of f on every subset T,
    in mask order; q = 2 by Parseval (:func:`_squared_l2_norms`), any other q
    from the subset lattice."""
    if q == 2.0:
        z, e = _squared_l2_norms(f)
        return _log_l2(z, e, out=z)
    return _conditional_rows(f, _log_norms_kernel((q,)), 1)[0]


# A kernel takes a batch of compact E(f|T) tables as runs (masks, tables),
# a table of 2^|T| values per row, and returns one value per point for each
# table, in batch order.
_Kernel = Callable[[Sequence[tuple[Sequence[int], np.ndarray]]], np.ndarray]


def _log_norms_kernel(q_grid: Sequence[float]) -> _Kernel:
    """out[j, i] = ln ||tables[i]||_q for q = q_grid[j]."""
    return lambda batch: np.concatenate([log_lq_norms(tables, q_grid) for _, tables in batch], axis=1)


def _entropy_kernel(n: int) -> _Kernel:
    """out[0, i] = Ent(E(f|T)) for the i-th mask T of a batch, f on n
    coordinates, with the rounding of its 2^n-point table, which the
    recorded reference values pin (README): cube.entropies' value on the
    table laid out on the cube, bit for bit, without the layout.

    log2 is taken once over the compact values, and E g and the sum of
    g log2 g (cube._plogp) are numpy's sums of the laid-out table, replayed
    on the compact one for every table of a call at once
    (cube._layout_sums); a batch of more than _NORM_BATCH values, one long
    layer, goes in calls of rows."""

    def kernel(batch: Sequence[tuple[Sequence[int], np.ndarray]]) -> np.ndarray:
        if sum(run.size for _, run in batch) <= _NORM_BATCH:
            return entropies_of(batch)
        ((masks, tables),) = batch  # one long run, taken in blocks of rows
        out, step = np.empty((1, len(masks))), max(1, _NORM_BATCH // tables.shape[1])
        for i in range(0, len(masks), step):
            out[:, i : i + step] = entropies_of([(masks[i : i + step], tables[i : i + step])])
        return out

    def entropies_of(batch: Sequence[tuple[Sequence[int], np.ndarray]]) -> np.ndarray:
        masks = np.concatenate([np.asarray(run, dtype=np.int64) for run, _ in batch])
        values = np.empty((sum(run.size for _, run in batch), 2))  # g and g log2 g
        np.concatenate([_clean_values(run).reshape(-1) for _, run in batch], out=values[:, 0])
        _plogp(values[:, 0], out=values[:, 1])
        sums = _layout_sums(n, masks, values)
        return _entropy_from_sums(sums[:, 0], sums[:, 1], 1 << n)[None]

    return kernel


# Values per kernel batch (32 KiB of float64).  It keeps the peak traced
# memory of an n = 14 Monte Carlo report at that of one kernel call per table
# (0.85 MiB); 2^14 cut the report's kernel calls from 259 to 78 but raised
# that peak to 1.56 MiB, since every table size holds a buffer.  It also
# caps each call of the entropy kernel, whose index and sum arrays take
# about 60 bytes a table value: 2^16 there takes an exact n = 11 entropy
# table from 20 to 9 ms, but raises its peak traced memory from 0.79 MiB,
# that of the lattice walk, to 2.6 MiB.
_NORM_BATCH = 1 << 12


def _batches(
    runs: Iterable[tuple[np.ndarray, np.ndarray]]
) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """The (masks, tables) runs as kernel batches: consecutive runs go
    together while they hold at most _NORM_BATCH values in all, and a longer
    run is a batch of its own, yielded as soon as it comes."""
    batch, held = [], 0
    for run in runs:
        if batch and held + run[1].size > _NORM_BATCH:
            yield batch
            batch, held = [], 0
        batch.append(run)
        held += run[1].size
        if held >= _NORM_BATCH:
            yield batch
            batch, held = [], 0
    if batch:
        yield batch


def _conditional_rows(
    f: CubeFunction, kernel: _Kernel, points: int, masks: np.ndarray | None = None
) -> np.ndarray:
    """out[j, c] = the kernel's value j on E(f|T), T the c-th of `masks`, or
    of every mask in mask order when `masks` is None.

    Every mask comes from one walk of the subset lattice, in kernel batches
    of whole layers (:func:`_batches`).  Given masks
    come from one walk of compact_conditional_expectations: a table of
    _NORM_BATCH values or more goes to the kernel alone, smaller ones
    through a buffer per table size that holds at most _NORM_BATCH values,
    whenever it is full or its size has no masks left.  Either way the
    kernel gets compact tables, so no route builds a cube function per
    mask."""
    if masks is None:
        out = np.empty((points, 1 << f.n))
        for batch in _batches((layer, tables) for _, layer, tables in subset_lattice(f)):
            out[:, np.concatenate([layer for layer, _ in batch])] = kernel(batch)
        return out
    columns = {t: c for c, t in enumerate(masks.tolist())}
    out = np.empty((points, len(columns)))
    left = Counter(t.bit_count() for t in columns)  # masks of each size not yet buffered
    buffers: dict[int, tuple[np.ndarray, list[int]]] = {}  # |T| -> (rows, their masks)
    for t, table in compact_conditional_expectations(f, columns):
        k = t.bit_count()
        if table.shape[0] >= _NORM_BATCH:  # a batch of its own, needing no copy
            out[:, columns[t]] = kernel([((t,), table[None])])[:, 0]
            continue
        if k not in buffers:
            buffers[k] = (np.empty((min(left[k], _NORM_BATCH >> k), 1 << k)), [])
        rows, held = buffers[k]
        rows[len(held)] = table
        held.append(t)
        left[k] -= 1
        if len(held) == len(rows) or not left[k]:
            out[:, [columns[s] for s in held]] = kernel([(held, rows[: len(held)])])
            held.clear()
            if not left[k]:
                del buffers[k]
    return out


def _noisy_rows(
    kernel: Callable[[np.ndarray], np.ndarray], points: int, f: CubeFunction, eps_grid: Sequence[float]
) -> np.ndarray:
    """out[j, e] = the kernel's value j on T_eps f, eps = eps_grid[e], from one
    kernel call per block of :func:`cube.noise_blocks` (none with no points)."""
    out = np.empty((points, len(eps_grid)))
    start = 0
    for block in noise_blocks(f, eps_grid) if points else ():
        out[:, start : start + block.shape[0]] = kernel(block)
        start += block.shape[0]
    return out


def _require_mode(mode: str) -> None:
    """The one check of a `mode` argument: exact enumeration or Monte Carlo."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")


def _require_sweep_domain(
    inequality: str, f: CubeFunction, eps_grid: Sequence[float], mode: str
) -> None:
    require_nonnegative(f)
    if f.mean() <= 0.0:
        raise ValueError(f"{inequality} inequality requires E f > 0; the mean underflows to 0")
    _require_mode(mode)
    for eps in eps_grid:
        if not 0.0 <= eps <= 0.5:
            raise ValueError(f"noise rate must be in [0, 1/2], got {eps}")


def _subset_sweep(
    inequality: str,
    f: CubeFunction,
    points: Sequence[tuple[float | None, float]],
    lhs: np.ndarray,
    rows: Callable[[np.ndarray | None], Sequence[np.ndarray]],
    eps_grid: Sequence[float],
    mode: str,
    samples: int,
    seed: int,
) -> list[GapReport]:
    """Check lhs[j, e] <= E over T ~ (1-2 eps)^r of the j-th value on E(f|T)
    for each (q, r) point j and each eps, point-major; lhs[j, e] is that
    value on T_eps f, and rows(masks)[j][c] on E(f|T) for the c-th of
    `masks`, or for every mask in mask order when `masks` is None.

    Both modes make one rows call.  Exact mode asks for every mask and
    reduces each point's row to layer sums, one row per (point, eps), for
    one :func:`layer_expectations` call over every rate.  Monte Carlo mode
    asks for the masks of one draw of every rate (:func:`_pooled_draws`);
    each estimate's mean and standard error then come from its own masks'
    values in sample order, as subset_expectation_mc takes them.
    """
    width = len(eps_grid)
    rates = [(1.0 - 2.0 * eps) ** r for _, r in points for eps in eps_grid]
    estimates = []  # (mean, standard error) per (point, eps), point-major
    if rates and mode == "exact":
        layers = np.repeat([_layer_sums(f.n, row) for row in rows(None)], width, axis=0)
        estimates = [(mean, 0.0) for mean in layer_expectations(rates, layers)]
    elif rates:
        pool, draws = _pooled_draws(f.n, rates, samples, seed)
        values = rows(pool)
        estimates = [_mean_stderr(values[c // width][i]) for c, i in enumerate(draws)]
    out = []
    for c, (rhs, stderr) in enumerate(estimates):
        j, e = divmod(c, width)
        params = {"n": f.n, "q": points[j][0], "eps_or_lambda": eps_grid[e], "mode": mode}
        if mode == "mc":
            params.update(samples=samples, seed=seed, stderr=stderr)
        out.append(GapReport(inequality, float(lhs[j, e]), rhs, params))
    return out


def _require_main_domain(
    f: CubeFunction, q_grid: Sequence[float], eps_grid: Sequence[float], mode: str
) -> None:
    """The main inequality's checks, in order: q, f, mode, eps, then the cap
    of the exact lattice walk, taken at some q != 2 and eps != 1/2."""
    for q in q_grid:
        if not (q > 1.0 or q == math.inf):
            raise ValueError(f"norm inequality needs q > 1, got {q}")
    _require_sweep_domain("main", f, eps_grid, mode)
    if mode == "exact" and any(q != 2.0 for q in q_grid) and any(eps != 0.5 for eps in eps_grid):
        check_size("CUBENOISE_MAX_VERIFY_N", "exact subset averaging", "n", f.n, "use --mode mc, or --q 2 alone")


def _main_reports(
    f: CubeFunction,
    q_grid: Sequence[float],
    eps_grid: Sequence[float],
    noisy_norms: np.ndarray,
    mode: str,
    samples: int,
    seed: int,
) -> list[GapReport]:
    """The reports of :func:`main_inequality_sweep` on a checked grid, given
    the lhs ln ||T_eps f||_q, a row per q != 2 of the grid and a column per eps."""
    q_grid = tuple(q_grid)
    at_2 = np.array([q == 2.0 for q in q_grid], dtype=bool)
    others = tuple(q for q in q_grid if q != 2.0)
    # at eps = 1/2 the subset rate is 0: T is empty a.s. and T_eps f is the
    # constant E f, so both sides equal ln E f by definition and the report
    # is the exact-equality case, with no subset average to take
    averaged = [e for e, eps in enumerate(eps_grid) if eps != 0.5]
    lhs = np.empty((len(q_grid), len(eps_grid)))
    lhs[~at_2] = noisy_norms
    if at_2.any():
        z, shift = _squared_l2_norms(f)
        squares = _layer_sums(f.n, z)
        noisy_squares = layer_expectations([(1.0 - 2.0 * eps) ** 2 for eps in eps_grid], squares)
        lhs[at_2] = _log_l2(np.array(noisy_squares), shift)
        table = _log_l2(z, shift, out=z)

    def rows(masks: np.ndarray | None) -> list[np.ndarray]:
        kernel = _log_norms_kernel(others)
        norms = iter(_conditional_rows(f, kernel, len(others), masks) if others else ())
        l2 = lambda: table if masks is None else table[masks]
        return [l2() if q == 2.0 else next(norms) for q in q_grid]

    points = [(q, r_exponent(q)) for q in q_grid]
    reports = iter(_subset_sweep("main", f, points, lhs[:, averaged], rows,
                                 [eps_grid[e] for e in averaged], mode, samples, seed))
    value = math.log(f.mean())
    equality = lambda q, eps: GapReport(
        "main", value, value, {"n": f.n, "q": q, "eps_or_lambda": eps, "mode": mode}
    )
    return [next(reports) if eps != 0.5 else equality(q, eps) for q in q_grid for eps in eps_grid]


def main_inequality_sweep(
    f: CubeFunction,
    q_grid: Sequence[float],
    eps_grid: Sequence[float],
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[GapReport]:
    """Check ln ||T_eps f||_q <= E over T ~ (1-2 eps)^r(q) of ln ||E(f|T)||_q
    over a (q, eps) grid, q-major.

    q = 2 reads both sides off one Parseval table (:func:`_squared_l2_norms`),
    in both modes: the rhs averages its ln ||E(f|T)||_2, and the lhs uses
    ||T_eps f||_2^2 = E over T ~ (1-2 eps)^2 of ||E(f|T)||_2^2, a layer
    average of the same table that at eps = 0 is its T = [n] entry, so that
    gap is exactly 0.  The other q take their rhs from one
    :func:`_conditional_rows` call for the whole grid, over every subset in
    exact mode and over the masks drawn in mc mode; their lhs is one
    :func:`log_lq_norms` pass over the blocks of T_eps f.
    """
    _require_main_domain(f, q_grid, eps_grid, mode)
    others = tuple(q for q in q_grid if q != 2.0)
    lhs = _noisy_rows(lambda rows: log_lq_norms(rows, others), len(others), f, eps_grid)
    return _main_reports(f, q_grid, eps_grid, lhs, mode, samples, seed)


def noisy_entropy_sweep(
    f: CubeFunction,
    eps_grid: Sequence[float],
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[GapReport]:
    """Check Ent(T_eps f) <= E over T ~ (1-2 eps)^2 of Ent(E(f|T)) over a
    noise grid, reusing one conditional-entropy table; each lhs is
    cube.entropies of the rows of T_eps f, from one Walsh transform of f."""
    _require_sweep_domain("entropy", f, eps_grid, mode)
    if mode == "exact" and len(eps_grid):
        check_size("CUBENOISE_MAX_VERIFY_N", "exact subset averaging", "n", f.n, "use --mode mc")
    rows = lambda masks: _conditional_rows(f, _entropy_kernel(f.n), 1, masks)
    # an overflowing sum of g log2 g leaves an inf or nan entropy, which
    # every value it enters keeps, so a finite report had none
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _noisy_rows(entropies, 1, f, eps_grid)
        reports = _subset_sweep("entropy", f, [(None, 2.0)], lhs, rows, eps_grid, mode, samples, seed)
    if not all(math.isfinite(rep.lhs) and math.isfinite(rep.rhs) for rep in reports):
        raise ValueError(
            "entropy inequality needs every sum of g log2 g over a table of the sweep "
            "below 2^1024, the double range; some overflow for this f, scale it down"
        )
    return reports


def hypercontractive_sweep(
    f: CubeFunction,
    q_grid: Sequence[float],
    eps_grid: Sequence[float],
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[GapReport]:
    """Baseline comparator over a (q, eps) grid, q-major: ||T_eps f||_q <= ||f||
    at the reduced exponent 1 + (q-1)(1-2 eps)^2, which at eps = 1/2 is the
    1-norm E f for every q.  Exact in either mode; `mode` is that of the
    main inequality's bound on the same instance, which each note records
    (exp of the main rhs), so the grid is checked as main checks it.  The lhs
    is one :func:`log_lq_norms` pass over T_eps f, whose q != 2 rows are the
    main lhs; every rhs comes from one call on f over the reduced exponents.
    """
    _require_main_domain(f, q_grid, eps_grid, mode)
    norms = _noisy_rows(lambda rows: log_lq_norms(rows, q_grid), len(q_grid), f, eps_grid)
    others = [j for j, q in enumerate(q_grid) if q != 2.0]
    bounds = _main_reports(f, q_grid, eps_grid, norms[others], mode, samples, seed)
    points = [(q, eps) for q in q_grid for eps in eps_grid]
    # the reduced exponent is 1 at eps = 1/2 for every q, q = inf included
    exponents = [1.0 if eps == 0.5 else 1.0 + (q - 1.0) * (1.0 - 2.0 * eps) ** 2 for q, eps in points]
    lhs = np.exp(norms).ravel().tolist()
    rhs = np.exp(log_lq_norms(f.values, exponents)).tolist()
    return [
        GapReport("hypercontractive", left, right,
                  {"n": f.n, "q": q, "eps_or_lambda": eps, "mode": "exact",
                   "note": f"subset_bound={math.exp(bound.rhs)!r}"})
        for (q, eps), left, right, bound in zip(points, lhs, rhs, bounds)
    ]


def _require_finite_q_grid(q_grid: Sequence[float]) -> None:
    """The one check of the Dirichlet-form checks' exponents: finite q > 1."""
    for q in q_grid:
        if not q > 1.0 or q == math.inf:
            raise ValueError(f"need finite q > 1, got {q}")


def _coordinate_deficit(n: int, norms: np.ndarray) -> float:
    """n ln||f||_q - sum over |T| = n-1 of ln||E(f|T)||_q, given ln||E(f|T)||_q
    on the top two layers of the subset lattice in its order: T = [n], then
    [n] - {h} for h ascending.  The one formula of :func:`log_sobolev_sweep`
    and :func:`derivative_sweep`, one q of their grid at a time."""
    return n * float(norms[0]) - float(norms[1:].sum()) if n else 0.0


def log_sobolev_equality_expected(f: CubeFunction, q: float) -> bool:
    """Structural equality condition: constants for 1 < q < 2; for q >= 2,
    every edge with unequal endpoint values must have a zero endpoint."""
    if f.is_constant():
        return True
    if q < 2.0:
        return False
    v = f.values
    for i in range(f.n):
        a = v.reshape(-1, 2, 1 << i)[:, 0, :]
        b = v.reshape(-1, 2, 1 << i)[:, 1, :]
        bad = (a != b) & (a != 0.0) & (b != 0.0)
        if bool(bad.any()):
            return False
    return True


def log_sobolev_sweep(
    f: CubeFunction, q_grid: Sequence[float], tolerance: float = 1e-9
) -> list[GapReport]:
    """Check the Dirichlet-form lower bound

        E(f^(q-1), f) >= 4 r(q) E f^q (n ln||f||_q - sum_{|T|=n-1} ln||E(f|T)||_q),

    for every q of the grid, in grid order, reporting lhs = the right-hand
    bound and rhs = the Dirichlet form so that a nonnegative gap certifies the
    instance.  Both sides are homogeneous of degree q, so the input is
    rescaled to unit maximum first; this keeps every reported quantity of
    order one, where a gap's margin is the tolerance itself.  The whole grid is
    checked first; then every deficit comes from one walk of the top two
    layers of the subset lattice, the rest never built, and one
    :func:`log_lq_norms` call per layer over the grid.  The params carry the
    applied scale, an equality flag (|gap| within the row's margin) and the
    structural equality condition for cross-checking.
    """
    require_nonnegative(f)
    _require_finite_q_grid(q_grid)
    scale = float(f.values.max())
    f = f.scaled(1.0 / scale)
    layers = itertools.islice(subset_lattice(f), 2)
    norms = np.concatenate([log_lq_norms(t, q_grid) for _, _, t in layers], axis=1)
    energies = dirichlet_forms([CubeFunction(f.n, np.power(f.values, q - 1.0)) for q in q_grid], f)
    out = []
    for q, row, energy in zip(q_grid, norms, energies):
        efq = float(np.mean(f.values**q))
        bound = 4.0 * r_exponent(q) * efq * _coordinate_deficit(f.n, row)
        params = {
            "n": f.n,
            "q": q,
            "eps_or_lambda": None,
            "mode": "exact",
            "scale": scale,
            "equality_expected": log_sobolev_equality_expected(f, q),
        }
        out.append(GapReport("logsobolev", bound, energy, params).note_equality(tolerance))
    return out


def two_point_gap(t: float, q: float, tolerance: float = 1e-9) -> GapReport:
    """One-coordinate case of the Dirichlet-form bound, parametrized by the
    value ratio t >= 1 of the two-point function g = (x, 2-x) with mean one;
    t = inf is the boundary case g = (0, 2)."""
    _require_finite_q_grid((q,))
    if not t >= 1.0:
        raise ValueError(f"value ratio must be >= 1, got {t}")
    x = 0.0 if t == math.inf else 2.0 / (t + 1.0)
    g0, g1 = x, 2.0 - x
    try:
        energy = (g1 ** (q - 1.0) - g0 ** (q - 1.0)) * (g1 - g0)
        egq = 0.5 * (g0**q + g1**q)
        bound = 4.0 * r_exponent(q) * egq * math.log(egq) / q
    except OverflowError:
        energy = bound = math.inf
    if not math.isfinite(energy) or not math.isfinite(bound):
        # the largest values are at t = inf, where g = (0, 2) and the bound
        # passes the largest double between q = 1014.01 and 1014.02
        raise ValueError(f"two-point values at q={q} are not finite doubles; use q <= 1014")
    params = {"n": 1, "q": q, "eps_or_lambda": t, "mode": "exact", "t": t, "x": x}
    return GapReport("twopoint", bound, energy, params).note_equality(tolerance)


# The step h of derivative_sweep's one-sided differences, in noise rate.
_DERIVATIVE_STEP = 1e-5


def _one_sided_difference(g0: float, gh: float, g2h: float) -> float:
    """(4 g(h) - g(2h) - 3 g(0)) / 2h at h = _DERIVATIVE_STEP: the one-sided
    difference whose error is O(h^2), not the O(h) of (g(h) - g(0)) / h."""
    return (4.0 * gh - g2h - 3.0 * g0) / (2.0 * _DERIVATIVE_STEP)


def derivative_sweep(f: CubeFunction, q_grid: Sequence[float]) -> list[GapReport]:
    """For every q of the grid, in grid order, compare the closed forms of the
    derivatives at zero noise with second-order one-sided differences at step
    h = 1e-5, and check the strict ordering between them.

    The log-norm side has derivative -E(f^(q-1), f) / (2 E f^q); the averaged
    conditional-norm side has derivative -2 r(q) (n ln||f||_q - sum over
    |T| = n-1 of ln||E(f|T)||_q), the deficit :func:`log_sobolev_sweep` bounds
    with, by the same formula and with the same bits.  For nonconstant f the
    first is strictly smaller; the report's gap is their difference, which
    must be positive with no margin, and both differences must agree with
    their closed forms to a relative 1e-4 (the row's budgets).  After
    the grid is checked, one :func:`_conditional_rows` walk gives each q's
    deficit and layer sums L_k (L_n = ln||f||_q), which the rhs differences
    average, and one :func:`noise_blocks` call gives T_h f and T_2h f.
    """
    require_nonnegative(f)
    _require_finite_q_grid(q_grid)
    if f.is_constant():
        raise ValueError("derivative comparison requires a nonconstant function")
    check_size("CUBENOISE_MAX_VERIFY_N", "exact subset averaging", "n", f.n, "raise CUBENOISE_MAX_VERIFY_N")

    steps = (_DERIVATIVE_STEP, 2.0 * _DERIVATIVE_STEP)
    norms = _conditional_rows(f, _log_norms_kernel(q_grid), len(q_grid))
    noisy = _noisy_rows(lambda rows: log_lq_norms(rows, q_grid), len(q_grid), f, steps)
    top = [full_mask(f.n) ^ c for c in (0, *(1 << h for h in range(f.n)))]
    energies = dirichlet_forms([CubeFunction(f.n, np.power(f.values, q - 1.0)) for q in q_grid], f)
    out = []
    for q, row, noisy_norms, energy in zip(q_grid, norms, noisy, energies):
        efq = float(np.mean(f.values**q))
        formula_lhs = -energy / (2.0 * efq)
        formula_rhs = -2.0 * r_exponent(q) * _coordinate_deficit(f.n, row[top])
        layers = _layer_sums(f.n, row)
        base = float(layers[f.n])
        fd_lhs = _one_sided_difference(base, *map(float, noisy_norms))
        averaged = layer_expectations([subset_rate(q, step) for step in steps], layers)
        fd_rhs = _one_sided_difference(base, *averaged)

        rel_lhs = abs(fd_lhs - formula_lhs) / max(1e-300, abs(formula_lhs))
        rel_rhs = abs(fd_rhs - formula_rhs) / max(1e-300, abs(formula_rhs))
        params = {
            "n": f.n,
            "q": q,
            "eps_or_lambda": 0.0,
            "mode": "exact",
            "step": _DERIVATIVE_STEP,
            "fd_lhs": fd_lhs,
            "fd_rhs": fd_rhs,
            "rel_err_lhs": rel_lhs,
            "rel_err_rhs": rel_rhs,
            "note": f"rel_err_lhs={rel_lhs!r};rel_err_rhs={rel_rhs!r}",
        }
        budgets = {"rel_err_lhs": 1e-4, "rel_err_rhs": 1e-4}
        out.append(GapReport("derivative", formula_lhs, formula_rhs, params, budgets, strict=True))
    return out
