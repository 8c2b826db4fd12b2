"""Gap verifiers for the noise-operator norm inequalities on the cube.

Every verifier returns a :class:`GapReport` for a claim of the form
"lhs <= rhs", with gap = rhs - lhs exactly as computed, so a nonnegative
gap (up to the caller's tolerance) certifies the instance.  All log-norm
comparisons here use natural logs; base does not affect truth because both
sides of each inequality share it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cube import (
    CubeFunction,
    SubsetMask,
    conditional_expectation,
    dirichlet_form,
    entropy,
    full_mask,
    log_lq_norm,
    lq_norm,
    noise_operator,
    popcounts,
    require_nonnegative,
)

LN2 = math.log(2.0)

# Exact subset enumeration caps: evaluating h on all 2^n subsets is fine up to
# n = 22 for cheap h, but verifiers whose h itself costs O(2^n) stop at 13.
_DEFAULT_ENUM_CAP = 22
_DEFAULT_EXPENSIVE_CAP = 13


def enum_cap() -> int:
    return int(os.environ.get("CUBENOISE_MAX_ENUM_N", _DEFAULT_ENUM_CAP))


def expensive_enum_cap() -> int:
    return int(os.environ.get("CUBENOISE_MAX_VERIFY_N", _DEFAULT_EXPENSIVE_CAP))


def _check_expensive_cap(n: int, mc_route: bool = True) -> None:
    """One cap check and message for the verifiers that tabulate a 2^n-point
    function on each of the 2^n subsets."""
    cap = expensive_enum_cap()
    if n > cap:
        route = "use --mode mc" if mc_route else "raise CUBENOISE_MAX_VERIFY_N"
        raise ValueError(f"exact subset averaging capped at n={cap}, got n={n}; {route}")


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
    """Outcome of one inequality check: claim is lhs <= rhs, gap = rhs - lhs."""

    inequality: str
    lhs: float
    rhs: float
    gap: float
    params: dict = field(default_factory=dict)

    def holds(self, tolerance: float = 1e-9) -> bool:
        # Monte Carlo estimates carry their standard error; allow 4 sigma.
        slack = tolerance + 4.0 * self.params.get("stderr", 0.0)
        return self.gap >= -slack

    def row(self) -> dict:
        out = {
            "inequality": self.inequality,
            "n": self.params.get("n"),
            "q": self.params.get("q"),
            "eps_or_lambda": self.params.get("eps_or_lambda"),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "mode": self.params.get("mode"),
            "samples": self.params.get("samples"),
            "seed": self.params.get("seed"),
            "note": self.params.get("note", ""),
        }
        return out

    def csv_row(self) -> str:
        row = self.row()
        return ",".join(_fmt(row[c]) for c in CSV_COLUMNS)

    def json_dict(self) -> dict:
        return self.row()

    def to_json(self) -> str:
        return json.dumps(self.row(), sort_keys=True)


def subset_weights(n: int, lam: float) -> np.ndarray:
    """Probability of each mask T under independent inclusion with rate lam."""
    return size_weights(n, lam)[popcounts(n)]


def size_weights(n: int, lam: float) -> np.ndarray:
    """Probability lam^k (1-lam)^(n-k) of one particular mask of size k, for
    k = 0..n."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"subset density must be in [0, 1], got {lam}")
    k = np.arange(n + 1)
    return np.power(lam, k) * np.power(1.0 - lam, n - k)


def _layer_sums(n: int, table: np.ndarray) -> np.ndarray:
    """L_k = sum of table[T] over the masks T of size k, for k = 0..n."""
    return np.bincount(popcounts(n), weights=table, minlength=n + 1)


def _layer_expectation(lam: float, layers: np.ndarray) -> float:
    """E over T ~ lam of a table given by its layer sums.  Layers of probability
    zero are left out, so an infinite table entry there cannot make the sum NaN."""
    w = size_weights(layers.shape[0] - 1, lam)
    used = w > 0.0
    return float(w[used] @ layers[used])


def subset_expectation_exact(
    n: int, lam: float, h: Callable[[SubsetMask], float], cap: int | None = None
) -> float:
    """Sum over all T of lam^|T| (1-lam)^(n-|T|) h(T)."""
    if cap is None:
        cap = enum_cap()
    if n > cap:
        raise ValueError(f"exact subset enumeration capped at n={cap}, got {n}")
    table = np.array([h(t) for t in range(1 << n)], dtype=np.float64)
    return _layer_expectation(lam, _layer_sums(n, table))


def subset_expectation_mc(
    n: int, lam: float, h: Callable[[SubsetMask], float], samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the subset expectation: (mean, standard error)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    bits = rng.random((samples, n)) < lam if n else np.zeros((samples, 0), bool)
    masks = bits.dot(1 << np.arange(n, dtype=np.int64)) if n else np.zeros(samples, np.int64)
    vals = np.array([h(int(m)) for m in masks], dtype=np.float64)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def _cond_exp_table(f: CubeFunction, side: Callable[[CubeFunction], float]) -> np.ndarray:
    """side(E(f|T)) for every subset T."""
    return np.array([side(conditional_expectation(f, t)) for t in range(1 << f.n)])


def cond_exp_log_norms(f: CubeFunction, q: float) -> np.ndarray:
    """ln of the q-norm of the conditional expectation of f on every subset T."""
    return _cond_exp_table(f, lambda g: log_lq_norm(g, q))


def _subset_sweep(
    inequality: str,
    f: CubeFunction,
    q: float | None,
    eps_grid: Sequence[float],
    r: float,
    side: Callable[[CubeFunction], float],
    table: Callable[[], np.ndarray],
    mode: str,
    samples: int,
    seed: int,
) -> list[GapReport]:
    """Check side(T_eps f) <= E over T ~ (1-2 eps)^r of side(E(f|T)) for each eps.

    Exact mode builds ``table()`` (side(E(f|T)) for every T) at most once and
    reduces it to layer sums, so each eps costs one (n+1)-term dot product.
    Monte Carlo mode draws each eps's subsets afresh from the same seed.
    """
    require_nonnegative(f)
    if f.mean() <= 0.0:
        raise ValueError(f"{inequality} inequality requires E f > 0; the mean underflows to 0")
    layers = None
    out = []
    for eps in eps_grid:
        params = {"n": f.n, "q": q, "eps_or_lambda": eps, "mode": mode}
        if inequality == "main" and eps == 0.5:
            # lam = 0: T is empty a.s. and T_eps f is the constant E f; both sides
            # equal ln E f by definition, so report the exact-equality case.
            value = math.log(f.mean())
            out.append(GapReport("main", value, value, 0.0, params))
            continue
        lhs = side(noise_operator(f, eps))  # rejects eps outside [0, 1/2]
        lam = (1.0 - 2.0 * eps) ** r
        if mode == "exact":
            if layers is None:
                _check_expensive_cap(f.n)
                layers = _layer_sums(f.n, table())
            rhs = _layer_expectation(lam, layers)
        elif mode == "mc":
            rhs, stderr = subset_expectation_mc(
                f.n, lam, lambda t: side(conditional_expectation(f, t)), samples, seed
            )
            params.update(samples=samples, seed=seed, stderr=stderr)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        out.append(GapReport(inequality, lhs, rhs, rhs - lhs, params))
    return out


def main_inequality_sweep(
    f: CubeFunction,
    q: float,
    eps_grid: Sequence[float],
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[GapReport]:
    """Check ln ||T_eps f||_q <= E over T ~ (1-2 eps)^r(q) of ln ||E(f|T)||_q
    over a noise grid, reusing one conditional-norm table."""
    if not (q > 1.0 or q == math.inf):
        raise ValueError(f"norm inequality needs q > 1, got {q}")
    return _subset_sweep(
        "main", f, q, eps_grid, r_exponent(q),
        lambda g: log_lq_norm(g, q),
        lambda: cond_exp_log_norms(f, q),
        mode, samples, seed,
    )


def main_inequality_gap(
    f: CubeFunction,
    q: float,
    eps: float,
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> GapReport:
    """:func:`main_inequality_sweep` at one noise rate."""
    return main_inequality_sweep(f, q, (eps,), mode, samples, seed)[0]


def noisy_entropy_sweep(
    f: CubeFunction,
    eps_grid: Sequence[float],
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> list[GapReport]:
    """Check Ent(T_eps f) <= E over T ~ (1-2 eps)^2 of Ent(E(f|T)) over a
    noise grid, reusing one conditional-entropy table."""
    return _subset_sweep(
        "entropy", f, None, eps_grid, 2.0, entropy,
        lambda: _cond_exp_table(f, entropy),
        mode, samples, seed,
    )


def noisy_entropy_gap(
    f: CubeFunction,
    eps: float,
    mode: str = "exact",
    samples: int = 20000,
    seed: int = 0,
) -> GapReport:
    """:func:`noisy_entropy_sweep` at one noise rate."""
    return noisy_entropy_sweep(f, (eps,), mode, samples, seed)[0]


def hypercontractive_rhs(f: CubeFunction, q: float, eps: float) -> float:
    """The classical comparison norm ||f|| at exponent 1 + (q-1)(1-2 eps)^2."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"noise rate must be in [0, 1/2], got {eps}")
    return lq_norm(f, 1.0 + (q - 1.0) * (1.0 - 2.0 * eps) ** 2)


def hypercontractive_gap(f: CubeFunction, q: float, eps: float) -> GapReport:
    """Baseline comparator: ||T_eps f||_q <= ||f|| at the reduced exponent."""
    require_nonnegative(f)
    lhs = lq_norm(noise_operator(f, eps), q)
    rhs = hypercontractive_rhs(f, q, eps)
    params = {"n": f.n, "q": q, "eps_or_lambda": eps, "mode": "exact"}
    return GapReport("hypercontractive", lhs, rhs, rhs - lhs, params)


def _coordinate_log_norm_deficit(f: CubeFunction, q: float) -> tuple[float, float]:
    """(n ln||f||_q - sum over |T| = n-1 of ln||E(f|T)||_q, ln||f||_q)."""
    base = log_lq_norm(f, q)
    fm = full_mask(f.n)
    drop = sum(
        log_lq_norm(conditional_expectation(f, fm ^ (1 << i)), q) for i in range(f.n)
    )
    return f.n * base - drop, base


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


def log_sobolev_gap(f: CubeFunction, q: float, tolerance: float = 1e-9) -> GapReport:
    """Check the Dirichlet-form lower bound

        E(f^(q-1), f) >= 4 r(q) E f^q (n ln||f||_q - sum_{|T|=n-1} ln||E(f|T)||_q),

    reporting lhs = the right-hand bound and rhs = the Dirichlet form so that a
    nonnegative gap certifies the instance.  Both sides are homogeneous of
    degree q, so the input is rescaled to unit maximum first; this keeps every
    reported quantity of order one and the absolute gap tolerance meaningful.
    The params carry the applied scale, an equality flag and the structural
    equality condition for cross-checking.
    """
    require_nonnegative(f)
    if not q > 1.0 or q == math.inf:
        raise ValueError(f"need finite q > 1, got {q}")
    scale = float(f.values.max())
    f = f.scaled(1.0 / scale)
    power = CubeFunction(f.n, np.power(f.values, q - 1.0))
    energy = dirichlet_form(power, f)
    efq = float(np.mean(f.values**q))
    deficit, _ = _coordinate_log_norm_deficit(f, q)
    bound = 4.0 * r_exponent(q) * efq * deficit
    gap = energy - bound
    equality = abs(gap) <= tolerance * max(1.0, abs(bound))
    params = {
        "n": f.n,
        "q": q,
        "eps_or_lambda": None,
        "mode": "exact",
        "scale": scale,
        "equality": equality,
        "equality_expected": log_sobolev_equality_expected(f, q),
        "note": "equality" if equality else "",
    }
    return GapReport("logsobolev", bound, energy, gap, params)


def two_point_gap(t: float, q: float, tolerance: float = 1e-9) -> GapReport:
    """One-coordinate case of the Dirichlet-form bound, parametrized by the
    value ratio t >= 1 of the two-point function g = (x, 2-x) with mean one;
    t = inf is the boundary case g = (0, 2)."""
    if not q > 1.0 or q == math.inf:
        raise ValueError(f"need finite q > 1, got {q}")
    if not t >= 1.0:
        raise ValueError(f"value ratio must be >= 1, got {t}")
    x = 0.0 if t == math.inf else 2.0 / (t + 1.0)
    g0, g1 = x, 2.0 - x
    energy = (g1 ** (q - 1.0) - g0 ** (q - 1.0)) * (g1 - g0)
    egq = 0.5 * (g0**q + g1**q)
    bound = 4.0 * r_exponent(q) * egq * math.log(egq) / q
    gap = energy - bound
    equality = abs(gap) <= tolerance * max(1.0, abs(bound))
    params = {
        "n": 1,
        "q": q,
        "eps_or_lambda": t,
        "mode": "exact",
        "t": t,
        "x": x,
        "equality": equality,
        "note": "equality" if equality else "",
    }
    return GapReport("twopoint", bound, energy, gap, params)


def derivative_check(f: CubeFunction, q: float, step: float = 1e-5) -> GapReport:
    """Compare the closed forms of the derivatives at zero noise with one-sided
    finite differences, and check the strict ordering between them.

    The log-norm side has derivative -E(f^(q-1), f) / (2 E f^q); the averaged
    conditional-norm side has derivative -2 r(q) (n ln||f||_q - sum over
    |T| = n-1 of ln||E(f|T)||_q).  For nonconstant f the first is strictly
    smaller; the report's gap is their difference.
    """
    require_nonnegative(f)
    if not q > 1.0 or q == math.inf:
        raise ValueError(f"need finite q > 1, got {q}")
    if f.is_constant():
        raise ValueError("derivative comparison requires a nonconstant function")
    _check_expensive_cap(f.n, mc_route=False)

    power = CubeFunction(f.n, np.power(f.values, q - 1.0))
    efq = float(np.mean(f.values**q))
    formula_lhs = -dirichlet_form(power, f) / (2.0 * efq)
    deficit, base = _coordinate_log_norm_deficit(f, q)
    formula_rhs = -2.0 * r_exponent(q) * deficit

    fd_lhs = (log_lq_norm(noise_operator(f, step), q) - base) / step
    layers = _layer_sums(f.n, cond_exp_log_norms(f, q))
    g0 = float(layers[f.n])
    gh = _layer_expectation(subset_rate(q, step), layers)
    fd_rhs = (gh - g0) / step

    rel_lhs = abs(fd_lhs - formula_lhs) / max(1e-300, abs(formula_lhs))
    rel_rhs = abs(fd_rhs - formula_rhs) / max(1e-300, abs(formula_rhs))
    params = {
        "n": f.n,
        "q": q,
        "eps_or_lambda": 0.0,
        "mode": "exact",
        "step": step,
        "fd_lhs": fd_lhs,
        "fd_rhs": fd_rhs,
        "rel_err_lhs": rel_lhs,
        "rel_err_rhs": rel_rhs,
        "note": f"rel_err={max(rel_lhs, rel_rhs):.2e}",
    }
    return GapReport("derivative", formula_lhs, formula_rhs, formula_rhs - formula_lhs, params)
