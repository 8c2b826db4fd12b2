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

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# A coordinate subset, as a bitmask over coordinates 1..n (bit i-1 <-> coordinate i).
SubsetMask = int

_DEFAULT_DIMENSION_CAP = 24  # 2^24 doubles = 128 MB value buffer


def dimension_cap() -> int:
    """Largest cube dimension the package will materialize (env-overridable)."""
    return int(os.environ.get("CUBENOISE_MAX_N", _DEFAULT_DIMENSION_CAP))


def full_mask(n: int) -> SubsetMask:
    return (1 << n) - 1


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """|T| for every mask T < 2^n, as a read-only int64 array."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    pc.setflags(write=False)
    return pc


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """A function {0,1}^n -> R stored as 2^n values in index order."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.n
        if not isinstance(n, int) or n < 0:
            raise ValueError("cube dimension must be a nonnegative integer")
        cap = dimension_cap()
        if n > cap:
            raise ValueError(f"cube dimension {n} exceeds cap {cap}")
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


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Walsh-Fourier coefficients, coefficient of subset R at index = mask of R."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.coeffs, dtype=np.float64, copy=True).reshape(-1)
        if v.shape != (1 << self.n,):
            raise ValueError(f"expected 2^{self.n} coefficients, got {v.shape[0]}")
        v.setflags(write=False)
        object.__setattr__(self, "coeffs", v)


def require_nonnegative(f: CubeFunction, what: str = "function") -> None:
    """Reject inputs the noise-inequality verifiers are not defined for."""
    if float(f.values.min()) < 0.0:
        raise ValueError(f"{what} must be nonnegative")
    if float(f.values.max()) <= 0.0:
        raise ValueError(f"{what} must not be identically zero")


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized Hadamard butterflies in place, O(n 2^n)."""
    size = values.shape[0]
    h = 1
    while h < size:
        v = values.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        v[:, 0, :] = a + v[:, 1, :]
        v[:, 1, :] = a - v[:, 1, :]
        h <<= 1
    return values


def wht_forward(f: CubeFunction) -> FourierSpectrum:
    """Coefficients c(R) = E_x f(x) w_R(x), with w_R(x) = (-1)^(sum of x_i, i in R)."""
    arr = f.values.copy()
    _butterfly(arr)
    arr /= 1 << f.n
    return FourierSpectrum(f.n, arr)


def wht_inverse(s: FourierSpectrum) -> CubeFunction:
    """f(x) = sum_R c(R) w_R(x); exact inverse of :func:`wht_forward` up to roundoff."""
    arr = s.coeffs.copy()
    _butterfly(arr)
    return CubeFunction(s.n, arr)


def character(n: int, r_mask: SubsetMask) -> CubeFunction:
    """The Walsh character w_R as a cube function."""
    _check_mask(n, r_mask)
    parity = np.bitwise_count(
        np.arange(1 << n, dtype=np.uint64) & np.uint64(r_mask)
    ).astype(np.int64) & 1
    return CubeFunction(n, 1.0 - 2.0 * parity)


def noise_operator(f: CubeFunction, eps: float) -> CubeFunction:
    """Average f over independent per-coordinate bit flips with probability eps.

    Computed in the Fourier domain: the coefficient of R picks up the factor
    (1-2*eps)^|R|, so the mean is untouched and the result stays a convex
    combination of shifted copies of f.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"noise rate must be in [0, 1/2], got {eps}")
    if eps == 0.0:
        return CubeFunction(f.n, f.values)
    if eps == 0.5:
        return CubeFunction(f.n, np.full(1 << f.n, f.mean()))
    spectrum = wht_forward(f)
    mult = (1.0 - 2.0 * eps) ** popcounts(f.n)
    return wht_inverse(FourierSpectrum(f.n, spectrum.coeffs * mult))


def conditional_expectation(f: CubeFunction, t_mask: SubsetMask) -> CubeFunction:
    """Average f over the coordinates outside T; constant on subcubes fixing T.

    Equivalently: keep only the Fourier coefficients of subsets R contained in T.
    """
    _check_mask(f.n, t_mask)
    arr = f.values.copy()
    for i in range(f.n):
        if t_mask >> i & 1:
            continue
        v = arr.reshape(-1, 2, 1 << i)
        m = 0.5 * (v[:, 0, :] + v[:, 1, :])
        v[:, 0, :] = m
        v[:, 1, :] = m
    return CubeFunction(f.n, arr)


def _check_mask(n: int, mask: SubsetMask) -> None:
    if not 0 <= mask < (1 << n):
        raise ValueError(f"subset mask {mask} out of range for n={n}")


def _clean_values(f: CubeFunction) -> np.ndarray:
    # Transform roundoff may leave values like -1e-17 where an exact zero belongs.
    v = f.values
    mn = float(v.min())
    if mn >= 0.0:
        return v
    scale = max(1.0, float(np.abs(v).max()))
    if mn < -1e-12 * scale:
        raise ValueError("function has significantly negative values")
    return np.maximum(v, 0.0)


def lq_norm(f: CubeFunction, q: float) -> float:
    """(E f^q)^(1/q) under the uniform measure; q = inf returns the maximum value."""
    if q == math.inf:
        return float(f.values.max())
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    v = _clean_values(f)
    mx = float(v.max())
    if mx == 0.0:
        return 0.0
    return mx * float(np.mean((v / mx) ** q)) ** (1.0 / q)


def log_lq_norm(f: CubeFunction, q: float) -> float:
    """Natural log of the q-norm, computed without overflow; -inf for f = 0."""
    if q == math.inf:
        mx = float(f.values.max())
        return math.log(mx) if mx > 0 else -math.inf
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    v = _clean_values(f)
    mx = float(v.max())
    if mx == 0.0:
        return -math.inf
    return math.log(mx) + math.log(float(np.mean((v / mx) ** q))) / q


def entropy(f: CubeFunction) -> float:
    """Ent(f) = E f log2 f - E f log2 E f, with the 0 log 0 = 0 convention."""
    v = _clean_values(f)
    ef = float(v.mean())
    if ef <= 0.0:
        raise ValueError("entropy requires E f > 0")
    pos = v > 0
    plogp = float(np.sum(v[pos] * np.log2(v[pos]))) / v.shape[0]
    return plogp - ef * math.log2(ef)


def renyi_entropy(f: CubeFunction, q: float) -> float:
    """(1/(q-1)) log2 E f^q for f normalized to E f = 1; tends to Ent(f) as q -> 1."""
    if not q > 1 or q == math.inf:
        raise ValueError(f"Renyi order must be finite and > 1, got {q}")
    if abs(f.mean() - 1.0) > 1e-9:
        raise ValueError("Renyi entropy expects E f = 1; normalize the input")
    return q * log_lq_norm(f, q) / ((q - 1.0) * math.log(2.0))


def dirichlet_form(f: CubeFunction, g: CubeFunction) -> float:
    """E_x sum over neighbors y of (f(x)-f(y)) (g(x)-g(y)) on the hypercube graph."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} != {g.n}")
    total = 0.0
    for i in range(f.n):
        fv = f.values.reshape(-1, 2, 1 << i)
        gv = g.values.reshape(-1, 2, 1 << i)
        df = fv[:, 0, :] - fv[:, 1, :]
        dg = gv[:, 0, :] - gv[:, 1, :]
        total += float(np.sum(df * dg))
    return 2.0 * total / (1 << f.n)
