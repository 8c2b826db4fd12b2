"""Exact references for the accuracy budgets: the erasure-side averages as
Fractions of the integer (size, deficiency) histogram and of the Tutte
coefficients, at the float rates the package computes with, so each value is
the exact one for the inputs the package saw; a 50-digit log2 for the
columns that print one; and 50-digit powers and log q-norms of float
tables for the cube side."""

from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 50


def _cells(hist):
    """(size s, deficiency d, count N[s, d]) over the nonzero cells."""
    return [(s, d, int(c)) for (s, d), c in np.ndenumerate(hist) if c]


def histogram_average(hist, lam, value):
    """E over T ~ lam of value(|T|, d(T)), exactly: sum of N[s, d] lam^s
    (1 - lam)^(n - s) value(s, d) with lam the Fraction of the float."""
    lam, n = Fraction(lam), hist.shape[0] - 1
    return sum(c * lam**s * (1 - lam) ** (n - s) * value(s, d) for s, d, c in _cells(hist))


def matroid_mgf(hist, p):
    """E over S ~ p of 2^(|S| - rank S)."""
    return histogram_average(hist, p, lambda s, d: 2**d)


def mean_deficiency(hist, t):
    """E over T ~ t of (|T| - rank T)."""
    return histogram_average(hist, t, lambda s, d: d)


def tail_probability(hist, p, threshold):
    """P over S ~ p of d(S) >= threshold."""
    return histogram_average(hist, p, lambda s, d: int(d >= threshold))


def tutte_mgf(coeffs, k, n, p):
    """The matroid mgf by the Tutte form p^k (1-p)^(n-k) T(1/p, (1+p)/(1-p)),
    summed as sum of c_ij p^(k-i) (1-p)^(n-k-j) (1+p)^j, for 0 < p < 1."""
    p = Fraction(p)
    return sum(c * p ** (k - i) * (1 - p) ** (n - k - j) * (1 + p) ** j for (i, j), c in coeffs.items())


def tutte_mean_deficiency(coeffs, k, n, t):
    """The mean deficiency by the Tutte form t^(k+1) (1-t)^(n-k-1)
    dT/dy(1/t, 1/(1-t)), summed as sum of c_ij j t^(k+1-i) (1-t)^(n-k-j),
    for 0 < t < 1."""
    t = Fraction(t)
    return sum(c * j * t ** (k + 1 - i) * (1 - t) ** (n - k - j) for (i, j), c in coeffs.items())


def log2(x):
    """log2 of a positive Fraction, to 50 digits.  Within 1/2 of 1 it is
    taken as log1p(x - 1) / ln 2, since x rounded to 50 digits would keep
    too few digits of an excess like 1e-40."""
    if abs(x - 1) < Fraction(1, 2):
        excess = x - 1
        return mpmath.log1p(mpmath.mpf(excess.numerator) / excess.denominator) / mpmath.log(2)
    return mpmath.log(mpmath.mpf(x.numerator) / x.denominator, 2)


def relative_error(value, exact):
    """|value - exact| / |exact| as a float; 0 when both are 0, inf when
    only the exact value is."""
    if exact == 0:
        return 0.0 if value == 0 else float("inf")
    return float(abs(Fraction(value) - exact) / abs(exact))


def mp_relative_error(value, exact):
    """|value - exact| / |exact| as a float, for a 50-digit exact value."""
    return float(abs((mpmath.mpf(value) - exact) / exact))


def log2_error(value, exact):
    """|value - log2(exact)| as a float: the absolute error of a printed log2,
    about the relative error of its argument over ln 2."""
    return float(abs(mpmath.mpf(value) - log2(exact)))


def log2_relative_error(value, exact):
    """|value - log2(exact)| / |log2(exact)| as a float, for a printed log2
    near 0; 0 when exact is 1 and value is 0, inf when only exact is 1."""
    if exact == 1:
        return 0.0 if value == 0 else float("inf")
    return mp_relative_error(value, log2(exact))


def power(x, q):
    """x^q of a float x >= 0 and a float q, to 50 digits."""
    return mpmath.mpf(x) ** mpmath.mpf(q)


def log_lq_norm(values, q):
    """ln ||g||_q = ln (mean g^q) / q of a table of floats g >= 0, to 50
    digits, with no underflow on tiny entries; -inf for a zero table."""
    moment = mpmath.fsum(power(v, q) for v in values) / len(values)
    return mpmath.log(moment) / mpmath.mpf(q) if moment > 0 else mpmath.mpf("-inf")
