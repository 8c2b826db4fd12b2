"""Seeded generators for the verification campaigns: i.i.d. uniform functions
plus structured families (set indicators, characters shifted to be nonnegative,
code indicators) that hit the equality cases uniform fuzzing misses."""

from __future__ import annotations

import numpy as np

from .codes import LinearCode, gf2_rref, scaled_indicator
from .cube import CubeFunction, character


def random_nonneg(n: int, rng: np.random.Generator) -> CubeFunction:
    return CubeFunction(n, rng.random(1 << n))


def random_positive(n: int, rng: np.random.Generator) -> CubeFunction:
    """Uniform values in [0.1, 1.1): bounded away from zero."""
    return CubeFunction(n, 0.1 + rng.random(1 << n))


def random_set_indicator(n: int, rng: np.random.Generator) -> CubeFunction:
    size = 1 << n
    count = int(rng.integers(1, size + 1))
    support = rng.choice(size, size=count, replace=False)
    vals = np.zeros(size)
    vals[support] = size / count
    return CubeFunction(n, vals)


def shifted_character(n: int, rng: np.random.Generator) -> CubeFunction:
    r_mask = int(rng.integers(1, 1 << n))
    amp = float(rng.uniform(0.0, 1.0))
    return CubeFunction(n, 1.0 + amp * character(n, r_mask).values)


def random_code(n: int, rng: np.random.Generator) -> LinearCode:
    rows = int(rng.integers(1, n + 1))
    basis = gf2_rref((int(r) for r in rng.integers(1, 1 << n, rows)), n)[1]
    return LinearCode(n, tuple(basis) if basis else (1,))


def random_code_indicator(n: int, rng: np.random.Generator) -> CubeFunction:
    return scaled_indicator(random_code(n, rng))


def standard_corpus(n: int, count: int, rng: np.random.Generator) -> list[CubeFunction]:
    """Mostly uniform-random functions, interleaved with the structured
    families roughly every fourth draw.  At n = 0 the shifted character and
    the code indicator, which need a coordinate, are left out."""
    out = []
    for i in range(count):
        kind = i % 8
        if n == 0 and kind in (6, 7):
            continue
        if kind == 5:
            out.append(random_set_indicator(n, rng))
        elif kind == 6:
            out.append(shifted_character(n, rng))
        elif kind == 7:
            out.append(random_code_indicator(n, rng))
        else:
            out.append(random_nonneg(n, rng))
    return out
