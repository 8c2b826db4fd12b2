"""Accuracy budgets: the erasure-side averages held against their exact
values (tests/precise.py) on the corpus matroids and graphs, n <= 12, and
the cube-side log q-norms and the powers under them against 50-digit ones.

BUDGETS is the one table of the largest error each column may have, as
measured on this corpus when the table was added; a change that makes a
column more accurate tightens its row, so the table only ever ratchets down."""

import mpmath
import numpy as np
import pytest

import precise
from conftest import C5, random_multigraph_with_loops

from cubenoise import cube
from cubenoise.codes import deficiency_expectation
from cubenoise.cube import log_lq_norms
from cubenoise.matroids import deficiency_sweep, mu_curve, subset_rate_for, tail_sweep, tutte_sweep

P_GRID = (0.0, 1e-3, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999, 1.0)

# small p, where the mgf is within O(p) of 1 and the printed lhs, its log2,
# is near 0: the lhs rows are relative errors there
SMALL_P = (1e-3, 1e-5)

# the mean curve's grid in a matroid report, and the benchmark's deltas
MU_GRID = np.linspace(0.0, 1.0, 101)
DELTA_GRID = (0.5, 1.0, 2.0)

# the exponents the power chains of cube._power serve, and one pow exponent
NORM_Q = (1.1, 1.5, 2.5, 3.0, 4.0, 8.0)

# column -> its budget: a relative error, but for the lhs, which prints a
# log2, the absolute error of the log2 over P_GRID, and its relative error
# over SMALL_P, where it is near 0
BUDGETS = {
    "deficiency_expectation E_p 2^d": 7.0e-16,
    "deficiency_expectation E_t d": 6.6e-16,
    "tutte_sweep lhs": 1.35e-15,
    "tutte_sweep rhs": 3.5e-16,
    "deficiency_sweep lhs, small p, relative": 7.5e-16,
    "tutte_sweep lhs, small p, relative": 4.1e-16,
    "mu_curve": 7.9e-16,
    "tail_sweep probability": 5.5e-16,
    "log_lq_norms q=1.1": 1.6e-16,
    "log_lq_norms q=1.5": 3.3e-16,
    "log_lq_norms q=2.5": 1.2e-16,
    "log_lq_norms q=3": 1.2e-16,
    "log_lq_norms q=4": 1.2e-16,
    "log_lq_norms q=8": 1.2e-16,
}
ERASURE_COLUMNS = [column for column in BUDGETS if not column.startswith("log_lq_norms")]

# the most a power of cube._power may err, relative to the exact power: 7
# roundings of 2^-53, the three squarings of x^8
POWER_BUDGET = 8e-16


@pytest.fixture(scope="module")
def corpus(matroid_corpus):
    graphs = [("c5", C5)] + [(f"graph{s}", random_multigraph_with_loops(s)) for s in range(5)]
    out = matroid_corpus + [(name, g.matroid) for name, g in graphs]
    assert max(m.n for _, m in out) <= 12
    return out


def worst_errors(corpus):
    """column -> the largest error over the corpus and the p grid."""
    errors = {column: [0.0] for column in ERASURE_COLUMNS}
    for _, m in corpus:
        code, hist = m.row_space_code, m.row_space_code.histogram
        rates = [subset_rate_for(p) for p in P_GRID]
        mgfs = deficiency_expectation(code, P_GRID, np.exp2(np.arange(code.n - code.k + 1)))
        means = deficiency_expectation(code, rates)
        for p, t, (mgf, _), (mean, _) in zip(P_GRID, rates, mgfs, means, strict=True):
            exact_mgf, exact_mean = precise.matroid_mgf(hist, p), precise.mean_deficiency(hist, t)
            errors["deficiency_expectation E_p 2^d"].append(precise.relative_error(mgf, exact_mgf))
            errors["deficiency_expectation E_t d"].append(precise.relative_error(mean, exact_mean))
        for p, mu in mu_curve(m, MU_GRID):
            errors["mu_curve"].append(precise.relative_error(mu, precise.mean_deficiency(hist, p)))
        for rep in tail_sweep(m, P_GRID, DELTA_GRID):
            p, threshold = rep.params["eps_or_lambda"], rep.params["threshold"]
            errors["tail_sweep probability"].append(
                precise.relative_error(rep.lhs, precise.tail_probability(hist, p, threshold))
            )
        for rep in tutte_sweep(m, P_GRID):
            p, t = rep.params["eps_or_lambda"], rep.params["t"]
            mgf = precise.tutte_mgf(m.tutte.coeffs, m.k, m.n, p)
            mean = precise.tutte_mean_deficiency(m.tutte.coeffs, m.k, m.n, t)
            errors["tutte_sweep lhs"].append(precise.log2_error(rep.lhs, mgf))
            errors["tutte_sweep rhs"].append(precise.relative_error(rep.rhs, mean))
        for rep in deficiency_sweep(m, SMALL_P):
            mgf = precise.matroid_mgf(hist, rep.params["eps_or_lambda"])
            errors["deficiency_sweep lhs, small p, relative"].append(precise.log2_relative_error(rep.lhs, mgf))
        for rep in tutte_sweep(m, SMALL_P):
            mgf = precise.tutte_mgf(m.tutte.coeffs, m.k, m.n, rep.params["eps_or_lambda"])
            errors["tutte_sweep lhs, small p, relative"].append(precise.log2_relative_error(rep.lhs, mgf))
    return {column: max(values) for column, values in errors.items()}


def test_exact_tutte_forms_equal_the_histogram_averages(corpus):
    # the references agree with each other exactly, so each budget measures
    # the package alone
    for name, m in corpus:
        hist = m.row_space_code.histogram
        for p in P_GRID[1:-1]:
            t = subset_rate_for(p)
            assert precise.tutte_mgf(m.tutte.coeffs, m.k, m.n, p) == precise.matroid_mgf(hist, p), name
            assert precise.tutte_mean_deficiency(m.tutte.coeffs, m.k, m.n, t) == precise.mean_deficiency(hist, t)


def test_erasure_averages_within_their_budgets(corpus):
    worst = worst_errors(corpus)
    over = {column: (worst[column], BUDGETS[column]) for column in ERASURE_COLUMNS if worst[column] > BUDGETS[column]}
    assert over == {}


def norm_rows():
    """Rows of widths 1 to 256 from default_rng(15): cubes of uniform draws,
    one with every third entry 0, and the sixth power of the widest, whose
    tiny entries underflow in its powers at the larger q."""
    rng = np.random.default_rng(15)
    rows = [rng.random(width) ** 3 for width in (1, 2, 3, 5, 16, 64, 100, 256)]
    rows[4][::3] = 0.0
    return rows + [rows[-1] ** 6]


def test_log_lq_norms_within_their_budgets():
    # the relative error of ln ||g||_q against 50 digits, the worst over the rows
    rows = norm_rows()
    worst = {}
    for q in NORM_Q:
        errors = [precise.mp_relative_error(log_lq_norms(row, (q,))[0], precise.log_lq_norm(row, q)) for row in rows]
        worst[f"log_lq_norms q={q:g}"] = max(errors)
    assert {column: (worst[column], BUDGETS[column]) for column in worst if worst[column] > BUDGETS[column]} == {}


def power_inputs():
    """0, 1, the subnormal and normal ends, for each q an x whose power lies
    below the normal range, and uniform draws in [0, 1)."""
    edges = [0.0, 1.0, 1.0 - 2.0**-53, 0.5, 5e-324, 1e-310, 2.0**-1022]
    tiny = [1e-310 ** (1.0 / q) for q in NORM_Q] + [(2.0**-1022) ** (1.0 / q) for q in NORM_Q]
    return np.array(edges + tiny + np.random.default_rng(8).random(2000).tolist())


@pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 3.0, 4.0, 8.0])
def test_chained_powers_within_seven_roundings(q):
    # within POWER_BUDGET of the exact power, or within the least double
    # where the exact power lies below the normal range
    x = power_inputs()
    got = cube._power(x, q, np.empty_like(x))
    exact = [precise.power(v, q) for v in x]
    over = [(v, p) for v, p, e in zip(x, got, exact) if not abs(mpmath.mpf(p) - e) <= POWER_BUDGET * e + 2.0**-1074]
    assert over == []


def test_square_keeps_the_bits_of_the_power_operator():
    x = power_inputs()
    assert np.array_equal(cube._power(x, 2.0, np.empty_like(x)).view(np.uint64), (x**2).view(np.uint64))
