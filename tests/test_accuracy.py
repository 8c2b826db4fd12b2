"""Accuracy budgets: the erasure-side averages held against their exact
values (tests/precise.py) on the corpus matroids and graphs, n <= 12.

BUDGETS is the one table of the largest error each column may have, as
measured on this corpus when the table was added; a change that makes a
column more accurate tightens its row, so the table only ever ratchets down."""

import numpy as np
import pytest

import precise
from conftest import C5, random_multigraph_with_loops

from cubenoise.codes import deficiency_expectation
from cubenoise.matroids import subset_rate_for, tutte_sweep

P_GRID = (0.0, 1e-3, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999, 1.0)

# column -> its budget: a relative error, but for the lhs, which prints a
# log2, the absolute error of the log2
BUDGETS = {
    "deficiency_expectation E_p 2^d": 8.4e-16,
    "deficiency_expectation E_t d": 8.5e-16,
    "tutte_sweep lhs": 1.4e-15,
    "tutte_sweep rhs": 4.7e-16,
}


@pytest.fixture(scope="module")
def corpus(matroid_corpus):
    graphs = [("c5", C5)] + [(f"graph{s}", random_multigraph_with_loops(s)) for s in range(5)]
    out = matroid_corpus + [(name, g.matroid) for name, g in graphs]
    assert max(m.n for _, m in out) <= 12
    return out


def worst_errors(corpus):
    """column -> the largest error over the corpus and the p grid."""
    errors = {column: [0.0] for column in BUDGETS}
    for _, m in corpus:
        code, hist = m.row_space_code, m.row_space_code.histogram
        rates = [subset_rate_for(p) for p in P_GRID]
        mgfs = deficiency_expectation(code, P_GRID, np.exp2(np.arange(code.n - code.k + 1)))
        means = deficiency_expectation(code, rates)
        for p, t, (mgf, _), (mean, _) in zip(P_GRID, rates, mgfs, means, strict=True):
            exact_mgf, exact_mean = precise.matroid_mgf(hist, p), precise.mean_deficiency(hist, t)
            errors["deficiency_expectation E_p 2^d"].append(precise.relative_error(mgf, exact_mgf))
            errors["deficiency_expectation E_t d"].append(precise.relative_error(mean, exact_mean))
        for rep in tutte_sweep(m, P_GRID):
            p, t = rep.params["eps_or_lambda"], rep.params["t"]
            mgf = precise.tutte_mgf(m.tutte.coeffs, m.k, m.n, p)
            mean = precise.tutte_mean_deficiency(m.tutte.coeffs, m.k, m.n, t)
            errors["tutte_sweep lhs"].append(precise.log2_error(rep.lhs, mgf))
            errors["tutte_sweep rhs"].append(precise.relative_error(rep.rhs, mean))
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
    over = {column: (worst[column], budget) for column, budget in BUDGETS.items() if worst[column] > budget}
    assert over == {}
