"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is budgeted to finish in well under two minutes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import C5, EPS_GRID, K3, K4, PETERSEN, Q_GRID, random_multigraph_with_loops
from references import connected_components, matroid_rank, point_indicator
from test_matroids import oracle_tutte

from cubenoise import corpus
from cubenoise.cli import main as cli_main
from cubenoise.codes import (
    alpha_reversal_holds,
    bec_bound_primal_side,
    deficiency_expectation,
    f_sweep,
    macwilliams_transform,
    reed_muller,
    sberlo_comparison_rows,
)
from cubenoise.cube import CubeFunction
from cubenoise.inequalities import (
    derivative_sweep,
    log_sobolev_sweep,
    main_inequality_sweep,
    two_point_gap,
)
from cubenoise.matroids import (
    deficiency_sweep,
    graph_sweep,
    mu_curve,
    tail_sweep,
    tutte_polynomial,
    tutte_sweep,
)

GAP_TOL = 1e-9
EXACT_TOL = 1e-12


def _pass(num: int, message: str) -> None:
    print(f"PASS criterion {num:2d}: {message}")


def test_criterion_01_main_inequality_suite(function_corpus):
    checked = 0
    for n, functions in function_corpus.items():
        for f in functions:
            constant = f.is_constant()
            for q in Q_GRID:
                for rep in main_inequality_sweep(f, (q,), EPS_GRID):
                    assert rep.gap >= -GAP_TOL, (n, q, rep.params)
                    if rep.params["eps_or_lambda"] == 0.0 or constant:
                        assert abs(rep.gap) <= EXACT_TOL, (n, q, rep.params)
                    checked += 1
    # explicit constant functions on every dimension
    for n in (1, 2, 3, 4):
        f = CubeFunction(n, np.full(1 << n, 3.7))
        for q in Q_GRID:
            for rep in main_inequality_sweep(f, (q,), EPS_GRID):
                assert abs(rep.gap) <= EXACT_TOL
                checked += 1
    _pass(1, f"norm-inequality gap >= -1e-9 on {checked} exact instances, "
             "equality at zero noise and for constants")


def test_criterion_02_log_sobolev_suite(function_corpus):
    checked = 0
    for n, functions in function_corpus.items():
        for f in functions:
            for rep in log_sobolev_sweep(f, Q_GRID):
                assert rep.gap >= -GAP_TOL, (n, rep.params)
                checked += 1
    # equality for scaled single-point indicators at q in {2, 3, 4}
    for n in (2, 3, 4):
        f = point_indicator(n, point=n, scale=float(3 << n))
        for rep in log_sobolev_sweep(f, (2.0, 3.0, 4.0)):
            assert abs(rep.gap) <= 1e-9, (n, rep.params["q"], rep.gap)
            assert rep.params["equality"] and rep.params["equality_expected"]
    # strictness for strictly positive nonconstant inputs at q = 1.5, and the
    # equality detector staying quiet on them across the whole grid
    rng = np.random.default_rng(555)
    for _ in range(50):
        f = corpus.random_positive(3, rng)
        reports = log_sobolev_sweep(f, Q_GRID)
        assert reports[Q_GRID.index(1.5)].gap > EXACT_TOL
        assert not any(rep.params["equality"] for rep in reports)
    _pass(2, f"Dirichlet-form bound holds on {checked} instances, equality "
             "exactly on point indicators, strict at q=1.5 for positive inputs")


def test_criterion_03_two_point_suite():
    for t in np.logspace(0.0, 3.0, 50):
        for q in Q_GRID:
            rep = two_point_gap(float(t), q)
            assert rep.gap >= -GAP_TOL, (t, q)
            assert rep.params["equality"] == (t == 1.0)
    for q in Q_GRID:
        rep = two_point_gap(math.inf, q)
        assert rep.gap >= -GAP_TOL
        assert rep.params["equality"] == (q >= 2.0), q
    _pass(3, "two-point inequality on 50 ratios x 7 exponents; equality "
             "flagged exactly at ratio 1 and at the vanishing endpoint for q >= 2")


def test_criterion_04_derivative_identities():
    rng = np.random.default_rng(4242)
    count = 0
    # 50 draws at n = 1..3, then one at each n = 4..10: the difference
    # quotients' error grows with n
    for i in range(57):
        n = int(rng.integers(1, 4)) if i < 50 else i - 46
        f = corpus.random_positive(n, rng)
        for rep in derivative_sweep(f, Q_GRID):
            assert rep.params["rel_err_lhs"] <= 1e-4, (n, rep.params)
            assert rep.params["rel_err_rhs"] <= 1e-4, (n, rep.params)
            assert rep.gap > 0.0, (n, rep.params)
            count += 1
    _pass(4, f"derivative formulas match finite differences within 1e-4 and "
             f"stay strictly ordered on {count} instances")


def test_criterion_05_enumerator_identities(code_corpus):
    lam_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    for name, code in code_corpus:
        for lam, row in zip(lam_grid, f_sweep(code, lam_grid, ())):
            assert row.identities.spread() <= 1e-9, (name, lam, row.identities)
    # cube-route cross-check of the q = 2 / q = inf agreement for n <= 10
    for name, code in code_corpus:
        if code.n > 10:
            continue
        for lam, row in zip((0.2, 0.5, 0.8), f_sweep(code, (0.2, 0.5, 0.8), ())):
            a, b = row.identities.moment, row.identities.sup
            assert abs(a - b) <= 1e-9, (name, lam)
    _pass(5, f"four-way enumerator identity within 1e-9 for {len(code_corpus)} "
             "codes x 9 rates, cube cross-check for n <= 10")


def test_criterion_06_deficiency_dominates_f(code_corpus):
    lam_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    checked = 0
    for name, code in code_corpus:
        rows = f_sweep(code, lam_grid, (1.5, 2.0, 3.0, math.inf))
        for lam, row, (deficiency, _) in zip(lam_grid, rows, deficiency_expectation(code, lam_grid)):
            for q, value in zip((1.5, 2.0, 3.0, math.inf), row.values):
                assert deficiency >= value - GAP_TOL, (name, lam, q)
                checked += 1
    _pass(6, f"rank deficiency dominates the value family on {checked} "
             "(code, rate, exponent) triples")


def test_criterion_07_macwilliams_and_alpha_reversal(code_corpus):
    alphas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for name, code in code_corpus:
        a = code.weights
        b = macwilliams_transform(a, code.n, code.k)
        assert b.counts == code.dual.weights.counts, name
        for alpha in alphas:
            assert alpha_reversal_holds(a, alpha), (name, alpha)
    _pass(7, f"transform equals dual enumeration exactly and the reversal "
             f"inequality holds rationally for {len(code_corpus)} codes")


def test_criterion_08_matroid_suite(matroid_corpus):
    rng = np.random.default_rng(88)
    randoms = [(n, m) for n, m in matroid_corpus if n.startswith("rand")]
    assert len(randoms) == 50
    for name, m in randoms:
        extra = rng.uniform(0.05, 0.95, 2)
        grid = (0.2, 0.5, 0.8, *[float(x) for x in extra])
        for p, rep in zip(grid, deficiency_sweep(m, grid)):
            assert rep.gap >= -GAP_TOL, (name, p)
        for p, rep in zip(grid, tutte_sweep(m, grid)):
            assert rep.params["mgf_residual"] <= 1e-9, (name, p)
            assert rep.params["deficiency_residual"] <= 1e-9, (name, p)
            assert rep.gap >= -GAP_TOL, (name, p)
    tails = 0
    for name, m in matroid_corpus:
        assert m.n <= 14
        for rep in tail_sweep(m, (0.2, 0.5, 0.8), (0.0, 0.5, 1.0, 2.0, 4.0)):
            assert rep.lhs <= rep.rhs + 1e-12, (name, rep.params["eps_or_lambda"], rep.params["delta"])
            tails += 1
    assert dict(tutte_polynomial(K3.matroid).coeffs) == {
        (2, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
    }
    oracle_graphs = [K3, K4, random_multigraph_with_loops(5, 4, 8),
                     random_multigraph_with_loops(6, 5, 10)]
    for g in oracle_graphs:
        assert len(g.edges) <= 10
        got = dict(tutte_polynomial(g.matroid).coeffs)
        assert got == oracle_tutte(list(g.edges))
    _pass(8, f"matroid inequality, Tutte identities, {tails} exhaustive tails, "
             "triangle polynomial and deletion-contraction agreement")


def test_criterion_09_graph_suite():
    graphs = [
        ("K4", K4),
        ("C5", C5),
        ("Petersen", PETERSEN),
        ("multi1", random_multigraph_with_loops(11, 5, 10)),
        ("multi2", random_multigraph_with_loops(12, 6, 12)),
    ]
    for name, g in graphs:
        for p, rep in zip((0.2, 0.5, 0.8), graph_sweep(g, deficiency_sweep(g.matroid, (0.2, 0.5, 0.8)))):
            assert rep.params["mode"] == "exact"
            assert rep.gap >= -GAP_TOL, (name, p)
    # exhaustive rank identity for every graph with at most 14 edges
    for name, g in graphs:
        if len(g.edges) > 14:
            continue
        m = g.matroid
        for s in range(1 << len(g.edges)):
            assert matroid_rank(m, s) == g.vertex_count - connected_components(g, s)
    _pass(9, "component-count inequality exhaustive on K4, C5, Petersen and "
             "two loopy multigraphs; rank identity exhaustive for |E| <= 14")


def test_criterion_10_mu_curves(matroid_corpus):
    grid = np.linspace(0.0, 1.0, 101)
    for name, m in matroid_corpus:
        pts = mu_curve(m, grid)
        mus = np.array([mu for _, mu in pts])
        assert mus[0] == 0.0, name
        assert np.diff(mus).min() >= -1e-12, name
        assert np.diff(mus, 2).min() >= -GAP_TOL, name
    _pass(10, f"mean-deficiency curves start at zero, increase and stay convex "
              f"for {len(matroid_corpus)} matroids on 101-point grids")


def test_criterion_11_bound_comparison_table():
    n, rate = 64, 0.5
    rows = sberlo_comparison_rows(n, rate, 16)
    print("\n  k*   dual-side exponent   comparison exponent")
    for row in rows:
        assert row["dual_side_exponent"] < row["comparison_exponent"], row
        print(f"  {row['k_star']:3d}   {row['dual_side_exponent']:18.6f}   "
              f"{row['comparison_exponent']:19.6f}")
        assert row["dual_side_exponent"] == pytest.approx(
            2 * math.log(2) * row["k_star"] * math.log2(1 / (1 - rate))
        )
        assert row["comparison_exponent"] == pytest.approx(
            30 * rate * row["k_star"] * (2 * math.log2(n / row["k_star"]) + 3)
        )
    # bound-versus-actual ratios, reported without assertion: the neglected
    # subexponential factor makes a strict check unsound at finite length
    print("  bound/actual ratios (no assertion; subexponential factor set to 1):")
    for label, code in (("RM(1,4)", reed_muller(1, 4)), ("RM(2,4)", reed_muller(2, 4))):
        counts = code.weights.counts
        for w, actual in enumerate(counts):
            if actual == 0 or min(w, code.n - w) == 0:
                continue
            bound = bec_bound_primal_side(code.n, code.rate, w, code.size)
            print(f"    {label} weight {w}: actual {actual}, primal-side bound "
                  f"{bound:.4g}, ratio {bound / actual:.4g}")
    _pass(11, "dual-side exponent strictly below the comparison exponent for "
              "k* = 1..16 at n=64, R=1/2; ratio table reported")


def test_criterion_12_determinism(tmp_path):
    targets = ["main", "entropy", "logsobolev", "twopoint", "derivative", "hypercontractive"]
    outputs = []
    for attempt in ("a", "b"):
        chunks = []
        for target in targets:
            out = tmp_path / f"{attempt}-{target}.csv"
            code = cli_main(
                ["verify", "--target", target, "--n", "3", "--fuzz", "12",
                 "--seed", "97", "--out", str(out)]
            )
            assert code == 0
            chunks.append(out.read_bytes())
        rep2 = tmp_path / f"{attempt}-rep2.code"
        rep2.write_text("1 2\n11\n")
        out = tmp_path / f"{attempt}-code.csv"
        assert cli_main(["code", "--file", str(rep2), "--lambda", "0.2,0.5,0.8",
                         "--seed", "97", "--out", str(out)]) == 0
        chunks.append(out.read_bytes())
        k4 = tmp_path / f"{attempt}-k4.graph"
        k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        out = tmp_path / f"{attempt}-matroid.csv"
        assert cli_main(["matroid", "--graph", str(k4), "--p", "0.2,0.5,0.8",
                         "--delta", "0.5,1,2", "--seed", "97", "--out", str(out)]) == 0
        chunks.append(out.read_bytes())
        outputs.append(b"".join(chunks))
    assert outputs[0] == outputs[1]
    _pass(12, "full campaign rerun with the same seed is byte-identical "
              f"({len(outputs[0])} bytes)")
