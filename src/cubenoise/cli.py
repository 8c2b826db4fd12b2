"""Command-line front end: verification campaigns over seeded random inputs,
code reports (weights, bounds, value family, identities) and matroid reports
(deficiency gaps, Tutte identities, tails, mean curve).

Exit codes: 0 = all checks pass, 1 = a mathematical violation was found,
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import codes, corpus, matroids
from .inequalities import (
    CSV_COLUMNS,
    GapReport,
    _fmt,
    derivative_check,
    hypercontractive_gap,
    log_sobolev_gap,
    main_inequality_sweep,
    noisy_entropy_sweep,
    two_point_gap,
)

REPORT_VERSION = "cubenoise-report v1"

Q_GRID = (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)
EPS_GRID = tuple(round(0.05 * i, 2) for i in range(11))
T_POINTS = 50

TARGETS = ("main", "entropy", "logsobolev", "twopoint", "derivative", "hypercontractive")


@dataclass
class RunConfig:
    seed: int = 0
    tolerance: float = 1e-9
    mode: str = "exact"
    samples: int = 20000
    output: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.mode == "mc" and self.samples < 1:
            raise ValueError("mc mode needs at least one sample")


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _render(sections: list[tuple[str, tuple[str, ...], list[dict]]], output: str) -> str:
    if output == "json":
        import json

        payload = {
            "version": REPORT_VERSION,
            "sections": [
                {"name": name, "columns": list(cols), "rows": _jsonable(rows)}
                for name, cols, rows in sections
            ],
        }
        return json.dumps(payload, sort_keys=True, default=_fmt) + "\n"
    lines = [f"# {REPORT_VERSION}"]
    for name, cols, rows in sections:
        lines.append(f"# section: {name}")
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _float_list(text: str) -> list[float]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        out.append(math.inf if token in ("inf", "oo") else float(token))
    if not out:
        raise ValueError("empty list")
    return out


# ---------------------------------------------------------------------------
# verify campaigns
# ---------------------------------------------------------------------------

def _campaign(
    target: str,
    n: int,
    fuzz: int,
    cfg: RunConfig,
    q_grid: tuple[float, ...] = Q_GRID,
    eps_grid: tuple[float, ...] = EPS_GRID,
) -> tuple[list[GapReport], list[GapReport]]:
    """Returns (rows, violations)."""
    rng = np.random.default_rng(cfg.seed)
    rows: list[GapReport] = []
    bad: list[GapReport] = []

    def check(rep: GapReport) -> None:
        rows.append(rep)
        if not rep.holds(cfg.tolerance):
            bad.append(rep)

    if target == "twopoint":
        grid = [float(t) for t in np.logspace(0.0, 3.0, T_POINTS)] + [math.inf]
        for t in grid:
            for q in q_grid:
                check(two_point_gap(t, q))
        return rows, bad

    functions = corpus.standard_corpus(n, fuzz, rng)
    sampling = {"mode": cfg.mode, "samples": cfg.samples, "seed": cfg.seed}
    if target == "main":
        for f in functions:
            for q in q_grid:
                for rep in main_inequality_sweep(f, q, eps_grid, **sampling):
                    check(rep)
    elif target == "entropy":
        for f in functions:
            for rep in noisy_entropy_sweep(f, eps_grid, **sampling):
                check(rep)
    elif target == "logsobolev":
        for f in functions:
            for q in q_grid:
                check(log_sobolev_gap(f, q, tolerance=cfg.tolerance))
    elif target == "derivative":
        # strictly positive inputs keep the one-sided finite differences at
        # the pinned step within the 1e-4 agreement tolerance for all q
        functions = [corpus.random_positive(n, rng) for _ in range(fuzz)]
        for f in functions:
            if f.is_constant():
                continue
            for q in q_grid:
                rep = derivative_check(f, q)
                rows.append(rep)
                fd_ok = (
                    rep.params["rel_err_lhs"] <= 1e-4 and rep.params["rel_err_rhs"] <= 1e-4
                )
                if rep.gap <= 0.0 or not fd_ok:
                    bad.append(rep)
    elif target == "hypercontractive":
        # the note column records the subset-averaging bound on the same
        # instance so the two upper bounds can be compared offline; each
        # inequality is asserted on its own, their ordering never is
        for f in functions:
            for q in q_grid:
                sweep = main_inequality_sweep(f, q, eps_grid, **sampling)
                for eps, main_rep in zip(eps_grid, sweep):
                    rep = hypercontractive_gap(f, q, eps)
                    rep.params["note"] = f"subset_bound={math.exp(main_rep.rhs)!r}"
                    check(rep)
    else:
        raise ValueError(f"unknown verify target {target!r}")
    return rows, bad


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    q_grid = tuple(args.q_list) if args.q_list else Q_GRID
    eps_grid = tuple(args.eps_list) if args.eps_list else EPS_GRID
    rows, bad = _campaign(args.target, args.n, args.fuzz, cfg, q_grid, eps_grid)
    if not rows:
        raise ValueError(f"verify --target {args.target} checked no rows; use --fuzz >= 1")
    sections = [("gaps", CSV_COLUMNS, [r.row() for r in rows])]
    _emit(_render(sections, cfg.output), cfg.out)
    if bad:
        print(f"violation: {bad[0].csv_row()}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# code reports
# ---------------------------------------------------------------------------

def _weight_section(code: codes.LinearCode) -> list[dict]:
    n = code.n
    rate = code.rate
    a = codes.weight_distribution(code).counts
    b: tuple[int, ...] | None
    try:
        b = codes.dual_weight_distribution(code).counts
    except ValueError:
        b = None
    rows = []
    for w in range(n + 1):
        k_star = min(w, n - w)
        row = {
            "k": w,
            "a_k": a[w],
            "b_k": None if b is None else b[w],
            "bound_primal": None,
            "bound_dual": None,
            "bound_sberlo": None,
            "o_n_factor": 1,
        }
        if 0.0 < rate < 1.0:
            row["bound_primal"] = codes.bec_bound_primal_side(n, rate, w, code.size)
            row["bound_dual"] = codes.bec_bound_dual_side(n, rate, w)
        if k_star >= 1:
            row["bound_sberlo"] = codes.sberlo_bound(n, rate, w)
        rows.append(row)
    return rows


def cmd_code(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.rm is not None:
        code = codes.reed_muller(args.rm[0], args.rm[1])
    else:
        code = codes.load_code(args.file)
    lam_grid = args.lam_grid
    q_list = args.q_list

    sections = []
    violations: list[str] = []

    weight_rows = _weight_section(code)
    sections.append(
        (
            "weights",
            ("k", "a_k", "b_k", "bound_primal", "bound_dual", "bound_sberlo", "o_n_factor"),
            weight_rows,
        )
    )

    deficiency_rows = []
    fvalue_rows = []
    identity_rows = []
    for lam in lam_grid:
        deficiency = codes.rank_deficiency(code, lam, mode=cfg.mode, samples=cfg.samples, seed=cfg.seed)
        deficiency_rows.append({"lambda": lam, "rank_deficiency": deficiency})
        for q in q_list:
            value = codes.f_value(code, lam, q).value
            slack = deficiency - value
            fvalue_rows.append({"lambda": lam, "q": q, "f_value": value, "slack": slack})
            if slack < -cfg.tolerance:
                violations.append(f"fvalues,lambda={lam},q={q},slack={slack!r}")
        vals = codes.enumerator_identities(code, lam)
        spread = vals.spread()
        identity_rows.append(
            {
                "lambda": lam,
                "moment": vals.moment,
                "sup": vals.sup,
                "dual_sum": vals.dual_sum,
                "primal_sum": vals.primal_sum,
                "spread": spread,
            }
        )
        if spread > cfg.tolerance:
            violations.append(f"identities,lambda={lam},spread={spread!r}")

    sections.append(("deficiency", ("lambda", "rank_deficiency"), deficiency_rows))
    sections.append(("fvalues", ("lambda", "q", "f_value", "slack"), fvalue_rows))
    sections.append(
        ("identities", ("lambda", "moment", "sup", "dual_sum", "primal_sum", "spread"), identity_rows)
    )

    _emit(_render(sections, cfg.output), cfg.out)
    if violations:
        print(f"violation: {violations[0]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# matroid reports
# ---------------------------------------------------------------------------

def cmd_matroid(args: argparse.Namespace, cfg: RunConfig) -> int:
    graph = None
    if args.graph is not None:
        graph = matroids.load_graph(args.graph)
        matroid = matroids.graphic_matroid(graph)
    else:
        matroid = matroids.load_matroid(args.file)

    for p in args.p_grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {p}")

    sections = []
    violations: list[str] = []

    gap_rows = []
    tutte_rows = []
    for p in args.p_grid:
        rep = matroids.deficiency_inequality_gap(
            matroid, p, mode=cfg.mode, samples=cfg.samples, seed=cfg.seed
        )
        gap_rows.append(rep.row())
        if not rep.holds(cfg.tolerance):
            violations.append(rep.csv_row())
        if 0.0 < p < 1.0:
            ident = matroids.tutte_identity_check(matroid, p)
            tutte_rows.append(
                {
                    "p": p,
                    "mgf_residual": ident.params["mgf_residual"],
                    "deficiency_residual": ident.params["deficiency_residual"],
                    "lhs": ident.lhs,
                    "rhs": ident.rhs,
                    "gap": ident.gap,
                }
            )
            if (
                ident.params["mgf_residual"] > cfg.tolerance
                or ident.params["deficiency_residual"] > cfg.tolerance
                or not ident.holds(cfg.tolerance)
            ):
                violations.append(ident.csv_row())
    sections.append(("deficiency_gap", CSV_COLUMNS, gap_rows))
    sections.append(
        (
            "tutte_identity",
            ("p", "mgf_residual", "deficiency_residual", "lhs", "rhs", "gap"),
            tutte_rows,
        )
    )

    tail_rows = []
    for p in args.p_grid:
        if p == 0.0:
            continue
        t = matroids.subset_rate_for(p)
        for delta in args.delta_list:
            rep = matroids.tail_bound_check(matroid, p, delta)
            comparator = matroids.bounded_diff_tail(matroid, p, t, delta)
            row = rep.row()
            row["note"] = f"bounded_diff={comparator!r}"
            tail_rows.append(row)
            if rep.gap < -cfg.tolerance:
                violations.append(rep.csv_row())
    sections.append(("tail", CSV_COLUMNS, tail_rows))

    mu_rows = [
        {"p": p, "mu": mu}
        for p, mu in matroids.mu_curve(matroid, np.linspace(0.0, 1.0, 101))
    ]
    sections.append(("mu", ("p", "mu"), mu_rows))

    if graph is not None:
        graph_rows = []
        for p in args.p_grid:
            rep = matroids.graph_inequality_gap(
                graph, p, mode=cfg.mode, samples=cfg.samples, seed=cfg.seed
            )
            graph_rows.append(rep.row())
            if not rep.holds(cfg.tolerance):
                violations.append(rep.csv_row())
        sections.append(("graph_gap", CSV_COLUMNS, graph_rows))

    _emit(_render(sections, cfg.output), cfg.out)
    if violations:
        print(f"violation: {violations[0]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubenoise",
        description="verify noise-operator norm inequalities and their code/matroid consequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--mode", choices=("exact", "mc"), default="exact")
        p.add_argument("--samples", type=int, default=20000)
        p.add_argument("--output", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    v = sub.add_parser("verify", help="run one inequality verifier over grids and fuzz inputs")
    v.add_argument("--target", choices=TARGETS, required=True)
    v.add_argument("--n", type=int, default=3, help="cube dimension for fuzz inputs")
    v.add_argument("--fuzz", type=int, default=50, help="number of random functions")
    v.add_argument("--q", dest="q_list", type=_float_list, default=None, help="override the q grid")
    v.add_argument("--eps", dest="eps_list", type=_float_list, default=None, help="override the noise grid")
    common(v)

    c = sub.add_parser("code", help="weight-distribution tables and bounds for a linear code")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="generator matrix file: 'k n' then k bit rows")
    src.add_argument("--rm", nargs=2, type=int, metavar=("R", "M"), help="Reed-Muller order/variables")
    c.add_argument("--lambda", dest="lam_grid", type=_float_list, default=[0.5])
    c.add_argument("--q", dest="q_list", type=_float_list, default=[1.5, 2.0, 3.0, math.inf])
    common(c)

    m = sub.add_parser("matroid", help="deficiency gaps, Tutte identities and tail bounds")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="matrix file: 'k n' then k bit rows (columns = ground set)")
    src.add_argument("--graph", help="graph file: 'V E' then E lines 'u v'")
    m.add_argument("--p", dest="p_grid", type=_float_list, default=[0.5])
    m.add_argument("--delta", dest="delta_list", type=_float_list, default=[1.0])
    common(m)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(
            seed=args.seed,
            tolerance=args.tolerance,
            mode=args.mode,
            samples=args.samples,
            output=args.output,
            out=args.out,
        )
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "code":
            return cmd_code(args, cfg)
        return cmd_matroid(args, cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
