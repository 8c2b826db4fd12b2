"""Command-line front end: verification campaigns over seeded random inputs,
code reports (weights, bounds, value family, identities) and matroid reports
(deficiency gaps, Tutte identities, tails, mean curve).

Exit codes: 0 = all checks pass, 1 = a mathematical violation was found,
2 = usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import codes, corpus, matroids
from .cube import _require_dimension
from .inequalities import (
    CSV_COLUMNS,
    GapReport,
    _fmt,
    derivative_sweep,
    hypercontractive_sweep,
    log_sobolev_sweep,
    main_inequality_sweep,
    noisy_entropy_sweep,
    two_point_gap,
)

REPORT_VERSION = "cubenoise-report v1"

Q_GRID = (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)
EPS_GRID = tuple(round(0.05 * i, 2) for i in range(11))
T_POINTS = 50

TARGETS = ("main", "entropy", "logsobolev", "twopoint", "derivative", "hypercontractive")

# a report section: its name, its columns and its rows
Section = tuple[str, tuple[str, ...], list[dict]]


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _render(sections: list[Section], output: str) -> str:
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

def _campaign(args: argparse.Namespace) -> list[GapReport]:
    """The rows of the parsed `verify` arguments."""
    target, n, fuzz, tolerance = args.target, args.n, args.fuzz, args.tolerance
    q_grid = tuple(args.q_list) if args.q_list else Q_GRID
    eps_grid = tuple(args.eps_list) if args.eps_list else EPS_GRID
    rng = np.random.default_rng(args.seed)

    if target == "twopoint":
        grid = [float(t) for t in np.logspace(0.0, 3.0, T_POINTS)] + [math.inf]
        return [two_point_gap(t, q, tolerance=tolerance) for t in grid for q in q_grid]

    _require_dimension(n)  # before any function of 2^n values is drawn
    sampling = {"mode": args.mode, "samples": args.samples, "seed": args.seed}
    # sampling applies to the main bound that each hypercontractive row notes
    sweeps = {
        "main": lambda f: main_inequality_sweep(f, q_grid, eps_grid, **sampling),
        "entropy": lambda f: noisy_entropy_sweep(f, eps_grid, **sampling),
        "hypercontractive": lambda f: hypercontractive_sweep(f, q_grid, eps_grid, **sampling),
        "logsobolev": lambda f: log_sobolev_sweep(f, q_grid, tolerance),
        "derivative": lambda f: derivative_sweep(f, q_grid),
    }
    if target not in sweeps:
        raise ValueError(f"unknown verify target {target!r}")
    if target == "derivative":
        # Strictly positive inputs: at a zero of f, ||T_eps f||_q^q has a term
        # of order eps^q, which no difference at a small step resolves for q
        # near 1.
        functions = [corpus.random_positive(n, rng) for _ in range(fuzz)]
    else:
        functions = corpus.standard_corpus(n, fuzz, rng)
    return [rep for f in functions for rep in sweeps[target](f)]


def cmd_verify(args: argparse.Namespace) -> tuple[list[Section], list[GapReport]]:
    rows = _campaign(args)
    if not rows:
        raise ValueError(f"verify --target {args.target} checked no rows; use --fuzz >= 1")
    return [("gaps", CSV_COLUMNS, [r.row(args.tolerance) for r in rows])], rows


# ---------------------------------------------------------------------------
# code reports
# ---------------------------------------------------------------------------

def _weight_section(code: codes.LinearCode) -> list[dict]:
    n = code.n
    rate = code.rate
    a = code.weights.counts
    b = code.dual_weights.counts
    rows = []
    for w in range(n + 1):
        k_star = min(w, n - w)
        row = {
            "k": w,
            "a_k": a[w],
            "b_k": b[w],
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


def _margin(rep: GapReport, tolerance: float) -> dict:
    """The cells that show a judged row's verdict: the margin it was held to
    and, for a Monte Carlo estimate, its standard error."""
    row = rep.row(tolerance)
    return {"allowed": row["allowed"], "stderr": row["stderr"]}


def cmd_code(args: argparse.Namespace) -> tuple[list[Section], list[GapReport]]:
    if args.rm is not None:
        code = codes.reed_muller(args.rm[0], args.rm[1])
    else:
        code = codes.load_code(args.file)

    weight_rows = _weight_section(code)
    deficiency_rows, fvalue_rows, identity_rows = [], [], []
    fvalues, identities = [], []
    deficiencies = codes.deficiency_expectation(code, args.lam_grid, None, args.mode, args.samples, args.seed)
    sweep = codes.f_sweep(code, args.lam_grid, args.q_list)
    for lam, (deficiency, stderr), (values, vals) in zip(args.lam_grid, deficiencies, sweep):
        deficiency_rows.append({"lambda": lam, "rank_deficiency": deficiency})
        params = {"n": code.n, "eps_or_lambda": lam, "mode": args.mode, "samples": args.samples,
                  "seed": args.seed, "stderr": stderr}
        for q, value in zip(args.q_list, values):
            # F(lam, q) <= rank deficiency, whose gap is the slack
            rep = GapReport("fvalues", value, deficiency, {**params, "q": q})
            fvalues.append(rep)
            fvalue_rows.append({"lambda": lam, "q": q, "f_value": value, "slack": rep.gap,
                                **_margin(rep, args.tolerance)})
        # the routes agree when the largest is at most the smallest: gap = -spread
        routes = [v for v in vals if v is not None]
        rep = GapReport("identities", max(routes), min(routes),
                        {"n": code.n, "eps_or_lambda": lam, "mode": "exact"})
        identities.append(rep)
        identity_rows.append({"lambda": lam, **vals._asdict(), "spread": vals.spread(),
                              **_margin(rep, args.tolerance)})

    sections = [
        ("weights", ("k", "a_k", "b_k", "bound_primal", "bound_dual", "bound_sberlo", "o_n_factor"),
         weight_rows),
        ("deficiency", ("lambda", "rank_deficiency"), deficiency_rows),
        ("fvalues", ("lambda", "q", "f_value", "slack", "allowed", "stderr"), fvalue_rows),
        ("identities", ("lambda", "moment", "sup", "dual_sum", "primal_sum", "spread", "allowed", "stderr"),
         identity_rows),
    ]
    return sections, fvalues + identities


# ---------------------------------------------------------------------------
# matroid reports
# ---------------------------------------------------------------------------

def cmd_matroid(args: argparse.Namespace) -> tuple[list[Section], list[GapReport]]:
    graph = None
    if args.graph is not None:
        graph = matroids.load_graph(args.graph)
        matroid = graph.matroid
    else:
        matroid = matroids.load_matroid(args.file)
    sampling = {"mode": args.mode, "samples": args.samples, "seed": args.seed}

    gaps = matroids.deficiency_sweep(matroid, args.p_grid, **sampling)
    tuttes = matroids.tutte_sweep(matroid, args.p_grid)
    tails = matroids.tail_sweep(matroid, args.p_grid, args.delta_list)
    mu = matroids.mu_curve(matroid, np.linspace(0.0, 1.0, 101))
    graph_gaps = [] if graph is None else matroids.graph_sweep(graph, gaps)

    rows = lambda reps: [rep.row(args.tolerance) for rep in reps]
    tutte_rows = [
        {"p": rep.params["eps_or_lambda"], "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
         "mgf_residual": rep.params["mgf_residual"], "deficiency_residual": rep.params["deficiency_residual"],
         **_margin(rep, args.tolerance)}
        for rep in tuttes
    ]
    tutte_columns = ("p", "mgf_residual", "deficiency_residual", "lhs", "rhs", "gap", "allowed", "stderr")
    sections = [
        ("deficiency_gap", CSV_COLUMNS, rows(gaps)),
        ("tutte_identity", tutte_columns, tutte_rows),
        ("tail", CSV_COLUMNS, rows(tails)),
        ("mu", ("p", "mu"), [{"p": p, "mu": value} for p, value in mu]),
    ]
    if graph is not None:
        sections.append(("graph_gap", CSV_COLUMNS, rows(graph_gaps)))
    return sections, gaps + tuttes + tails + graph_gaps


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call of the process (not at
    import) and reused: parse_args keeps no state between calls, and no
    command mutates the default lists (such as --lambda's [0.5]) it shares."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"verify": cmd_verify, "code": cmd_code, "matroid": cmd_matroid}[args.command]
    try:
        if not 0 < args.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if args.seed < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
        if args.mode == "mc" and args.samples < 2:
            raise ValueError("mc mode needs at least two samples: a standard error needs two draws")
        sections, judged = command(args)
        _emit(_render(sections, args.output), args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the one verdict of every judged row, reported at the first that fails
    for rep in judged:
        if not rep.holds(args.tolerance):
            print(f"violation: {rep.csv_row(args.tolerance)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
