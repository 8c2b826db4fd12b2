"""Checks that each report is correct.

A stored record holds, for the default seed, every report's exit status and
every numeric column of every section, keyed by section and column name.
A ``name=<number>`` item in a text cell (the ``subset_bound`` of a
hypercontractive row, the ``bounded_diff`` of a matroid tail row) is a
numeric column of its own, ``<column>.<name>``.  A report with a record must
match it to REL_TOL relative; columns the record does not have are ignored,
so adding report columns is not a failure.  A report without a record must
exit 0 and satisfy gap == rhs - lhs on every row that has those columns.

The comparison is relative to the value itself, except for columns whose
rounding error is set by other values: a difference of other columns of its
row (``gap``, ``slack``, ``spread``) is compared relative to the largest of
them, and a relative residual (``*_residual``) relative to 1.

Record the reference for every workload (it runs the reports, so it takes a
few minutes):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import gzip
import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
REL_TOL = 1e-12  # the report-value gate for refactors
RECORD_SIG_DIGITS = 14  # stored precision; rounding error stays far below REL_TOL

# Reports recorded per workload: about twice what one default-length run
# completes here, so a moderately faster program is still checked in full.
RECORD_REPORTS = {"verify": 200, "erasure": 84}

# column -> the columns of its row whose difference it is, in part or whole
DIFFERENCE_OF = {
    "gap": ("lhs", "rhs"),
    "slack": ("f_value",),  # rank deficiency minus f_value
    "spread": ("moment", "sup", "dual_sum", "primal_sum"),
}
RESIDUALS = ("mgf_residual", "deficiency_residual")  # already relative, scale 1
NOTE_ITEM = re.compile(r"(\w+)=([^\s;]+)")


def parse_report(text: str) -> dict[str, dict[str, list]]:
    """CSV report -> {section: {column: [cell, ...]}}, cells as text."""
    sections: dict[str, dict[str, list]] = {}
    current = None
    columns: list[str] = []
    for line in text.splitlines():
        if line.startswith("# section: "):
            current = sections.setdefault(line[len("# section: "):], {})
            columns = []
        elif line.startswith("#") or current is None:
            continue
        elif not columns:
            columns = line.split(",")
            for c in columns:
                current.setdefault(c, [])
        else:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
            for c, v in zip(columns, cells):
                current[c].append(v)
    return sections


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _note_items(cell: str) -> dict[str, float]:
    items = {}
    for key, text in NOTE_ITEM.findall(cell):
        value = _number(text)
        if value is not None:
            items[key] = value
    return items


def numeric_columns(sections: dict[str, dict[str, list]]) -> dict[str, dict[str, list]]:
    """Keep the columns whose every nonempty cell is a number, and split the
    ``name=<number>`` items of the other columns into columns ``<column>.<name>``;
    empty cells and rows without the item stay None."""
    out: dict[str, dict[str, list]] = {}
    for name, cols in sections.items():
        keep = {}
        for col, cells in cols.items():
            values = [None if c == "" else _number(c) for c in cells]
            if all(v is not None or c == "" for v, c in zip(values, cells)):
                if any(v is not None for v in values):
                    keep[col] = values
                continue
            items = [_note_items(c) for c in cells]
            for key in dict.fromkeys(k for row in items for k in row):
                keep[f"{col}.{key}"] = [row.get(key) for row in items]
        out[name] = keep
    return out


def _scale(col: str, row: int, cols: dict[str, list]) -> float:
    """The magnitude that `col`'s rounding error scales with, besides its own."""
    if col in RESIDUALS:
        return 1.0
    operands = [cols[o][row] for o in DIFFERENCE_OF.get(col, ()) if o in cols]
    return max((abs(v) for v in operands if v is not None and math.isfinite(v)), default=0.0)


def _close(a: float | None, b: float | None, scale: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def compare(report_text: str, rc: int | None, expected: dict) -> list[str]:
    """Mismatches of one report against its record entry."""
    problems = []
    if rc != expected["rc"]:
        problems.append(f"exit status {rc}, record {expected['rc']}")
    try:
        got = numeric_columns(parse_report(report_text))
    except ValueError as exc:
        return problems + [f"unparsable report: {exc}"]
    for section, cols in expected["sections"].items():
        if section not in got:
            problems.append(f"section {section} missing")
            continue
        for col, want in cols.items():
            have = got[section].get(col)
            if have is None or len(have) != len(want):
                problems.append(f"{section}.{col}: {0 if have is None else len(have)} values, record {len(want)}")
                continue
            for row, (h, w) in enumerate(zip(have, want)):
                if not _close(h, w, _scale(col, row, cols)):
                    problems.append(f"{section}.{col}[{row}] = {h!r}, record {w!r}")
                    break
    return problems


def invariants(report_text: str, rc: int | None) -> list[str]:
    """The checks that need no record: exit 0 and gap == rhs - lhs per row."""
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    try:
        sections = numeric_columns(parse_report(report_text))
    except ValueError as exc:
        return problems + [f"unparsable report: {exc}"]
    if not sections:
        problems.append("no sections in report")
    for name, cols in sections.items():
        if not {"lhs", "rhs", "gap"} <= cols.keys():
            continue
        for row, (lhs, rhs, gap) in enumerate(zip(cols["lhs"], cols["rhs"], cols["gap"])):
            if None in (lhs, rhs, gap):
                problems.append(f"{name}[{row}]: empty lhs, rhs or gap")
                break
            if not _close(gap, rhs - lhs, max(abs(lhs), abs(rhs))):
                problems.append(f"{name}[{row}]: gap {gap!r} != rhs - lhs {rhs - lhs!r}")
                break
    return problems


def check(records: list[dict], seed: int, workload: str) -> dict[int, list[str]]:
    """Problems per report index; reports without problems are left out."""
    stored = load(workload) if seed == DEFAULT_SEED else []
    failures = {}
    for rec in records:
        problems = []
        if rec["error"]:
            problems.append("exception: " + rec["error"].strip().splitlines()[-1])
        problems += invariants(rec["report"], rec["rc"])
        if rec["index"] < len(stored):
            problems += compare(rec["report"], rec["rc"], stored[rec["index"]])
        if problems:
            failures[rec["index"]] = problems
    return failures


def _path(workload: str) -> str:
    return os.path.join(RECORD_DIR, f"{workload}.json.gz")


def load(workload: str) -> list[dict]:
    path = _path(workload)
    if not os.path.exists(path):
        return []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["reports"]


def _rounded(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return value
    return float(f"{value:.{RECORD_SIG_DIGITS - 1}e}")


def entry(report_text: str, rc: int | None) -> dict:
    sections = numeric_columns(parse_report(report_text))
    return {
        "rc": rc,
        "sections": {
            s: {c: [_rounded(v) for v in vals] for c, vals in cols.items()}
            for s, cols in sections.items()
        },
    }


def record(workload: str) -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(os.path.dirname(HERE), ".bench_build")) as out:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--reports", str(RECORD_REPORTS[workload]),
             "--out", out],
            check=True,
        )
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    reports = []
    for rec in result["reports"]:
        problems = invariants(rec["report"], rec["rc"])
        if problems or rec["error"]:
            raise SystemExit(f"{workload} report {rec['index']} fails: {problems or rec['error']}")
        reports.append(entry(rec["report"], rec["rc"]))
    os.makedirs(RECORD_DIR, exist_ok=True)
    payload = {"workload": workload, "seed": DEFAULT_SEED, "rel_tol": REL_TOL, "reports": reports}
    with gzip.GzipFile(_path(workload), "wb", mtime=0) as fh:
        fh.write(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def main() -> int:
    os.makedirs(os.path.join(os.path.dirname(HERE), ".bench_build"), exist_ok=True)
    for workload in RECORD_REPORTS:
        record(workload)
        print(f"recorded {workload}: {len(load(workload))} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
