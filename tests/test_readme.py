import math
import pathlib
import re
import shlex

from test_cli import parse_csv

import cubenoise.cli  # imports every module of the package
from cubenoise.inequalities import CSV_COLUMNS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cube", "inequalities", "codes", "matroids", "corpus", "cli")


def readme_references() -> set[str]:
    """Every backticked `module.name` (or `module.name.attr`) in README.md
    whose module is one of the package's, outside fenced code blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    ref = re.compile(rf"(?:{'|'.join(MODULES)})(?:\.\w+)+")
    return {m.group() for span in re.findall(r"`([^`]*)`", text) if (m := ref.match(span))}


def resolves(ref: str) -> bool:
    obj = cubenoise
    for name in ref.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_module_references_resolve():
    refs = readme_references()
    assert len(refs) >= 10  # the scan finds the references at all
    assert sorted(r for r in refs if not resolves(r)) == []


def readme_commands(files: dict[str, str]) -> list[list[str]]:
    """The argv of every `cubenoise ...` line of the "Command line" block,
    with the example files it names replaced from `files`."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for line in block.group(1).splitlines() if line.startswith("cubenoise ")]
    return [[files.get(a, a) for a in shlex.split(line)[1:]] for line in lines]


def test_readme_commands_run(capsys, rep2_file, k4_file):
    # with the example files written by the fixtures
    argvs = readme_commands({"rep2.code": rep2_file, "k4.graph": k4_file})
    assert len(argvs) >= 7
    for argv in argvs:
        code = cubenoise.cli.main(argv)
        assert code == 0, (argv, capsys.readouterr().err)


def claim(name: str, row: dict, deficiency: dict) -> tuple[str, float, float, float]:
    """(inequality, lhs, rhs, gap) of a judged row, given the report's rank
    deficiency per lambda; an identities row claims max route <= min route."""
    if name == "fvalues":
        cells = "fvalues", row["f_value"], deficiency[row["lambda"]], row["slack"]
    elif name == "identities":
        routes = [float(row[c]) for c in ("moment", "sup", "dual_sum", "primal_sum") if row[c]]
        cells = "identities", max(routes), min(routes), -float(row["spread"])
    else:  # the gaps columns, or a tutte_identity row
        cells = row.get("inequality", "tutte"), row["lhs"], row["rhs"], row["gap"]
    return cells[0], *map(float, cells[1:])


def failing_rows(report: str, tolerance: float) -> list[tuple[str, dict]]:
    """(inequality, row) of every row that fails by its printed cells alone,
    in print order, after checking that each printed margin is the
    formula's: a row fails when its gap is below -allowed, a residual is over
    its budget, or a derivative row's order is not strict."""
    out = []
    parsed = parse_csv(report)
    deficiency = {r["lambda"]: r["rank_deficiency"] for r in parsed.get("deficiency", ())}
    for name, rows in parsed.items():
        for row in (r for r in rows if "allowed" in r):
            inequality, lhs, rhs, gap = claim(name, row, deficiency)
            allowed, stderr = float(row["allowed"]), float(row["stderr"] or 0.0)
            if inequality == "derivative":
                assert allowed == 0.0
                errors = dict(cell.split("=") for cell in row["note"].split(";"))
                assert sorted(errors) == ["rel_err_lhs", "rel_err_rhs"]
                fails = not (gap > 0.0 and all(float(e) <= 1e-4 for e in errors.values()))
            else:
                scale = max([1.0] + [abs(v) for v in (lhs, rhs) if math.isfinite(v)])
                assert allowed == tolerance * scale + 4.0 * stderr, (name, row)
                residuals = [float(row[c]) for c in ("mgf_residual", "deficiency_residual") if c in row]
                fails = not gap >= -allowed or not all(r <= tolerance for r in residuals)
            if fails:
                out.append((inequality, row))
    return out


def test_reports_rederive_their_verdicts(capsys, rep2_file, k4_file):
    # the exit code and the violation line agree with the verdicts a reader
    # takes from the printed rows; the last run exits 1 on an mc entropy
    # estimate whose per-sample values are skewed
    argvs = readme_commands({"rep2.code": rep2_file, "k4.graph": k4_file}) + [
        ["verify", "--target", "main", "--n", "6", "--fuzz", "2", "--mode", "mc", "--samples", "200"],
        ["code", "--rm", "1", "4", "--lambda", "0.1,0.5", "--mode", "mc", "--samples", "500"],
        ["matroid", "--graph", k4_file, "--mode", "mc", "--samples", "500", "--p", "0.2,0.8"],
        ["verify", "--target", "entropy", "--n", "14", "--fuzz", "1", "--seed", "1881201068",
         "--mode", "mc", "--samples", "1000", "--eps", "0.1,0.45"],
    ]
    for argv in argvs:
        code = cubenoise.cli.main(argv)
        out, err = capsys.readouterr()
        tolerance = float(argv[argv.index("--tolerance") + 1]) if "--tolerance" in argv else 1e-9
        bad = failing_rows(out, tolerance)
        assert code == (1 if bad else 0), (argv, err)
        if bad:
            # the violation line is the first failing row, in CSV_COLUMNS (a
            # note may hold commas, so allowed and stderr are read from the end)
            inequality, row = bad[0]
            line = err.removeprefix("violation: ").rstrip("\n").split(",")
            cells = {**dict(zip(CSV_COLUMNS[:10], line)), "allowed": line[-2], "stderr": line[-1]}
            if "inequality" not in row:
                row = {"inequality": inequality, "eps_or_lambda": row.get("p", row.get("lambda")),
                       "allowed": row["allowed"], "stderr": row["stderr"]}
            assert {c: cells[c] for c in row if c in cells} == {c: row[c] for c in row if c in cells}, argv


def test_readme_names_every_sweep():
    # the Layout rows list the library's entry points by their bare names
    text = README.read_text(encoding="utf-8")
    modules = (cubenoise.inequalities, cubenoise.matroids)
    sweeps = {name for mod in modules for name in vars(mod) if name.endswith("_sweep") and name[0] != "_"}
    assert len(sweeps) == 9
    assert set(re.findall(r"`(\w+_sweep)`", text)) == sweeps
