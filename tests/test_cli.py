import json
import math

import numpy as np
import pytest

from cubenoise import corpus
from cubenoise.cli import EPS_GRID, Q_GRID, RunConfig, main
from cubenoise.inequalities import GapReport, main_inequality_gap


@pytest.fixture
def rep2_file(tmp_path):
    path = tmp_path / "rep2.code"
    path.write_text("1 2\n11\n")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    sections = {}
    current = None
    header = None
    for line in text.strip().splitlines():
        if line.startswith("# section: "):
            current = line.removeprefix("# section: ")
            sections[current] = []
            header = None
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            sections[current].append(dict(zip(header, line.split(","))))
    return sections


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_main_passes(capsys):
    code, out, err = run(
        capsys, "verify", "--target", "main", "--n", "3", "--fuzz", "12", "--seed", "7"
    )
    assert code == 0 and err == ""
    rows = parse_csv(out)["gaps"]
    assert len(rows) == 12 * 7 * 11
    assert all(float(r["gap"]) >= -1e-9 for r in rows)


def test_verify_twopoint_flags_equalities(capsys):
    code, out, _ = run(capsys, "verify", "--target", "twopoint")
    assert code == 0
    rows = parse_csv(out)["gaps"]
    at_one = [r for r in rows if r["eps_or_lambda"] == "1.0"]
    assert at_one and all(r["note"] == "equality" for r in at_one)
    boundary = [r for r in rows if r["eps_or_lambda"] == "inf"]
    assert any(r["note"] == "equality" for r in boundary)
    assert any(r["note"] == "" for r in boundary)


@pytest.mark.parametrize("target", ["entropy", "logsobolev", "derivative", "hypercontractive"])
def test_verify_other_targets_pass(capsys, target):
    code, out, err = run(
        capsys, "verify", "--target", target, "--n", "2", "--fuzz", "6", "--seed", "11"
    )
    assert code == 0, err
    assert parse_csv(out)["gaps"]


def test_verify_bad_target_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--target", "bogus")
    assert code == 2


@pytest.mark.parametrize("target", ["main", "derivative"])
def test_verify_zero_rows_is_usage_error(capsys, target):
    # a run that checks nothing is not a pass
    code, out, err = run(capsys, "verify", "--target", target, "--n", "3", "--fuzz", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "checked no rows" in err


def test_verify_mc_mode(capsys):
    # a mid-grid noise rate keeps the estimator well inside the CLT regime
    code, out, _ = run(
        capsys,
        "verify", "--target", "entropy", "--n", "2", "--fuzz", "4",
        "--mode", "mc", "--samples", "2000", "--seed", "5", "--eps", "0.2",
    )
    assert code == 0
    rows = parse_csv(out)["gaps"]
    assert len(rows) == 4
    assert all(r["mode"] == "mc" and r["samples"] == "2000" for r in rows)


@pytest.mark.parametrize(
    "target, route",
    [
        ("main", "--mode mc"),
        ("entropy", "--mode mc"),
        ("hypercontractive", "--mode mc"),
        ("derivative", "CUBENOISE_MAX_VERIFY_N"),
    ],
)
def test_verify_cap_names_the_route(capsys, monkeypatch, target, route):
    monkeypatch.delenv("CUBENOISE_MAX_VERIFY_N", raising=False)
    code, out, err = run(capsys, "verify", "--target", target, "--n", "14", "--fuzz", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: exact subset averaging capped at n=13") and route in err


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_hypercontractive_note_is_the_main_rhs(capsys, mode):
    # rows run over (function, q, eps); each note must come from its own eps
    code, out, err = run(
        capsys, "verify", "--target", "hypercontractive", "--n", "3", "--fuzz", "2",
        "--mode", mode, "--samples", "50",
    )
    assert code == 0, err
    rows = parse_csv(out)["gaps"]
    functions = corpus.standard_corpus(3, 2, np.random.default_rng(0))
    cases = [(f, q, eps) for f in functions for q in Q_GRID for eps in EPS_GRID]
    assert len(rows) == len(cases)
    for row, (f, q, eps) in zip(rows, cases):
        assert (float(row["q"]), float(row["eps_or_lambda"])) == (q, eps)
        rhs = main_inequality_gap(f, q, eps, mode=mode, samples=50, seed=0).rhs
        assert row["note"] == f"subset_bound={math.exp(rhs)!r}"


# ---------------------------------------------------------------------------
# code reports
# ---------------------------------------------------------------------------

def test_code_reed_muller_table(capsys):
    code, out, _ = run(capsys, "code", "--rm", "1", "3", "--lambda", "0.5", "--q", "2")
    assert code == 0
    sections = parse_csv(out)
    weights = [int(r["a_k"]) for r in sections["weights"]]
    assert weights == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    assert all(r["o_n_factor"] == "1" for r in sections["weights"])
    assert float(sections["identities"][0]["spread"]) <= 1e-9


def test_code_repetition_deficiency(capsys, rep2_file):
    code, out, _ = run(capsys, "code", "--file", rep2_file, "--lambda", "0.5")
    assert code == 0
    sections = parse_csv(out)
    assert float(sections["deficiency"][0]["rank_deficiency"]) == 0.25
    assert all(float(r["slack"]) >= -1e-9 for r in sections["fvalues"])


def test_code_missing_file(capsys):
    code, _, err = run(capsys, "code", "--file", "/definitely/not/here.code")
    assert code == 2
    assert "/definitely/not/here.code" in err


# ---------------------------------------------------------------------------
# matroid reports
# ---------------------------------------------------------------------------

def test_matroid_graph_tail(capsys, k4_file):
    code, out, _ = run(capsys, "matroid", "--graph", k4_file, "--p", "0.5", "--delta", "1")
    assert code == 0
    sections = parse_csv(out)
    tail = sections["tail"][0]
    assert float(tail["lhs"]) <= 0.5
    assert "bounded_diff" in tail["note"]
    assert len(sections["mu"]) == 101
    assert all(float(r["gap"]) >= -1e-9 for r in sections["graph_gap"])


def test_matroid_zero_rate_all_zero_gaps(capsys, rep2_file):
    code, out, _ = run(capsys, "matroid", "--file", rep2_file, "--p", "0")
    assert code == 0
    rows = parse_csv(out)["deficiency_gap"]
    assert all(float(r["gap"]) == 0.0 for r in rows)


def test_matroid_tail_check_uses_tolerance(capsys, monkeypatch, k4_file):
    # a tail gap of -1e-10 lies inside the default tolerance 1e-9 but outside
    # the fixed -1e-12 the check once used
    from cubenoise import matroids

    def tail_bound_check(m, p, delta):
        params = {"n": m.n, "q": None, "eps_or_lambda": p, "mode": "exact", "delta": delta}
        return GapReport("tail", 0.5, 0.5 - 1e-10, -1e-10, params)

    monkeypatch.setattr(matroids, "tail_bound_check", tail_bound_check)
    code, _, err = run(capsys, "matroid", "--graph", k4_file, "--p", "0.5")
    assert code == 0, err
    code, _, err = run(capsys, "matroid", "--graph", k4_file, "--p", "0.5", "--tolerance", "1e-11")
    assert code == 1
    assert err.startswith("violation: tail,")


def test_matroid_rate_out_of_range(capsys, rep2_file):
    code, _, err = run(capsys, "matroid", "--file", rep2_file, "--p", "1.5")
    assert code == 2 and "sampling rate" in err


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_json_output(capsys, rep2_file):
    code, out, _ = run(capsys, "code", "--file", rep2_file, "--output", "json")
    assert code == 0
    payload = json.loads(out)
    names = [s["name"] for s in payload["sections"]]
    assert names == ["weights", "deficiency", "fvalues", "identities"]


def test_determinism_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = main(
            ["verify", "--target", "main", "--n", "3", "--fuzz", "10",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_changes_fuzz_rows(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["verify", "--target", "logsobolev", "--n", "3", "--fuzz", "5", "--seed", "1", "--out", str(out_a)])
    main(["verify", "--target", "logsobolev", "--n", "3", "--fuzz", "5", "--seed", "2", "--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_violation_reporting_logic():
    # the inequalities are true, so force the aggregation path directly
    bad = GapReport("main", 1.0, 0.0, -1.0, {"n": 1})
    assert not bad.holds(1e-9)
    good = GapReport("main", 0.0, 1.0, 1.0, {"n": 1})
    assert good.holds(1e-9)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        RunConfig(mode="mc", samples=0)


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
