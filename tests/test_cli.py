import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from references import dump_bit_matrix, noise_operator

from cubenoise import cli, codes, corpus, cube, inequalities, matroids
from cubenoise.cli import EPS_GRID, Q_GRID, main
from cubenoise.inequalities import GapReport, derivative_sweep, main_inequality_sweep, two_point_gap


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


def test_verify_twopoint_equality_flags_use_tolerance(capsys):
    # the default grid has 12 rows within 1e-9 of equality and 21 within 1e-3
    for tolerance, flagged in (("1e-9", 12), ("1e-3", 21)):
        code, out, _ = run(capsys, "verify", "--target", "twopoint", "--tolerance", tolerance)
        assert code == 0
        notes = [r["note"] for r in parse_csv(out)["gaps"]]
        assert notes.count("equality") == flagged


@pytest.mark.parametrize("target", ["entropy", "logsobolev", "derivative", "hypercontractive"])
def test_verify_other_targets_pass(capsys, target):
    code, out, err = run(
        capsys, "verify", "--target", target, "--n", "2", "--fuzz", "6", "--seed", "11"
    )
    assert code == 0, err
    assert parse_csv(out)["gaps"]


def test_verify_entropy_of_an_overflowing_f_is_a_usage_error(capsys, monkeypatch):
    huge = corpus.random_positive(6, np.random.default_rng(6)).scaled(2.0**1016)
    monkeypatch.setattr(corpus, "standard_corpus", lambda n, fuzz, rng: [huge])
    code, out, err = run(capsys, "verify", "--target", "entropy", "--n", "6")
    assert code == 2 and out == ""
    assert "below 2^1024" in err


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


@pytest.mark.parametrize("n", range(1, 14))
def test_verify_derivative_differences_agree_up_to_the_cap(capsys, n):
    # from n = 8 on, a first-order difference at step 1e-5 misses the 1e-4 rule
    for seed in ("0", "5"):
        argv = ["verify", "--target", "derivative", "--n", str(n), "--fuzz", "4", "--seed", seed]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(parse_csv(out)["gaps"]) == 4 * len(Q_GRID)


def test_verify_derivative_draws_only_its_positive_functions(monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(corpus, "standard_corpus", lambda *args: drawn.append(args) or [])
    code, _, err = run(capsys, "verify", "--target", "derivative", "--n", "3", "--fuzz", "2")
    assert (code, err, drawn) == (0, "", [])


def test_verify_derivative_of_a_constant_is_usage_error(capsys):
    # at n = 0 every function is constant, whatever --fuzz asks for
    code, out, err = run(capsys, "verify", "--target", "derivative", "--n", "0", "--fuzz", "2")
    assert (code, out) == (2, "")
    assert err == "error: derivative comparison requires a nonconstant function\n"


@pytest.mark.parametrize("target", ["main", "entropy", "logsobolev", "hypercontractive"])
def test_verify_at_dimension_zero_leaves_out_the_kinds_that_need_a_coordinate(capsys, target):
    # --fuzz 8 draws every corpus kind; at n = 0 the shifted character and
    # the code indicator (kinds 6 and 7) are left out, and the other six
    # functions are those of --fuzz 6
    code, out, err = run(capsys, "verify", "--target", target, "--n", "0", "--fuzz", "8")
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "verify", "--target", target, "--n", "0", "--fuzz", "6")
    assert run(capsys, "verify", "--target", target, "--n", "1", "--fuzz", "8")[0] == 0


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


def verify_argv(target, n=5):
    return ["verify", "--target", target, "--n", str(n), "--fuzz", "1"]


CODE_RM_1_3 = ["code", "--rm", "1", "3", "--samples", "200"]
# every size refusal, each with its cap lowered so that the runs stay small:
# the caps set, the over-cap argv, and the route its message names, a flag
# change or "raise" and the variable
REFUSALS = [
    pytest.param({"CUBENOISE_MAX_VERIFY_N": "4"}, verify_argv(t), "--mode mc", id=f"{t}---mode mc")
    for t in ("main", "entropy", "hypercontractive")
] + [
    pytest.param(
        {"CUBENOISE_MAX_VERIFY_N": "4"}, verify_argv("derivative"), "raise CUBENOISE_MAX_VERIFY_N",
        id="derivative-CUBENOISE_MAX_VERIFY_N",
    ),
    pytest.param({"CUBENOISE_MAX_N": "4"}, verify_argv("main"), "raise CUBENOISE_MAX_N", id="dimension"),
    pytest.param({"CUBENOISE_MAX_N": "6"}, CODE_RM_1_3, "--mode mc", id="code-table"),
    pytest.param({"CUBENOISE_MAX_N": "3"}, [*CODE_RM_1_3, "--mode", "mc"], "--q 2,inf", id="code-syndromes"),
    pytest.param({"CUBENOISE_MAX_K": "3"}, CODE_RM_1_3, "raise CUBENOISE_MAX_K", id="code-weights"),
    pytest.param({}, ["code", "--rm", "1", "5", "--lambda", "0.5", "--samples", "200"], "--mode mc", id="code-rm-1-5"),
    pytest.param({"CUBENOISE_MAX_N": "5"}, ["matroid", "--graph", "K4"], "raise CUBENOISE_MAX_N", id="matroid-table"),
    pytest.param(
        {"CUBENOISE_MAX_N": "5"}, ["matroid", "--graph", "K4", "--mode", "mc", "--samples", "200"],
        "raise CUBENOISE_MAX_N", id="matroid-mc-table",
    ),
]


@pytest.mark.parametrize("caps, argv, route", REFUSALS)
def test_verify_cap_names_the_route(capsys, monkeypatch, k4_file, caps, argv, route):
    # each refusal names its route, and the route gets past that cap: the
    # run exits 0 or is refused by another cap
    for name in cube.CAPS:
        monkeypatch.delenv(name, raising=False)
    for name, value in caps.items():
        monkeypatch.setenv(name, value)
    argv = [k4_file if a == "K4" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and " capped at " in err
    assert route in err
    if route.startswith("raise "):
        monkeypatch.delenv(route.removeprefix("raise "))
    else:
        argv += route.split()
    code, out, then = run(capsys, *argv)
    assert code == 0 or (code == 2 and then.split(" capped at ")[0] != err.split(" capped at ")[0]), then


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("CUBENOISE_MAX_N", "abc", verify_argv("main", 3)),
        ("CUBENOISE_MAX_VERIFY_N", "", verify_argv("main", 3)),
        ("CUBENOISE_MAX_K", "2.5", ["code", "--rm", "1", "3"]),
    ],
)
def test_malformed_cap_variable_names_itself(capsys, monkeypatch, name, value, argv):
    monkeypatch.setenv(name, value)
    assert run(capsys, *argv) == (2, "", f"error: {name} must be an integer, got {value!r}\n")


def test_retired_enumeration_cap_is_not_read(capsys, monkeypatch):
    # CUBENOISE_MAX_N bounds the deficiency table; the old variable is ignored
    monkeypatch.setenv("CUBENOISE_MAX_ENUM_N", "2")
    code, out, err = run(capsys, "code", "--rm", "1", "3")
    assert code == 0 and err == "" and "# section: deficiency" in out


@pytest.mark.parametrize("target", [t for t in cli.TARGETS if t != "twopoint"])
@pytest.mark.parametrize("n", [20, -1])
def test_verify_checks_the_dimension_before_drawing(capsys, monkeypatch, target, n):
    # a bad --n fails with CubeFunction's own message before any function of
    # 2^n values is drawn (at n = 20 one draw would be 8 MiB)
    monkeypatch.setenv("CUBENOISE_MAX_N", "4")
    with pytest.raises(ValueError) as want:
        cube.CubeFunction(n, np.zeros(1))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--target", target, "--n", str(n), "--fuzz", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {want.value}\n")
    assert peak < 1 << 20


def test_verify_main_q2_runs_exact_past_the_verify_cap(capsys, monkeypatch):
    monkeypatch.delenv("CUBENOISE_MAX_VERIFY_N", raising=False)
    code, out, err = run(
        capsys, "verify", "--target", "main", "--n", "16", "--q", "2", "--fuzz", "1"
    )
    assert code == 0, err
    rows = parse_csv(out)["gaps"]
    assert len(rows) == len(EPS_GRID)
    assert all(r["mode"] == "exact" and r["n"] == "16" for r in rows)


def test_verify_main_past_the_cap_names_both_routes(capsys, monkeypatch):
    monkeypatch.delenv("CUBENOISE_MAX_VERIFY_N", raising=False)
    code, out, err = run(capsys, "verify", "--target", "main", "--n", "16", "--fuzz", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: exact subset averaging capped at n=13")
    assert "--mode mc" in err and "--q 2 alone" in err


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
        rhs = main_inequality_sweep(f, (q,), (eps,), mode=mode, samples=50, seed=0)[0].rhs
        assert row["note"] == f"subset_bound={math.exp(rhs)!r}"


def test_hypercontractive_at_infinite_q_and_half_noise(capsys):
    # at eps = 1/2 the reduced exponent is 1 for every q, also in the q = inf limit
    code, out, err = run(
        capsys, "verify", "--target", "hypercontractive", "--n", "4", "--fuzz", "2",
        "--q", "1.5,3,inf", "--eps", "0,0.2,0.5",
    )
    assert code == 0, err
    rows = parse_csv(out)["gaps"]
    assert len(rows) == 2 * 3 * 3
    for row in rows:
        assert all(math.isfinite(float(row[c])) for c in ("lhs", "rhs", "gap"))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_hypercontractive_campaign_takes_one_noisy_function_per_eps(monkeypatch, mode):
    # per function: one forward transform of f, and one log_lq_norms pass
    # over the rows of T_eps f, a row per eps, for the whole q grid
    transforms, passes = [], []
    real_transform, real_norms = cube.wht_forward, inequalities.log_lq_norms

    def counted_norms(tables, q_grid):
        if tables.shape == (len(EPS_GRID), 1 << 4):
            passes.append((tables.copy(), tuple(q_grid)))
        return real_norms(tables, q_grid)

    monkeypatch.setattr(cube, "wht_forward", lambda f: transforms.append(f) or real_transform(f))
    monkeypatch.setattr(inequalities, "log_lq_norms", counted_norms)
    args = cli.build_parser().parse_args(
        ["verify", "--target", "hypercontractive", "--n", "4", "--fuzz", "2",
         "--mode", mode, "--samples", "50"]
    )
    rows = cli._campaign(args)
    functions = corpus.standard_corpus(4, 2, np.random.default_rng(args.seed))
    assert len(rows) == len(functions) * len(Q_GRID) * len(EPS_GRID)
    assert all(rep.holds(args.tolerance) for rep in rows)
    assert len(transforms) == len({id(f) for f in transforms}) == len(functions)
    assert len(passes) == len(functions)
    for f, (tables, q_grid) in zip(functions, passes):
        assert q_grid == Q_GRID
        for row, eps in zip(tables, EPS_GRID):
            assert np.array_equal(row, noise_operator(f, eps).values)


@pytest.mark.parametrize("target, transforms_per_function", [("derivative", 1), ("logsobolev", 0)])
def test_zero_noise_campaigns_walk_the_lattice_once_per_function(monkeypatch, target, transforms_per_function):
    # the whole q grid of a function is read off one subset_lattice walk (the
    # top two layers of it for logsobolev), and the derivative's T_h f and
    # T_2h f come from one forward transform
    walks, transforms = [], []
    real_walk, real_transform = cube.subset_lattice, cube.wht_forward
    monkeypatch.setattr(inequalities, "subset_lattice", lambda f: walks.append(f) or real_walk(f))
    monkeypatch.setattr(cube, "wht_forward", lambda f: transforms.append(f) or real_transform(f))
    args = cli.build_parser().parse_args(["verify", "--target", target, "--n", "5", "--fuzz", "3"])
    rows = cli._campaign(args)
    assert len(rows) == 3 * len(Q_GRID) and all(rep.holds(args.tolerance) for rep in rows)
    assert len(walks) == 3
    assert len(transforms) == 3 * transforms_per_function


def test_one_parser_per_process_gives_a_fresh_parsers_reports(tmp_path, capsys, monkeypatch, k4_file):
    # verify, code and matroid back to back through the one parser, with
    # their default lists (such as --lambda [0.5]) and with explicit flags,
    # report what a parser built for each call reports
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 4\n1100\n0111\n")
    argvs = [
        ["verify", "--target", "main", "--n", "3", "--fuzz", "1"],
        ["code", "--rm", "1", "3"],
        ["matroid", "--file", str(matrix)],
        ["verify", "--target", "hypercontractive", "--n", "2", "--fuzz", "2", "--seed", "5",
         "--eps", "0.1,0.3", "--q", "1.5,inf", "--mode", "mc", "--samples", "40", "--output", "json"],
        ["code", "--rm", "1", "3", "--lambda", "0.2,0.7", "--q", "2,inf"],
        ["matroid", "--graph", k4_file, "--p", "0.3,0.6", "--delta", "0.5"],
        ["code", "--rm", "1", "3"],
        ["verify", "--target", "main", "--n", "3", "--fuzz", "1"],
        ["verify", "--target", "nope"],
    ]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        shared = [(main(argv), capsys.readouterr()) for argv in argvs]
        assert len(built) == 1
        for argv, got in zip(argvs, shared):
            cli._parser.cache_clear()
            assert (main(argv), capsys.readouterr()) == got
    finally:
        cli._parser.cache_clear()
    assert [rc for rc, _ in shared] == [0] * 8 + [2]


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


def test_code_identities_past_cube_cap(capsys, monkeypatch):
    # past the cube cap the moment and sup routes do not run (their weights
    # route is the dual sum itself): empty cells, spread over dual and primal
    monkeypatch.setenv("CUBENOISE_MAX_N", "8")
    code, out, err = run(
        capsys, "code", "--rm", "1", "4", "--mode", "mc", "--q", "2,inf",
        "--samples", "50", "--lambda", "0.5",
    )
    assert code == 0, err
    (row,) = parse_csv(out)["identities"]
    assert row["moment"] == "" and row["sup"] == ""
    assert float(row["spread"]) == abs(float(row["dual_sum"]) - float(row["primal_sum"]))


def test_code_mc_slack_allows_four_standard_errors(capsys):
    # the Monte Carlo rank deficiency sits within its error of an exact f_value
    argv = ("code", "--rm", "1", "4", "--lambda", "0,0.1,0.5,0.9,1", "--q", "1,1.5,2,3,inf")
    code, out, err = run(capsys, *argv, "--mode", "mc", "--samples", "500")
    assert code == 0, err
    slacks = [float(r["slack"]) for r in parse_csv(out)["fvalues"]]
    assert min(slacks) < -1e-9  # the mc estimate falls below an f_value here


def test_code_mc_at_length_64(capsys):
    # masks keep bit 63: at lam = 0.9 rank T = 7 for all but a negligible
    # share of T, so E d(T) = 0.9 * 64 - 7 and no f_value is violated
    argv = ("code", "--rm", "1", "6", "--mode", "mc", "--q", "2,inf", "--lambda", "0.9")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    (row,) = parse_csv(out)["deficiency"]
    assert abs(float(row["rank_deficiency"]) - (0.9 * 64 - 7)) < 0.1


def test_code_reed_muller_2_5_in_mc_mode_runs_on_its_syndromes(capsys):
    # n = 32 is past the cube cap and n - k = 16 is not: every F, and the
    # identities' moment and sup, come from the 2^16 syndromes
    code, out, err = run(capsys, "code", "--rm", "2", "5", "--mode", "mc", "--samples", "200")
    assert code == 0, err
    sections = parse_csv(out)
    assert [r["q"] for r in sections["fvalues"]] == ["1.5", "2.0", "3.0", "inf"]
    (row,) = sections["identities"]
    assert row["moment"] != "" and row["sup"] != ""
    assert float(row["spread"]) <= 1e-9


def test_code_reed_muller_2_5_entropy_limit_runs_on_its_syndromes(capsys):
    # q = 1 sums g and g log2 g on the 2^16 syndromes too, so n = 32 is no cap
    argv = ("code", "--rm", "2", "5", "--q", "1", "--mode", "mc", "--samples", "200")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    rows = parse_csv(out)["fvalues"]
    assert [r["q"] for r in rows] == ["1.0"]
    assert all(0.0 < float(r["f_value"]) < math.inf for r in rows)


def test_code_syndrome_cap_names_n_minus_k_and_the_enumerator_route(capsys, monkeypatch):
    monkeypatch.setenv("CUBENOISE_MAX_N", "12")
    argv = ("code", "--rm", "2", "5", "--mode", "mc", "--samples", "50")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "capped at n-k=12, got 16" in err and "q = 2 and inf run on the weight enumerator" in err
    code, _, err = run(capsys, *argv, "--q", "2,inf")
    assert code == 0, err

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


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_matroid_graph_without_edges_exits_2(capsys, tmp_path, mode):
    # an edgeless graph has no graphic matroid, so no report in either mode
    path = tmp_path / "empty.graph"
    path.write_text("4 0\n")
    code, out, err = run(capsys, "matroid", "--graph", str(path), "--mode", mode)
    assert (code, out, err) == (2, "", "error: graphic matroid needs at least one edge\n")


def test_matroid_zero_rate_all_zero_gaps(capsys, rep2_file):
    code, out, _ = run(capsys, "matroid", "--file", rep2_file, "--p", "0")
    assert code == 0
    rows = parse_csv(out)["deficiency_gap"]
    assert all(float(r["gap"]) == 0.0 for r in rows)


def test_matroid_tail_check_uses_tolerance(capsys, monkeypatch, k4_file):
    # a tail gap of -1e-10 (lhs 1e-10, rhs 0) lies inside the default
    # tolerance 1e-9 but outside the fixed -1e-12 the check once used
    from cubenoise import matroids

    def tail_sweep(m, p_grid, delta_grid):
        params = {"n": m.n, "q": None, "eps_or_lambda": p_grid[0], "mode": "exact", "delta": delta_grid[0]}
        return [GapReport("tail", 1e-10, 0.0, params)]

    monkeypatch.setattr(matroids, "tail_sweep", tail_sweep)
    code, _, err = run(capsys, "matroid", "--graph", k4_file, "--p", "0.5")
    assert code == 0, err
    code, _, err = run(capsys, "matroid", "--graph", k4_file, "--p", "0.5", "--tolerance", "1e-11")
    assert code == 1
    assert err.startswith("violation: tail,")


def test_matroid_tail_nan_gap_is_a_violation(capsys, monkeypatch, k4_file):
    # the tail rows take the GapReport.holds verdict, which a NaN gap fails
    from cubenoise import matroids

    def tail_sweep(m, p_grid, delta_grid):
        params = {"n": m.n, "q": None, "eps_or_lambda": p_grid[0], "mode": "exact", "delta": delta_grid[0]}
        return [GapReport("tail", math.nan, 0.5, params)]

    monkeypatch.setattr(matroids, "tail_sweep", tail_sweep)
    code, _, err = run(capsys, "matroid", "--graph", k4_file, "--p", "0.5")
    assert code == 1
    assert err.startswith("violation: tail,")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["code", "--rm", "1", "3", "--tolerance", "nan"], "tolerance"),
        (["verify", "--target", "main", "--n", "2", "--fuzz", "1", "--tolerance", "nan"], "tolerance"),
        (["matroid", "--graph", "K4", "--tolerance", "nan"], "tolerance"),
        (["matroid", "--graph", "K4", "--delta", "nan"], "threshold offset"),
    ],
)
def test_nan_tolerance_or_delta_is_usage_error(capsys, k4_file, argv, message):
    # a NaN tolerance makes every slack check vacuous or every row a violation,
    # and a NaN delta prints a NaN tail bound
    code, out, err = run(capsys, *(k4_file if a == "K4" else a for a in argv))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["code", "--rm", "1", "3", "--tolerance", "inf"], "tolerance"),
        (["verify", "--target", "twopoint", "--tolerance", "inf"], "tolerance"),
        (["matroid", "--graph", "K4", "--p", "0", "--delta", "nan"], "threshold offset"),
        (["matroid", "--graph", "K4", "--p", "0", "--delta", "-3"], "threshold offset"),
    ],
)
def test_infinite_tolerance_or_bad_delta_at_zero_rate_is_usage_error(capsys, k4_file, argv, message):
    # an infinite tolerance passes every check, and the tail rows that would
    # reject a bad delta are skipped at p = 0
    code, out, err = run(capsys, *(k4_file if a == "K4" else a for a in argv))
    assert code == 2 and out == ""
    assert message in err


def test_matroid_rate_out_of_range(capsys, rep2_file):
    code, _, err = run(capsys, "matroid", "--file", rep2_file, "--p", "1.5")
    assert code == 2 and "sampling rate" in err


@pytest.fixture
def rank9_file(tmp_path):
    # a random 9 x 19 matrix, as the benchmark's n = 19 matroids are drawn
    rows = np.random.default_rng(19).integers(0, 1 << 19, size=9)
    path = tmp_path / "m19.matroid"
    dump_bit_matrix((int(r) for r in rows), 19, str(path))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        # powers of 1/p in unfolded Tutte forms overflow here
        ["--graph", "K4", "--p", "1e-300"],
        ["--file", "M19", "--p", "1e-40"],
        # a comparator that squares delta overflows, and p^2 is 0 below 2e-162
        ["--graph", "K4", "--p", "0.5", "--delta", "1e200"],
        ["--file", "REP2", "--p", "1e-200"],
        ["--graph", "K4", "--p", "0,1e-300,0.5,1", "--delta", "0,1e200"],
    ],
)
def test_matroid_edge_rates_and_offsets_pass(capsys, k4_file, rep2_file, rank9_file, argv):
    files = {"K4": k4_file, "REP2": rep2_file, "M19": rank9_file}
    code, out, err = run(capsys, "matroid", *(files.get(a, a) for a in argv))
    assert (code, err) == (0, "")
    sections = parse_csv(out)
    assert all(math.isfinite(float(r["lhs"])) for r in sections["tutte_identity"])
    assert all(r["note"].startswith("bounded_diff=") for r in sections["tail"])


@pytest.mark.parametrize("q", ["1020", "1100", "2,1014.02"])
def test_verify_twopoint_q_past_finite_doubles_is_usage_error(capsys, q):
    # at q = 1020 the t = inf row's lhs is inf, and at 1100 a power overflows
    code, out, err = run(capsys, "verify", "--target", "twopoint", "--q", q)
    assert (code, out) == (2, "")
    assert err.startswith("error: two-point values at q=") and "use q <= 1014" in err


def test_verify_twopoint_large_q_rows_hold(capsys):
    # at t = inf the gap is rounding of values near 2^q, and the margin
    # scales with them: each such row is an equality case, not a violation
    code, out, err = run(capsys, "verify", "--target", "twopoint", "--q", "60,500,1014")
    assert (code, err) == (0, "")
    boundary = [r for r in parse_csv(out)["gaps"] if r["eps_or_lambda"] == "inf"]
    assert len(boundary) == 3 and all(r["note"] == "equality" for r in boundary)


def test_verify_twopoint_q_at_the_limit_has_finite_rows(capsys):
    code, out, err = run(capsys, "verify", "--target", "twopoint", "--q", "1014", "--tolerance", "1e300")
    assert (code, err) == (0, "")
    assert all(math.isfinite(float(r["lhs"])) for r in parse_csv(out)["gaps"])


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


def _code_row(monkeypatch, inequality, f_value=0.0, routes=(0.0,) * 4):
    # the row cmd_code judges, on forced values of order <= 1 and a rank
    # deficiency of 0
    with monkeypatch.context() as m:
        m.setattr(codes, "deficiency_expectation", lambda code, lams, *args: [(0.0, 0.0)] * len(lams))
        row = lambda qs: codes.FRow((f_value,) * len(qs), codes.EnumeratorIdentityValues(*routes))
        m.setattr(codes, "f_sweep", lambda code, lams, qs: [row(qs) for _ in lams])
        _, judged = cli.cmd_code(cli.build_parser().parse_args(["code", "--rm", "1", "3", "--q", "2"]))
    (rep,) = [r for r in judged if r.inequality == inequality]
    return rep


def _swept_row(sweep, equal_sides=False, **params):
    # a true row of a sweep, with its residuals forced, or its lhs set to its
    # rhs for a gap of 0
    rep = sweep()[0]
    return dataclasses.replace(rep, lhs=rep.rhs if equal_sides else rep.lhs, params={**rep.params, **params})


_DERIVATIVE = lambda: derivative_sweep(corpus.random_positive(3, np.random.default_rng(1)), (2.0,))
_TUTTE = lambda: matroids.tutte_sweep(matroids.Graph(3, ((0, 1), (1, 2), (0, 2))).matroid, (0.5,))
_MC_MARGIN = 1e-9 + 4.0 * 1e-3  # tolerance + 4 stderr at stderr 1e-3

# (case, row, verdict at tolerance 1e-9): each of the five rules the verdict
# replaced, at its boundary, on rows of order <= 1, then one large row.  A
# gap of -x comes from lhs x and rhs 0, exactly.
VERDICTS = [
    ("gap at -tol", lambda mp: GapReport("main", 1e-9, 0.0, {"mode": "exact"}), True),
    ("gap below -tol", lambda mp: GapReport("main", 1.1e-9, 0.0, {"mode": "exact"}), False),
    ("nan gap", lambda mp: GapReport("tail", math.nan, 0.5, {"mode": "exact"}), False),
    ("infinite lhs", lambda mp: GapReport("main", math.inf, 0.5, {"mode": "exact"}), False),
    ("mc gap at -(tol + 4 stderr)",
     lambda mp: GapReport("main", _MC_MARGIN, 0.0, {"mode": "mc", "stderr": 1e-3}), True),
    ("mc gap below -(tol + 4 stderr)",
     lambda mp: GapReport("main", math.nextafter(_MC_MARGIN, math.inf), 0.0,
                          {"mode": "mc", "stderr": 1e-3}), False),
    ("derivative row", lambda mp: _swept_row(_DERIVATIVE), True),
    ("derivative gap 0", lambda mp: _swept_row(_DERIVATIVE, equal_sides=True), False),
    ("derivative rel_err 1.01e-4", lambda mp: _swept_row(_DERIVATIVE, rel_err_rhs=1.01e-4), False),
    ("tutte residual at tol", lambda mp: _swept_row(_TUTTE, mgf_residual=1e-9), True),
    ("tutte residual 1.1e-9", lambda mp: _swept_row(_TUTTE, deficiency_residual=1.1e-9), False),
    ("identities spread 1e-9", lambda mp: _code_row(mp, "identities", routes=(None, None, 0.0, 1e-9)), True),
    ("identities spread 1.1e-9", lambda mp: _code_row(mp, "identities", routes=(0.0, 0.0, 0.0, 1.1e-9)),
     False),
    ("fvalues slack -1e-9", lambda mp: _code_row(mp, "fvalues", f_value=1e-9), True),
    ("fvalues slack -1.1e-9", lambda mp: _code_row(mp, "fvalues", f_value=1.1e-9), False),
    # gap -256 on values near 2^60: rounding, within 1e-9 of the values
    ("twopoint q = 60, t = inf", lambda mp: two_point_gap(math.inf, 60.0), True),
]


def test_violation_reporting_logic(monkeypatch):
    for case, build, verdict in VERDICTS:
        rep = build(monkeypatch)
        assert rep.holds(1e-9) is verdict, case
        if case.startswith("twopoint"):
            assert rep.lhs > 1e18 and rep.params["note"] == "equality"
        else:
            assert max(abs(rep.lhs), abs(rep.rhs)) <= 1.0 or not math.isfinite(rep.lhs), case


# one argv per kind of judged row: (argv, the inequality of its rows)
JUDGED_ROWS = [
    ("verify --target main --n 2 --fuzz 1", "main"),
    ("verify --target entropy --n 2 --fuzz 1", "entropy"),
    ("verify --target hypercontractive --n 2 --fuzz 1", "hypercontractive"),
    ("verify --target logsobolev --n 2 --fuzz 1", "logsobolev"),
    ("verify --target derivative --n 2 --fuzz 1", "derivative"),
    ("verify --target twopoint --q 2", "twopoint"),
    ("code --rm 1 3", "fvalues"),
    ("code --rm 1 3", "identities"),
    ("matroid --graph K4", "deficiency"),
    ("matroid --graph K4", "tutte"),
    ("matroid --graph K4", "tail"),
    ("matroid --graph K4", "graph"),
]


@pytest.mark.parametrize("argv, inequality", JUDGED_ROWS, ids=[i for _, i in JUDGED_ROWS])
def test_violation_line_has_the_header_cells(capsys, monkeypatch, k4_file, argv, inequality):
    # every row of the kind fails: its violation line is a csv row of the
    # gaps header, with no comma inside a note
    monkeypatch.setattr(GapReport, "holds", lambda rep, tolerance: rep.inequality != inequality)
    code, _, err = run(capsys, *[k4_file if a == "K4" else a for a in argv.split()])
    assert code == 1
    (line,) = err.splitlines()
    cells = line.removeprefix("violation: ").split(",")
    assert cells[0] == inequality and len(cells) == len(inequalities.CSV_COLUMNS)

RUN_ARGS = {
    "verify": "verify --target logsobolev --n 2 --fuzz 2",
    "code": "code --rm 1 3",
    "matroid": "matroid --graph K4",
}
BAD_TOLERANCE = "error: tolerance must be positive and finite\n"
ONE_DRAW = "error: mc mode needs at least two samples: a standard error needs two draws\n"


@pytest.mark.parametrize("command", sorted(RUN_ARGS))
@pytest.mark.parametrize(
    "flags, err_want",
    [
        pytest.param(flags, err_want, id=flags)
        for flags, err_want in (
            ("--tolerance 0", BAD_TOLERANCE),
            ("--tolerance nan", BAD_TOLERANCE),
            ("--tolerance inf", BAD_TOLERANCE),
            ("--mode mc --samples 0", ONE_DRAW),
            ("--mode mc --samples 1", ONE_DRAW),
            ("--mode exact --samples 1", ""),  # exact mode draws nothing
        )
    ],
)
def test_run_flags_checked_before_any_report(capsys, k4_file, command, flags, err_want):
    argv = [k4_file if a == "K4" else a for a in f"{RUN_ARGS[command]} {flags}".split()]
    code, out, err = run(capsys, *argv)
    assert err == err_want
    if err_want:
        assert code == 2 and out == ""
    else:
        assert code == 0 and out.startswith("# cubenoise-report v1")


@pytest.mark.parametrize("command", sorted(RUN_ARGS))
@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_negative_seed_is_usage_error(capsys, k4_file, command, mode):
    argv = [k4_file if a == "K4" else a for a in f"{RUN_ARGS[command]} --mode {mode} --seed -1".split()]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --seed must be a nonnegative integer, got -1\n")


# (flag, file content, what the refusal names after the file's path)
MALFORMED_FILES = [
    ("--file", "", "empty matrix file"),
    ("--file", "a 3\n", "k must be a nonnegative integer, got 'a'"),
    ("--file", "-1 3\n", "k must be a nonnegative integer, got '-1'"),
    ("--file", "1 -3\n", "n must be a nonnegative integer, got '-3'"),
    ("--file", "1 3 5\n101\n", "first line must be 'k n'"),
    ("--file", "2 3\n101\n", "expected 2 rows, got 1"),
    ("--file", "1 3\n1011\n", "row 1 must be 3 characters of 0/1"),
    ("--file", "1 0\n", "expected 1 rows, got 0"),
    ("--file", b"1 3\n1\xff1\n", "byte 0xff"),
    ("--graph", "", "empty graph file"),
    ("--graph", "x 1\n0 1\n", "V must be a nonnegative integer, got 'x'"),
    ("--graph", "4 -1\n", "E must be a nonnegative integer, got '-1'"),
    ("--graph", "4 1\n0 x\n", "edge 1 endpoint must be a nonnegative integer, got 'x'"),
    ("--graph", "4 2\n0 1\n-1 2\n", "edge 2 endpoint must be a nonnegative integer, got '-1'"),
    ("--graph", "4 1\n0 1 2\n", "edge 1 must be 'u v'"),
    ("--graph", "4 1\n0 9\n", "edge (0, 9) out of range"),
    ("--graph", "0 1\n0 0\n", "need at least one vertex"),
    ("--graph", b"4 1\n0 \xff\n", "byte 0xff"),
]


@pytest.mark.parametrize("flag, content, names", MALFORMED_FILES, ids=[c for _, c, _ in MALFORMED_FILES])
def test_malformed_input_file_is_refused_with_its_path_and_the_bad_field(capsys, tmp_path, flag, content, names):
    path = tmp_path / "input"
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    commands = [("code", "--file"), ("matroid", "--file")] if flag == "--file" else [("matroid", "--graph")]
    for command, flag in commands:
        code, out, err = run(capsys, command, flag, str(path))
        assert code == 2 and out == "", err
        assert err.startswith(f"error: {path}: ") and names in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--target", "entropy", "--n", "3", "--fuzz", "2"),
        ("verify", "--target", "main", "--n", "3", "--fuzz", "2"),
        ("code", "--rm", "1", "4"),
    ],
)
def test_mc_single_sample_is_usage_error(capsys, argv):
    # one draw has standard error 0, so it alone would decide the verdict
    code, out, err = run(capsys, *argv, "--mode", "mc", "--samples", "1")
    assert code == 2 and out == ""
    assert "a standard error needs two draws" in err


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
