"""Each derived table (dual code, syndrome layout, deficiency histogram,
row-space code, graphic matroid, Tutte polynomial) lives on the object it
comes from: it is built once per report, and freed with its object; every
subset average of a report is one call per rate grid; and the exact entropy
table peaks within the memory of its subset-lattice walk."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from references import dump_bit_matrix, dump_graph

from cubenoise import codes, inequalities, matroids
from cubenoise.cli import main
from cubenoise.codes import LinearCode, deficiency_table, f_sweep, gf2_rref
from cubenoise.corpus import random_nonneg
from cubenoise.matroids import BinaryMatroid, Graph, tutte_polynomial


def count_calls(monkeypatch, module, name, counted=lambda result: True):
    """Wrap module.name so that each call whose result passes `counted` is
    recorded; returns the list of recorded results."""
    original = getattr(module, name)
    seen = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if counted(result):
            seen.append(result)
        return result

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_code_report_builds_one_syndrome_index_and_one_table(tmp_path, monkeypatch, capsys):
    n, k = 12, 6
    rng = np.random.default_rng(12)
    rows = [1 << j | int(r) << k for j, r in enumerate(rng.integers(0, 1 << (n - k), size=k))]
    path = str(tmp_path / "c.code")
    dump_bit_matrix(rows, n, path)
    # no span reaches the 2^n cube points, at q = 1 either: the one syndrome
    # index is the layout's, over the 2^(n-k) syndromes; the histogram is
    # one projected count, and no report builds the 2^n deficiency table
    spans = count_calls(monkeypatch, codes, "_span")
    tables = count_calls(monkeypatch, codes, "_projected_histogram")
    oracles = count_calls(monkeypatch, codes, "deficiency_table")
    argv = ["code", "--file", path, "--lambda", "0.1,0.5", "--q", "1,1.5,2,3,inf"]
    assert main(argv) == 0, capsys.readouterr().err
    assert [words.size for words in spans if words.size >= 1 << n] == []
    assert sum(words.dtype == np.intp and words.size == 1 << (n - k) for words in spans) == 1
    assert (len(tables), len(oracles)) == (1, 0)


def test_code_report_past_seven_dimensions_builds_one_table_from_one_listing(
    tmp_path, monkeypatch, capsys
):
    # the histogram's projection comes from one listing of the 2^min(k, n-k)
    # codewords of the smaller side, and no span reaches the 2^n masks
    n, k = 16, 8
    rng = np.random.default_rng(16)
    rows = [1 << j | int(r) << k for j, r in enumerate(rng.integers(0, 1 << (n - k), size=k))]
    path = str(tmp_path / "c.code")
    dump_bit_matrix(rows, n, path)
    spans = count_calls(monkeypatch, codes, "_span")
    tables = count_calls(monkeypatch, codes, "_projected_histogram")
    listed = count_calls(monkeypatch, codes, "codeword_masks")
    argv = ["code", "--file", path, "--lambda", "0.1,0.5", "--q", "1.5,2,3,inf"]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(tables) == 1
    assert [words.size for words in spans if words.size >= 1 << n] == []
    # one listing for the histogram, one for the weight of each dual codeword
    assert [masks.shape for masks in listed] == [(1 << min(k, n - k),), (1 << (n - k),)]


def test_graph_report_of_rank_seven_builds_one_table_from_one_listing(
    tmp_path, monkeypatch, capsys
):
    cycle = tuple((v, (v + 1) % 8) for v in range(8))
    graph = Graph(8, cycle + ((0, 4), (1, 5), (2, 6), (3, 7), (0, 2)))
    assert graph.matroid.k == 7
    path = str(tmp_path / "g.graph")
    dump_graph(graph, path)
    spans = count_calls(monkeypatch, codes, "_span")
    tables = count_calls(monkeypatch, codes, "_projected_histogram")
    listed = count_calls(monkeypatch, codes, "codeword_masks")
    assert main(["matroid", "--graph", path, "--p", "0.2,0.5,0.8"]) == 0, capsys.readouterr().err
    assert len(tables) == 1
    assert [words.size for words in spans if words.size >= 1 << graph.matroid.n] == []
    # 13 edges of rank 7: the dual, of dimension 6, is the side listed
    assert [masks.shape for masks in listed] == [(1 << (graph.matroid.n - 7),)]


def histogram_peak(code):
    tracemalloc.start()
    try:
        code.histogram
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_histogram_of_a_22_11_code_peaks_below_4_mib():
    # 2^18 high masks at 13 bytes each: their uint16 bit sets, uint8 counts,
    # the np.intp indices of the class gather and its uint8 classes, 3.25 MiB
    # measured; the 2^22-mask deficiency table it replaced peaked at 8.4 MiB
    rng = np.random.default_rng(22)
    code = LinearCode(22, tuple(gf2_rref((int(r) for r in rng.integers(0, 1 << 22, 11)), 22)[1]))
    assert code.k == 11
    assert histogram_peak(code) < 4 << 20


def test_histogram_of_a_24_1_code_peaks_below_14_mib(monkeypatch):
    # k < n - k: the histogram is the dual's, reflected, so the listing is
    # the code's two codewords and the 2^20 high masks take 12.0 MiB
    # measured; the deficiency table peaked at 136 MiB (a listing of 2^23
    # dual codewords), and the projection of the dual side without the
    # reflection at 288 MiB
    monkeypatch.delenv("CUBENOISE_MAX_N", raising=False)
    code = LinearCode(24, (int(np.random.default_rng(24).integers(1, 1 << 24)),))
    assert histogram_peak(code) < 14 << 20


def test_f_sweep_of_a_22_11_code_peaks_below_4_mib():
    # the syndrome index and the cube gather of the 2^22 points took 32 MiB each
    rng = np.random.default_rng(22)
    code = LinearCode(22, tuple(gf2_rref((int(r) for r in rng.integers(0, 1 << 22, 11)), 22)[1]))
    assert code.k == 11
    tracemalloc.start()
    try:
        f_sweep(code, (0.1, 0.3, 0.5, 0.7, 0.9), (1.5, 2.0, 3.0, math.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_code_report_enumerates_each_side_once(tmp_path, monkeypatch, capsys):
    # the weight counts of the code and of its dual, and the dual's weight
    # per codeword, are each enumerated once and read from the code after;
    # each side's codewords are listed once
    n, k = 12, 5
    rng = np.random.default_rng(5)
    rows = [1 << j | int(r) << k for j, r in enumerate(rng.integers(0, 1 << (n - k), size=k))]
    path = str(tmp_path / "c.code")
    dump_bit_matrix(rows, n, path)
    weighed = count_calls(monkeypatch, codes, "_weights_by_blocks")
    listed = count_calls(monkeypatch, codes, "codeword_masks")
    argv = ["code", "--file", path, "--lambda", "0.1,0.5,0.9", "--q", "1,1.5,2,3,inf"]
    assert main(argv) == 0, capsys.readouterr().err
    assert sorted(len(counts) - 1 for counts in weighed) == [n, n]
    assert sorted(sum(counts) for counts in weighed) == [1 << k, 1 << (n - k)]
    # one listing of the code's codewords for the histogram (k < n - k, so
    # it projects the dual), one of the dual's for the weight of each
    assert sorted(masks.size for masks in listed) == [1 << k, 1 << (n - k)]


def test_graph_report_builds_one_deficiency_table(tmp_path, monkeypatch, capsys):
    graph = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (1, 3)))
    path = str(tmp_path / "g.graph")
    dump_graph(graph, path)
    tables = count_calls(monkeypatch, codes, "_projected_histogram")
    oracles = count_calls(monkeypatch, codes, "deficiency_table")
    assert main(["matroid", "--graph", path, "--p", "0.2,0.5,0.8"]) == 0, capsys.readouterr().err
    assert (len(tables), len(oracles)) == (1, 0)


def test_graph_report_expands_one_tutte_polynomial(tmp_path, monkeypatch, capsys):
    # one tutte_sweep for the three p, on one polynomial
    graph = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (1, 3)))
    path = str(tmp_path / "g.graph")
    dump_graph(graph, path)
    polynomials = count_calls(monkeypatch, matroids, "tutte_polynomial")
    checks = count_calls(monkeypatch, matroids, "tutte_sweep")
    assert main(["matroid", "--graph", path, "--p", "0.2,0.5,0.8"]) == 0, capsys.readouterr().err
    assert (len(polynomials), len(checks)) == (1, 1)


def count_averages(monkeypatch):
    """Wrap codes.deficiency_expectation in every module that calls it; each
    exact call reduces the histogram against its values once.  Returns the
    rate grid of each call."""
    original, grids = codes.deficiency_expectation, []

    def wrapper(code, rates, *args, **kwargs):
        grids.append(list(rates))
        return original(code, rates, *args, **kwargs)

    for module in (codes, matroids):
        monkeypatch.setattr(module, "deficiency_expectation", wrapper)
    return grids


# The report grids of the benchmark's erasure workload.
ERASURE_GRIDS = {
    "--p": "0.2,0.5,0.8", "--delta": "0.5,1,2", "--lambda": "0.1,0.3,0.5,0.7,0.9", "--q": "1.5,2,3,inf",
}


@pytest.mark.parametrize("source, most", [("--file", 8), ("--graph", 8)])
def test_matroid_report_builds_few_weight_vectors(tmp_path, monkeypatch, capsys, source, most):
    # one average per side for the gap, two for the Tutte residuals, E_t d
    # and E_p d for the tails, each over the whole p grid; one for the tail
    # probabilities of every (p, delta), whose thresholds differ; one for the
    # 101-point mean curve; the graph gap reads the deficiency gap's rows.
    # Each average reduces the histogram once and takes one weights matrix.
    graph = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (1, 3)))
    path = str(tmp_path / "g")
    if source == "--graph":
        dump_graph(graph, path)
    else:
        dump_bit_matrix(graph.matroid.rows, graph.matroid.n, path)
    weights = count_calls(monkeypatch, inequalities, "size_weights")
    averages = count_averages(monkeypatch)
    argv = ["matroid", source, path, "--p", ERASURE_GRIDS["--p"], "--delta", ERASURE_GRIDS["--delta"]]
    assert main(argv) == 0, capsys.readouterr().err
    assert len(averages) <= most and len(weights) <= most
    assert sum(w.shape == (101, graph.matroid.n + 1) for w in weights) == 1
    assert sum(len(grid) == 9 for grid in averages) == 1  # the tail probabilities


def test_code_report_reduces_its_histogram_once(tmp_path, monkeypatch, capsys):
    # the rank deficiency of the whole lambda grid is one average
    n, k = 10, 5
    rng = np.random.default_rng(10)
    rows = [1 << j | int(r) << k for j, r in enumerate(rng.integers(0, 1 << (n - k), size=k))]
    path = str(tmp_path / "c.code")
    dump_bit_matrix(rows, n, path)
    weights = count_calls(monkeypatch, inequalities, "size_weights")
    averages = count_averages(monkeypatch)
    argv = ["code", "--file", path, "--lambda", ERASURE_GRIDS["--lambda"], "--q", ERASURE_GRIDS["--q"]]
    assert main(argv) == 0, capsys.readouterr().err
    assert averages == [[0.1, 0.3, 0.5, 0.7, 0.9]]
    assert [w.shape for w in weights] == [(5, n + 1)]


def test_main_report_weighs_each_q_once(monkeypatch, capsys):
    # one weights matrix per q of the grid for the rhs over its eps rates,
    # and one for the q = 2 lhs: 8, where one per (q, eps) took 81
    weights = count_calls(monkeypatch, inequalities, "size_weights")
    assert main(["verify", "--target", "main", "--n", "10", "--fuzz", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(weights) <= 8


def test_mc_graph_report_draws_each_rate_once_per_average(tmp_path, monkeypatch, capsys):
    # the gap averages two grids, p and t, of three distinct rates, and the
    # graph gap reads its rows: 2 pooled draws of 3 rates, one uniform draw
    # each, whatever the number of masks they share
    path = str(tmp_path / "g")
    dump_graph(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))), path)
    uniforms = count_calls(monkeypatch, inequalities, "_uniform_draw")
    draws = count_calls(monkeypatch, inequalities, "_sample_masks")
    pools = count_calls(monkeypatch, inequalities, "_pooled_draws")
    monkeypatch.setattr(codes, "_pooled_draws", inequalities._pooled_draws)  # the counting wrapper
    argv = ["matroid", "--graph", path, "--p", "0.2,0.5,0.8,0.5", "--mode", "mc", "--samples", "200"]
    assert main(argv) == 0, capsys.readouterr().err
    assert [len(index) for _, index in pools] == [4] * 2
    assert len(uniforms) == 2
    assert len(draws) == 6


def test_tables_are_freed_with_their_object():
    code = LinearCode(6, (0b000111, 0b011001, 0b101010))
    matroid = BinaryMatroid(6, (0b110011, 0b011110, 0b101101))
    code.histogram
    f_sweep(code, [0.3], [1.5])
    tutte_polynomial(matroid)
    refs = [weakref.ref(obj) for obj in (
        code, code.dual, code.syndrome_layout.syndromes, code.histogram,
        matroid, matroid.row_space_code, matroid.row_space_code.histogram, matroid.tutte,
    )]
    del code, matroid
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_histogram_peak_memory_below_ten_bytes_a_mask():
    # 13 bytes for each of the 2^(n-4) high masks, under one byte a mask; the
    # 2^n deficiency table it replaced took 2 bytes a mask as uint16 counts,
    # an int64 key per mask 9, and int32 counts with an int64 table and key 16
    n, k = 18, 9
    rng = np.random.default_rng(18)
    rows = [1 << j | int(r) << k for j, r in enumerate(rng.integers(0, 1 << (n - k), size=k))]
    assert histogram_peak(LinearCode(n, tuple(rows))) < 10 << n


# (n, bound in MiB): at n = 13 the lattice walk's two largest layers with the
# table (5.5 MiB), the entropy kernel's batches fitting within them.  Batches
# of every table of the walk at once peaked at 2.6 MiB at n = 9 and 203 MiB
# at n = 13, one batch per layer at about 0.4 MiB at n = 9.
ENTROPY_TABLE_BOUNDS = ((9, 0.3), (13, 5.6))


@pytest.mark.parametrize("n,bound_mib", ENTROPY_TABLE_BOUNDS)
def test_exact_entropy_table_peak_memory_within_the_lattice_walk(n, bound_mib):
    f = random_nonneg(n, np.random.default_rng(n))
    tracemalloc.start()
    try:
        inequalities._conditional_rows(f, inequalities._entropy_kernel(f.n), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_tutte_polynomial_past_the_enumeration_cap_builds_no_table(monkeypatch):
    monkeypatch.delenv("CUBENOISE_MAX_N", raising=False)
    rows = np.random.default_rng(25).integers(0, 1 << 25, size=11)
    matroid = BinaryMatroid(25, tuple(int(r) for r in rows))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at n=24, got 25"):
            tutte_polynomial(matroid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # any 2^25-entry table takes 32 MiB or more


def test_deficiency_table_stops_at_32_coordinates_whatever_the_cap(monkeypatch):
    # d(T) <= n - k takes at most 32 bits, the widest count; a 2^33-mask
    # table would take 32 GiB anyway, and the histogram stops there too
    monkeypatch.setenv("CUBENOISE_MAX_N", "40")
    code = LinearCode(33, (1, 2))
    with pytest.raises(ValueError, match="capped at n=32, got 33"):
        deficiency_table(code)
    with pytest.raises(ValueError, match="capped at n=32, got 33"):
        code.histogram
