"""The benchmark's workloads: which reports each one cycles through, why it
exists, and how every per-report input is derived from the workload seed.

Every report gets its own seed, or its own freshly generated code, matrix or
graph file, so no two reports of a run share an input.  The program receives
only the generated argv and files; nothing here imports cubenoise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The cube-side working set of a report is one 2^n table of float64 values.
VALUE_BYTES = 8
DIMENSION_CAP = 24  # cubenoise's default CUBENOISE_MAX_N


@dataclass(frozen=True)
class ReportType:
    """One kind of report in a workload's cycle; `argv` builds the command
    line for report `index` of a run, writing any input file into `workdir`."""

    name: str
    n: int
    argv: Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple[ReportType, ...]
    # the reference kernels (worker.KERNELS) whose time is the unit of the
    # workload's report times: the kinds of work its reports spend time on
    kernels: tuple[str, ...]

    @property
    def working_set_bytes(self) -> dict[str, int]:
        return {t.name: (1 << t.n) * VALUE_BYTES for t in self.cycle}


def report_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    """The generator behind report `index` of a run; depends only on the
    workload name, the workload seed and the index."""
    tag = int.from_bytes(workload.encode("ascii"), "little") % (1 << 63)
    return np.random.default_rng([tag, seed, index])


def report_seed(workload: str, seed: int, index: int) -> int:
    return int(report_rng(workload, seed, index).integers(0, 1 << 31))


# ---------------------------------------------------------------------------
# random inputs, written in the formats the cubenoise command reads
# ---------------------------------------------------------------------------

def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _random_rows(rng: np.random.Generator, k: int, n: int) -> list[int]:
    return [int(r) for r in rng.integers(0, 1 << n, size=k)]


def _write_matrix(path: str, rows: list[int], n: int) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(rows)} {n}\n")
        for row in rows:
            fh.write("".join("1" if row >> j & 1 else "0" for j in range(n)) + "\n")


def write_code(path: str, rng: np.random.Generator, n: int) -> None:
    """A random [n, n/2] code: independent generator rows, redrawn until full rank."""
    k = n // 2
    rows = _random_rows(rng, k, n)
    while _gf2_rank(rows) < k:
        rows = _random_rows(rng, k, n)
    _write_matrix(path, rows, n)


def write_matroid(path: str, rng: np.random.Generator, n: int) -> None:
    """A random n/2 x n matrix; rows may be dependent and columns may be zero."""
    _write_matrix(path, _random_rows(rng, n // 2, n), n)


GRAPH_VERTICES = 8


def write_graph(path: str, rng: np.random.Generator, edges: int) -> None:
    """A random loopless multigraph on GRAPH_VERTICES vertices."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{GRAPH_VERTICES} {edges}\n")
        for _ in range(edges):
            u, v = rng.choice(GRAPH_VERTICES, size=2, replace=False)
            fh.write(f"{int(u)} {int(v)}\n")


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

def _verify(workload: str, seed: int, target: str, n: int, *extra: str) -> ReportType:
    name = f"mc-{target}-n{n}" if "mc" in extra else f"{target}-n{n}"

    def argv(index: int, workdir: str) -> list[str]:
        s = report_seed(workload, seed, index)
        return ["verify", "--target", target, "--n", str(n), "--fuzz", "1",
                "--seed", str(s), *extra]

    return ReportType(name, n, argv)


ERASURE_LAMBDAS = "0.1,0.3,0.5,0.7,0.9"
ERASURE_Q = "1.5,2,3,inf"
ERASURE_P = "0.2,0.5,0.8"
ERASURE_DELTA = "0.5,1,2"


def _erasure(workload: str, seed: int, kind: str, n: int) -> ReportType:
    def argv(index: int, workdir: str) -> list[str]:
        rng = report_rng(workload, seed, index)
        path = os.path.join(workdir, f"{kind}-{index}.txt")
        if kind == "code":
            write_code(path, rng, n)
            return ["code", "--file", path, "--lambda", ERASURE_LAMBDAS, "--q", ERASURE_Q]
        if kind == "matroid":
            write_matroid(path, rng, n)
            return ["matroid", "--file", path, "--p", ERASURE_P, "--delta", ERASURE_DELTA]
        write_graph(path, rng, n)
        return ["matroid", "--graph", path, "--p", ERASURE_P, "--delta", ERASURE_DELTA]

    return ReportType(f"{kind}-n{n}", n, argv)


MC_FLAGS = ("--mode", "mc", "--samples", "1000", "--eps", "0.1,0.45")

WHY = {
    "verify": (
        "exact verify: cond_exp_log_norms runs conditional_expectation and log_lq_norm per subset "
        "on 8 KiB tables (L1); mc main at n=14: per-sample loop on 128 KiB tables (L2)"
    ),
    "erasure": (
        "code and matroid reports on fresh objects: 2^n deficiency tables of 512 KiB (in L2) "
        "and 4 MiB (past L2), subset_weights dot products and noise_operator transforms"
    ),
}


def build(name: str, seed: int) -> Workload:
    """The workload `name` with every report input derived from `seed`."""
    if name == "verify":
        # exact reports, then an mc report above the exact cap of 13 that
        # bypasses the exact tables; masks are mostly distinct at eps 0.1,
        # repeated at 0.45
        cycle = (
            _verify(name, seed, "main", 10),
            _verify(name, seed, "entropy", 9),
            _verify(name, seed, "hypercontractive", 8),
            _verify(name, seed, "main", 14, *MC_FLAGS, "--q", "2"),
        )
        kernels = ("small",)
    elif name == "erasure":
        # slow n=19 reports (4 MiB tables, past L2) interleaved with n=16
        # ones (512 KiB, in L2) and with graphs on both sides of
        # graph_inequality_gap's n > 16 switch between its two routes
        cycle = (
            _erasure(name, seed, "code", 19),
            _erasure(name, seed, "graph", 15),
            _erasure(name, seed, "matroid", 16),
            _erasure(name, seed, "matroid", 19),
            _erasure(name, seed, "graph", 18),
            _erasure(name, seed, "code", 16),
        )
        kernels = ("small", "large")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, WHY[name], cycle, kernels)


NAMES = tuple(WHY)
