"""Runs one workload's reports in a fresh process, as a closed loop: one
client, each report starting when the previous one has returned.

Each report calls ``cubenoise.cli.main`` with a generated argv; its wall time
runs from that call to the return, with the report written to an in-memory
stream.  Inputs are generated before the clock starts.  Right before and
right after each report the worker times the workload's reference kernels
(see KERNELS); their mean is the report's ``ref_s``.  The process writes
``result.json`` (times, exit codes, report texts, peak RSS) and, when traced,
``spans.npz`` into its output directory, and prints nothing else.  Between
reports it also times fresh interpreters importing the program (set-up).

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        (--seconds S | --reports K) [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (after the path set-up, like cubenoise)

# Fresh-interpreter imports of cubenoise.cli, spread evenly over the run so
# that their median sees the same machine load as the reports do.
SETUP_SAMPLES = 16
SETUP_CODE = ("import time; t = time.perf_counter(); import cubenoise.cli; "
              "print(time.perf_counter() - t)")


# Reference kernels.  The machine is shared, and neighbour load changes its
# speed by up to 1.7x within a minute, for long enough that the median report
# time of a whole run moves with it.  A fixed kernel timed next to each report
# slows down with it, so a report's time over the kernel's time stays steady.
# The kernels use the interpreter and numpy only, never cubenoise.
SMALL_TABLE = np.arange(1 << 10, dtype=np.float64)  # 8 KiB, like a verify table


def small_kernel() -> None:
    """Interpreter-bound: many numpy calls on an 8 KiB table, as verify makes."""
    total = 0.0
    for i in range(1600):
        total += float(SMALL_TABLE.reshape(32, 32).mean(axis=0)[i % 32]) + (i * i) % 7


def large_kernel() -> None:
    """Memory-bound: passes over a whole 8 MiB table, as erasure makes.  The
    table is freed on return, so it adds nothing to the reports' peak RSS."""
    table = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(4):
        (table * 0.5 + table[::-1]).dot(table)


KERNELS = {"small": small_kernel, "large": large_kernel}


def reference_time(kernels: tuple[str, ...]) -> float:
    start = time.perf_counter()
    for name in kernels:
        KERNELS[name]()
    return time.perf_counter() - start


def setup_sample() -> float:
    """Seconds for a fresh interpreter to import cubenoise.cli."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def run(workload: workloads.Workload, seconds: float | None, reports: int | None,
        trace: bool, out: str) -> dict:
    import cubenoise
    from cubenoise import cli

    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs, exist_ok=True)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(cubenoise)
    cycle = workload.cycle
    # every report type runs at least once; a traced run alternates untraced
    # and traced cycles, so it runs at least two
    min_reports = len(cycle) * (2 if trace else 1)
    records = []
    setup: list[float] = []
    begin = time.perf_counter()
    next_setup = begin
    index = 0

    def more() -> bool:
        if reports is not None:
            return index < reports
        return index < min_reports or time.perf_counter() - begin < seconds

    while more():
        if seconds is not None and time.perf_counter() >= next_setup:
            setup.append(setup_sample())
            next_setup += seconds / SETUP_SAMPLES
        kind = cycle[index % len(cycle)]
        argv = kind.argv(index, inputs)
        traced = tracer is not None and (index // len(cycle)) % 2 == 1
        ref_before = reference_time(workload.kernels)
        if traced:
            tracer.begin_report(index)
            tracer.install()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed report, not a failed run
                rc = None
                error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        ref_after = reference_time(workload.kernels)
        records.append({
            "index": index,
            "type": kind.name,
            "argv": argv,
            "traced": traced,
            "wall_s": wall,
            "ref_s": (ref_before + ref_after) / 2,
            "rc": rc,
            "error": error,
            "stderr": stderr.getvalue()[-2000:],
            "report": stdout.getvalue(),
        })
        index += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "workload": workload.name,
        "cubenoise_version": cubenoise.__version__,
        "peak_rss_mb": peak_kib / 1024.0,
        "setup_s": setup,
        "reports": records,
    }
    if tracer is not None:
        tracer.write(os.path.join(out, "spans.npz"))
        result["traced_names"] = tracer.names
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--reports", type=int)
    args = parser.parse_args()
    workload = workloads.build(args.workload, args.seed)
    result = run(workload, args.seconds, args.reports, args.trace, args.out)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
