"""The cubenoise benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``, and inputs, results and spans go under ``.bench_build/perfbench/``.
Each workload runs in a fresh worker process as a closed loop (one client,
each report starting when the previous one has returned; see worker.py),
and every report is checked (see reference.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off.  With
``--trace 1`` they are the per-layer ones: the worker alternates untraced and
traced cycles of the workload, and the difference of their median report
times is the tracing overhead.

Report times are measured in ``ref``, the time of the workload's reference
kernels (see worker.py), timed right before and right after each report.  The
machine is shared, and neighbour load changes its speed by up to 1.7x for
minutes at a time: the median wall time of a whole run moves by up to 30%
between runs, while a report's time over the kernels' time moves by a few
percent.  Wall times in seconds are printed as well, but are not metrics.

A workload cycles through fixed report types whose times differ by up to 8x,
and a run holds only a few cycles of the slow ones.  A quantile of the pooled
times would sit in the gap between two types and jump with the number of
reports that fit in the run, so times are stratified by report type:

* ``report_p50_ref``: each type's median time, averaged over the types;
* ``reports_per_ref``: the number of types over the sum of each type's mean
  time, i.e. the closed-loop rate of the workload's mix;
* ``report_tail_ref``: ``report_p50_ref`` times the slowdown at the highest
  percentile that has at least ten reports beyond it, a report's slowdown
  being its time over its type's median; the output names the percentile
  and the report count.  A short run holds too few reports for a tail, and
  then the output says that the percentile is below 50.

``setup_s`` is the median time for a fresh interpreter to import
``cubenoise.cli``, sampled about sixteen times spread over the run, and
``peak_rss_mb`` is the worker's own ``ru_maxrss``.

Per-layer metrics are named ``<module>.<function>.<stat>`` and, like the
times, averaged per report over the workload's report types: ``calls``,
``self_s`` (span time minus the time of child spans), work counts that repeat
exactly (``subsets`` and ``elems``: the sum of 2^n over calls; ``samples``),
``count`` (validated CubeFunction constructions) and ``<module>.errors``
(exceptions leaving a traced function of the module).  ``distinct_share`` is
distinct arguments over calls within a report, summed over the traced reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TAIL_BEYOND = 10
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = (
    ("reports_per_ref", "1/ref"),
    ("report_p50_ref", "ref"),
    ("report_tail_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# fail_share is printed with the metrics but is not one of them: it is 0 on
# every correct run, and a metric that reads 0 has no relative spread.

# Per-layer metrics, per report of the workload's mix: (traced name, stats).
LAYERS = (
    ("inequalities.cond_exp_log_norms", ("calls", "self_s", "subsets", "distinct_share")),
    ("cube.conditional_expectation", ("calls", "self_s", "distinct_share")),
    ("cube.log_lq_norm", ("calls", "self_s")),
    ("cube.CubeFunction", ("count",)),
    ("inequalities.subset_expectation_exact", ("calls", "self_s")),
    ("inequalities.main_inequality_gap", ("calls", "self_s")),
    ("inequalities.main_inequality_sweep", ("calls", "self_s")),
    ("inequalities.noisy_entropy_gap", ("calls", "self_s")),
    ("inequalities.hypercontractive_gap", ("calls", "self_s")),
    ("inequalities.subset_expectation_mc", ("calls", "self_s", "samples")),
    ("inequalities.subset_weights", ("calls", "self_s", "elems")),
    ("codes.deficiency_table", ("calls", "self_s", "distinct_share")),
    ("matroids.matroid_deficiency_table", ("calls", "self_s")),
    ("matroids.tutte_polynomial", ("calls", "self_s")),
    ("matroids.deficiency_inequality_gap", ("calls", "self_s")),
    ("matroids.tutte_identity_check", ("calls", "self_s")),
    ("matroids.tail_bound_check", ("calls", "self_s")),
    ("matroids.bounded_diff_tail", ("calls", "self_s")),
    ("matroids.mu_curve", ("calls", "self_s")),
    ("matroids.graph_inequality_gap", ("calls", "self_s")),
    ("matroids.connected_components", ("calls",)),
    ("cube.noise_operator", ("calls", "self_s")),
    ("cube.wht_forward", ("calls", "distinct_share")),
    ("codes.f_value", ("calls", "self_s")),
    ("codes.enumerator_identities", ("calls", "self_s")),
    ("codes.weight_distribution", ("calls", "self_s")),
    ("codes.dual_code", ("calls", "self_s")),
    ("codes.rank_deficiency", ("calls", "self_s")),
    ("corpus.standard_corpus", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
STAT_UNITS = {"calls": "count/report", "count": "count/report", "self_s": "s/report",
              "subsets": "count/report", "elems": "count/report", "samples": "count/report",
              "distinct_share": "ratio"}
TRACE_METRICS = (("trace.report_p50_s", "s"), ("trace.untraced_report_p50_s", "s"),
                 ("trace.overhead_s", "s"))


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [(f"{layer}.{stat}", STAT_UNITS[stat]) for layer, stats in LAYERS for stat in stats]
    out += [(f"{m}.errors", "count/report") for m in tracing.MODULES]
    return out + list(TRACE_METRICS)


# Layer predictions at the commit that defined the benchmark: which layers
# each workload was chosen to load.  Printed by traced runs; a miss after an
# optimisation is expected and is not a failed run.
# (workload, report-type prefix or None for all, description, test on shares/calls)
LAYER_CHECKS = (
    ("verify", None, "cube.conditional_expectation has the largest self time",
     lambda s, c: max(s, key=s.get) == "cube.conditional_expectation"),
    ("verify", None, "codes and matroids do no work",
     lambda s, c: all(v == 0 for n, v in c.items() if n.split(".")[0] in ("codes", "matroids"))),
    ("verify", "mc-", "cube.conditional_expectation self time is most of an mc report",
     lambda s, c: s["cube.conditional_expectation"] > 0.5),
    ("verify", "mc-", "subset_expectation_mc runs; exact tables, deficiency_table and subset_weights do not",
     lambda s, c: c["inequalities.subset_expectation_mc"] > 0
     and c["inequalities.cond_exp_log_norms"] == 0
     and c["codes.deficiency_table"] == 0 and c["inequalities.subset_weights"] == 0),
    ("erasure", None, "cube.conditional_expectation is near zero",
     lambda s, c: s["cube.conditional_expectation"] < 0.01),
    ("erasure", None, "subset_expectation_mc does not run",
     lambda s, c: c["inequalities.subset_expectation_mc"] == 0),
    ("erasure", "matroid-", "deficiency_table + subset_weights self time is most of a matroid --file report",
     lambda s, c: s["codes.deficiency_table"] + s["inequalities.subset_weights"] > 0.5),
)


# ---------------------------------------------------------------------------
# machine note
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict[str, str]:
    """L2 and L3 sizes as the kernel reports them for cpu0 (read-only)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            if not entry.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = size
    except OSError:
        pass
    return out or {"L2": "unknown", "L3": "unknown"}


def machine_note(workload: workloads.Workload, seed: int, version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cubenoise": version,
        "seed": seed,
        "caches": _cache_sizes(),
        "working_set_bytes": workload.working_set_bytes,
        "working_set_note": (
            f"one 2^n float64 table per report type; the largest n below "
            f"the n={workloads.DIMENSION_CAP} cap is {(1 << (workloads.DIMENSION_CAP - 1)) * 8 >> 20} MiB, "
            "so no supported n reaches L3 size"
        ),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_worker(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple[dict, str]:
    out = os.path.join(BUILD, f"{name}-seed{seed}-trace{int(trace)}")
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--out", out]
    if trace:
        cmd.append("--trace")
    # its own process group, so a timeout also stops the set-up interpreters it starts
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:  # timed out, or this process was told to stop
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        return json.load(fh), out


def stratified(records: list[dict], unit: str = "ref") -> dict:
    """Report-time metrics over `records` in `unit` (ref or s), stratified by
    report type."""
    by_type: dict[str, list[float]] = {}
    for rec in records:
        value = rec["wall_s"] / rec["ref_s"] if unit == "ref" else rec["wall_s"]
        by_type.setdefault(rec["type"], []).append(value)
    medians = {t: statistics.median(v) for t, v in by_type.items()}
    p50 = statistics.fmean(medians.values())
    rate = len(by_type) / sum(statistics.fmean(v) for v in by_type.values())
    slowdowns = sorted(x / medians[t] for t, v in by_type.items() for x in v)
    count = len(slowdowns)
    idx = max(0, count - 1 - TAIL_BEYOND)
    return {
        f"report_p50_{unit}": p50,
        f"reports_per_{unit}": rate,
        f"report_tail_{unit}": p50 * slowdowns[idx],
        "tail_percentile": 100.0 * (idx + 1) / count,
        "tail_beyond": count - 1 - idx,
        "count": count,
        "per_type": {t: (len(v), medians[t]) for t, v in by_type.items()},
    }


def layer_metrics(result: dict, spans_path: str, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    with np.load(spans_path) as data:
        spans = {k: data[k] for k in tracing.SPAN_FIELDS}
    names = result["traced_names"]
    by_type: dict[str, list[int]] = {}
    for rec in traced:
        by_type.setdefault(rec["type"], []).append(rec["index"])
    per_type = {t: tracing.layer_totals(spans, names, idx) for t, idx in by_type.items()}
    everything = tracing.layer_totals(spans, names, [r["index"] for r in traced])

    def per_report(name: str, field: str) -> float:
        # mean over the mix: each type's per-report mean, averaged over types
        if name not in names:
            return 0.0
        return statistics.fmean(per_type[t][name][field] / len(idx) for t, idx in by_type.items())

    metrics = {}
    field_of = {"calls": "calls", "count": "calls", "self_s": "self_s",
                "subsets": "work", "elems": "work", "samples": "work"}
    for layer, stats in LAYERS:
        for stat in stats:
            if stat == "distinct_share":
                calls = everything[layer]["calls"] if layer in everything else 0.0
                value = everything[layer]["distinct"] / calls if calls else 0.0
            else:
                value = per_report(layer, field_of[stat])
            metrics[f"{layer}.{stat}"] = value
    for module in tracing.MODULES:
        metrics[f"{module}.errors"] = sum(
            per_report(n, "errors") for n in names if n.split(".")[0] == module)
    t = stratified(traced, "s")["report_p50_s"]
    u = stratified(untraced, "s")["report_p50_s"]
    metrics.update({"trace.report_p50_s": t, "trace.untraced_report_p50_s": u,
                    "trace.overhead_s": t - u})

    lines = []
    for prefix in dict.fromkeys(p for wl, p, _, _ in LAYER_CHECKS if wl == result["workload"]):
        chosen = [r for r in traced if prefix is None or r["type"].startswith(prefix)]
        totals = tracing.layer_totals(spans, names, [r["index"] for r in chosen])
        wall = sum(r["wall_s"] for r in chosen)
        shares = {n: totals[n]["self_s"] / wall for n in names}
        calls = {n: totals[n]["calls"] for n in names}
        kinds = f" {prefix}* reports" if prefix else " reports"
        lines.append(f"layer self time over {len(chosen)} traced{kinds}:")
        for n in sorted(names, key=lambda n: -shares[n])[:4]:
            lines.append(f"    {n}: {100 * shares[n]:.1f}% of report time, {calls[n]:.0f} calls")
        for wl, p, text, test in LAYER_CHECKS:
            if wl == result["workload"] and p == prefix:
                lines.append(f"layer check: {text}: {'holds' if test(shares, calls) else 'MISSED'}")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = workloads.build(name, seed)
    result, out = run_worker(name, seed, seconds, trace, deadline)
    records = result["reports"]
    failures = reference.check(records, seed, name)
    lines = [
        f"workload {name}: {workload.why}",
        "machine: " + json.dumps(machine_note(workload, seed, result["cubenoise_version"]), sort_keys=True),
    ]
    untraced = [r for r in records if not r["traced"]]
    stats = stratified(untraced)
    wall = stratified(untraced, "s")
    per_type = ", ".join(f"{t} {n}x p50 {m:.4f} s ({stats['per_type'][t][1]:.2f} ref)"
                         for t, (n, m) in wall["per_type"].items())
    lines.append(f"reports: {len(records)} attempted, {len(failures)} failed; untraced by type: {per_type}")
    ref_s = statistics.median(r["ref_s"] for r in untraced)
    lines.append(f"ref: {' + '.join(workload.kernels)} kernel, median {ref_s:.6f} s; wall time: "
                 + ", ".join(f"{k} {wall[k]:.4f} {u}" for k, u in
                             (("reports_per_s", "1/s"), ("report_p50_s", "s"), ("report_tail_s", "s"))))
    for index, problems in list(failures.items())[:5]:
        rec = records[index]
        lines.append(f"FAILED report {index}: cubenoise {' '.join(rec['argv'])}: "
                     f"{'; '.join(problems[:3])} {rec['stderr'].strip()[-300:]}")
    fail_share = len(failures) / len(records)
    if trace:
        traced = [r for r in records if r["traced"]]
        metrics, checks = layer_metrics(result, os.path.join(out, "spans.npz"), traced, untraced)
        units = dict(per_layer_metrics())
        lines += checks
        lines.append(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per report "
                     f"(traced p50 {metrics['trace.report_p50_s']:.4f} s, "
                     f"untraced p50 {metrics['trace.untraced_report_p50_s']:.4f} s)")
        lines.append(f"spans: {os.path.relpath(os.path.join(out, 'spans.npz'), ROOT)}")
    else:
        metrics = {k: stats[k] for k in ("reports_per_ref", "report_p50_ref", "report_tail_ref")}
        metrics["setup_s"] = statistics.median(result["setup_s"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = dict(END_TO_END)
        below = (", a sub-median quantile, not a tail: too few reports in the run"
                 if stats["tail_percentile"] < 50 else "")
        lines.append(f"report_tail_ref is at p{stats['tail_percentile']:.0f} of {stats['count']} reports "
                     f"({stats['tail_beyond']} beyond it{below}); "
                     f"setup_s is the median of {len(result['setup_s'])} fresh interpreters")
    for key, value in metrics.items():
        lines.append(f"{key} {value!r} {units[key]}")
    lines.append(f"fail_share {fail_share!r} ratio")
    return {
        "lines": lines,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # stop the worker's process group too when this process is told to stop
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "cubenoise", "cli.py")):
        print(f"error: no cubenoise sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(results[name]["lines"]), flush=True)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
