"""Timing spans around the public functions of cubenoise's modules, installed
from outside the package: nothing under src/ is edited.

A function is replaced in every module namespace that holds it, so a call
through an import alias (``from .cube import conditional_expectation`` in
``inequalities``, ``deficiency_table as _code_deficiency_table`` in
``matroids``) is traced as well.  Each span records its id (in call order),
name, report id, parent span id, start and end, and its self time: its
duration minus the whole time of its child calls, the tracer's own
bookkeeping for those children included, so that bookkeeping is charged to no
layer.  Spans stay in memory, in the order they end, until the run ends.
"""

from __future__ import annotations

import itertools
import time
import types
import weakref
from array import array

import numpy as np

MODULES = ("cli", "corpus", "inequalities", "cube", "codes", "matroids")

# cli's other public functions are the dispatch targets of cli.main; leaving
# them unwrapped keeps argument parsing, rendering and emit in cli.main's self time.
CLI_TRACED = ("main",)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counts that repeat exactly, from the call's arguments: 2^n subsets
# enumerated, 2^n weights built, Monte Carlo samples drawn.
WORK = {
    "inequalities.cond_exp_log_norms": lambda a, k: 1 << _arg(a, k, 0, "f").n,
    "inequalities.subset_weights": lambda a, k: 1 << _arg(a, k, 0, "n"),
    "inequalities.subset_expectation_mc": lambda a, k: _arg(a, k, 3, "samples"),
}
# Layers that can redo work: each call's argument key is checked against the
# keys already seen in the same report (see Tracer._key).
KEYED = frozenset(("inequalities.cond_exp_log_norms", "cube.conditional_expectation",
                   "cube.wht_forward", "codes.deficiency_table"))

SPAN_FIELDS = ("id", "name", "report", "parent", "start", "end", "self", "work", "new", "error")


class Tracer:
    """Spans and per-call work for one run; `install` and `uninstall` swap the
    wrappers in and out so traced and untraced reports can alternate."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_report = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.span_work = array("q")
        self.span_new = array("b")
        self.span_error = array("b")
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._report = -1
        self._seen: dict[str, set] = {}
        self._digests: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._weights: dict[int, np.ndarray] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan = self._find_targets()

    # -- distinct-argument keys (content, not identity: a rebuilt object
    #    with the same values is the same work) -------------------------------
    def _digest(self, f) -> tuple[int, float]:
        """A content fingerprint: the values against fixed random weights,
        cheap enough for 8 MiB tables."""
        d = self._digests.get(f)
        if d is None:
            w = self._weights.get(f.n)
            if w is None:
                w = self._weights[f.n] = np.random.default_rng(f.n).random(1 << f.n)
            d = self._digests[f] = (f.n, float(f.values @ w))
        return d

    def _key(self, name: str, args, kwargs):
        if name == "inequalities.cond_exp_log_norms":
            return self._digest(_arg(args, kwargs, 0, "f")), _arg(args, kwargs, 1, "q")
        if name == "cube.conditional_expectation":
            return self._digest(_arg(args, kwargs, 0, "f")), _arg(args, kwargs, 1, "t_mask")
        if name == "cube.wht_forward":
            return self._digest(_arg(args, kwargs, 0, "f"))
        if name == "codes.deficiency_table":
            code = _arg(args, kwargs, 0, "code")
            return code.n, code.generator
        return None

    # -- installation ---------------------------------------------------------
    def _find_targets(self) -> list[tuple[str, object, list[tuple[object, str]]]]:
        mods = {m: getattr(self.package, m) for m in MODULES}
        namespaces = list(mods.values()) + [self.package]
        plan = []
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                # plain functions and lru_cache-wrapped ones (cube.popcounts)
                if not isinstance(obj, types.FunctionType) and not hasattr(obj, "cache_info"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if mname == "cli" and attr not in CLI_TRACED:
                    continue
                sites = [(ns, a) for ns in namespaces for a, v in vars(ns).items() if v is obj]
                plan.append((f"{mname}.{attr}", obj, sites))
        # validated constructions of cube functions
        cls = mods["cube"].CubeFunction
        plan.append(("cube.CubeFunction", cls.__post_init__, [(cls, "__post_init__")]))
        return plan

    def install(self) -> None:
        if self._patches:
            return
        for name, original, sites in self._plan:
            wrapper = self._wrap(name, original)
            for ns, attr in sites:
                self._patches.append((ns, attr, original, wrapper))
                setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def begin_report(self, report: int) -> None:
        self._report = report
        self._seen = {}

    def _wrap(self, name: str, original):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        work = WORK.get(name)
        keyed = name in KEYED
        clock = time.perf_counter
        stack = self._stack
        ids = self._ids

        def wrapper(*args, **kwargs):
            outer = clock()
            frame = [next(ids), 0.0]  # span id in call order, time of child calls
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            error = 1
            start = clock()
            try:
                result = original(*args, **kwargs)
                error = 0
                return result
            finally:
                end = clock()
                stack.pop()
                new = 0
                if keyed:
                    seen = self._seen.setdefault(name, set())
                    key = self._key(name, args, kwargs)
                    new = key not in seen
                    seen.add(key)
                self.span_id.append(frame[0])
                self.span_name.append(nid)
                self.span_report.append(self._report)
                self.span_parent.append(parent)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_self.append(end - start - frame[1])
                self.span_work.append(work(args, kwargs) if work else 0)
                self.span_new.append(new)
                self.span_error.append(error)
                if stack:
                    stack[-1][1] += clock() - outer

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- output ---------------------------------------------------------------
    def write(self, path: str) -> None:
        spans = {field: np.array(getattr(self, "span_" + field)) for field in SPAN_FIELDS}
        np.savez(path, names=np.array(self.names), **spans)


def layer_totals(spans: dict[str, np.ndarray], names: list[str], reports: list[int]) -> dict[str, dict[str, float]]:
    """Per traced name, over the given reports: calls, self time, work,
    distinct calls and errors."""
    mask = np.isin(spans["report"], np.asarray(reports, dtype=np.int32))
    ids = spans["name"][mask]
    count = len(names)
    calls = np.bincount(ids, minlength=count)
    self_s = np.bincount(ids, weights=spans["self"][mask], minlength=count)
    work = np.bincount(ids, weights=spans["work"][mask].astype(np.float64), minlength=count)
    new = np.bincount(ids, weights=spans["new"][mask].astype(np.float64), minlength=count)
    errors = np.bincount(ids, weights=spans["error"][mask].astype(np.float64), minlength=count)
    return {
        name: {
            "calls": float(calls[i]),
            "self_s": float(self_s[i]),
            "work": float(work[i]),
            "distinct": float(new[i]),
            "errors": float(errors[i]),
        }
        for i, name in enumerate(names)
    }
