"""Tracing of one thetacomb process from outside the package.

``Tracer.install`` wraps the public functions listed below.  Each wrapper
replaces the function in every ``thetacomb.*`` module namespace that holds
it, so calls made inside the defining module are seen too, and it sits
outside any ``lru_cache`` so that cache hits are counted; hit ratios come
from ``cache_info()`` of the original function.  Only public names are
touched: a function that no longer exists is reported as missing and its
metrics read 0.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written with the process's query id when the process ends.  A function
that calls itself adds to its call count but opens no new span.  Hot
leaves get a plain call counter and no span.

``summarize`` turns the trace files of one pass into per-layer metrics.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter_ns

# span name -> (module, attribute); the layer is the part before the dot
SPANNED = {
    "trees.enumerate_trees": ("thetacomb.trees", "enumerate_trees"),
    "trees.enumerate_pruned": ("thetacomb.trees", "enumerate_pruned"),
    "gamma.h_pi_act": ("thetacomb.gamma", "h_pi_act"),
    "theta.hom_theta": ("thetacomb.theta", "hom_theta"),
    "theta.is_face": ("thetacomb.theta", "is_face"),
    "theta.codim1_retractions": ("thetacomb.theta", "codim1_retractions"),
    "theta.compose_theta": ("thetacomb.theta", "compose_theta"),
    "theta.reedy_factor": ("thetacomb.theta", "reedy_factor"),
    "presheaf.chain_complex": ("thetacomb.presheaf", "chain_complex"),
    "presheaf.reduce_element": ("thetacomb.presheaf", "reduce_element"),
    "presheaf.gf2_rank": ("thetacomb.presheaf", "gf2_rank"),
    "presheaf.homology_f2": ("thetacomb.presheaf", "homology_f2"),
    "presheaf.oracle_multisimplicial": ("thetacomb.presheaf", "oracle_multisimplicial"),
    "presheaf.cell_census": ("thetacomb.presheaf", "cell_census"),
    "counting.fib_numbers": ("thetacomb.counting", "fib_numbers"),
    "counting.gf_coefficients": ("thetacomb.counting", "gf_coefficients"),
    "counting.euler_char": ("thetacomb.counting", "euler_char"),
    "cli.main": ("thetacomb.cli", "main"),
}
# hot leaves: call counts only
COUNTED = {
    "simplex.compose_delta": ("thetacomb.simplex", "compose_delta"),
    "simplex.hom_delta": ("thetacomb.simplex", "hom_delta"),
    "gamma.compose_gamma": ("thetacomb.gamma", "compose_gamma"),
    "theta.gamma_n": ("thetacomb.theta", "gamma_n"),
}
# the verify suites are wrapped where the CLI finds them, in verify.SUITES
VERIFY_SUITES = ("wreath-laws", "factorization", "gamma-functor", "chain", "counts")
OPERATOR_CLASS = ("thetacomb.theta", "ThetaOperator")
# time spent counting pruned trees for trees.pruned_yield, kept out of
# every program span's self time
HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self, query_id: int):
        self.query_id = query_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.totals: dict[str, int] = {}
        self.cached: dict[str, tuple] = {}
        self.missing: list[str] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.stack: list[tuple[int, int]] = [(-1, -1)]  # (name id, span index)
        self.t0 = perf_counter_ns()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _add(self, key: str, amount: int) -> None:
        self.totals[key] = self.totals.get(key, 0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][1])
        self.span_end.append(0)
        self.span_start.append(perf_counter_ns() - self.t0)
        return idx

    def _spanned(self, name: str, orig, hook=None):
        nid = self._name_id(name)
        calls, stack, span_end, t0 = self.calls, self.stack, self.span_end, self.t0
        open_span = self._open

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if stack[-1][0] == nid:
                return orig(*args, **kwargs)
            idx = open_span(nid)
            stack.append((nid, idx))
            try:
                result = orig(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter_ns() - t0
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counted(self, name: str, orig):
        nid = self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _safe_hook(self, name: str, body):
        """A result hook that turns itself off, and is reported missing,
        the first time the program's signature no longer fits it."""
        state = {"on": True}

        def hook(args, result):
            if not state["on"]:
                return
            try:
                body(args, result)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                state["on"] = False
                self.missing.append(f"{name} result hook ({exc!r})")

        return hook

    def _hooks(self) -> dict:
        is_pruned = getattr(importlib.import_module("thetacomb.trees"), "is_pruned", None)
        hook_id = self._name_id(HOOK_SPAN)
        names, stack, span_end, t0 = self.names, self.stack, self.span_end, self.t0

        def enumerate_trees(args, result):
            self._add("trees.enumerate_trees.out", len(result))
            if is_pruned is None or not any(
                nid >= 0 and names[nid] == "presheaf.cell_census" for nid, _ in stack
            ):
                return
            idx = self._open(hook_id)
            n = args[0]
            self._add("trees.census_trees", len(result))
            self._add("trees.census_pruned", sum(1 for t in result if is_pruned(t, n)))
            span_end[idx] = perf_counter_ns() - t0

        def reduce_element(args, result):
            self._add("presheaf.reduce_element.kept", result[0].edges == args[1].edges)

        hooks = {
            "trees.enumerate_trees": enumerate_trees,
            "trees.enumerate_pruned":
                lambda args, result: self._add("trees.enumerate_pruned.out", len(result)),
            "theta.hom_theta":
                lambda args, result: self._add("theta.hom_theta.ops_out", len(result)),
            "theta.is_face":
                lambda args, result: self._add("theta.is_face.accepted", bool(result)),
            "presheaf.reduce_element": reduce_element,
            "presheaf.gf2_rank":
                lambda args, result: self._add("presheaf.gf2_rank.rows", len(args[0])),
            "presheaf.chain_complex": lambda args, result: self._add(
                "presheaf.basis_cells", sum(len(layer) for layer in result.basis)),
        }
        return {name: self._safe_hook(name, body) for name, body in hooks.items()}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "thetacomb" or name.startswith("thetacomb."))]
        hooks = self._hooks()

        def rebind(orig, wrapper) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for name, (module_name, attr) in table.items():
                orig = getattr(importlib.import_module(module_name), attr, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                if spanned:
                    wrapper = self._spanned(name, orig, hooks.get(name))
                else:
                    wrapper = self._counted(name, orig)
                if hasattr(orig, "cache_info"):
                    self.cached[name] = (orig, orig.cache_info())
                rebind(orig, wrapper)

        suites = getattr(importlib.import_module("thetacomb.verify"), "SUITES", {})
        for suite in VERIFY_SUITES:
            name = f"verify.{suite}"
            if suite in suites:
                suites[suite] = self._spanned(name, suites[suite])
            else:
                self.missing.append(name)

        module_name, attr = OPERATOR_CLASS
        cls = getattr(importlib.import_module(module_name), attr, None)
        if cls is None:
            self.missing.append("theta.operators_built")
        else:
            cls.__init__ = self._counted("theta.operators_built", cls.__init__)

    def write(self, path: str, import_s: float) -> None:
        cache = {}
        for name, (orig, before) in self.cached.items():
            after = orig.cache_info()
            cache[name] = [after.hits - before.hits, after.misses - before.misses]
        header = {
            "query_id": self.query_id,
            "import_s": import_s,
            "names": self.names,
            "calls": dict(zip(self.names, self.calls)),
            "totals": self.totals,
            "cache": cache,
            "missing": self.missing,
            "spans": len(self.span_start),
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(f)


def read_trace(path: str) -> dict:
    """A trace file as its header plus the span columns."""
    with open(path, "rb") as f:
        doc = json.loads(f.readline())
        columns = []
        for _ in range(4):
            column = array("q")
            column.fromfile(f, doc["spans"])
            columns.append(column)
    doc["span_name"], doc["span_start"], doc["span_end"], doc["span_parent"] = columns
    return doc


def self_times(doc: dict) -> dict[str, float]:
    """Seconds of self time per span name in one trace."""
    names, start, end, parent = (doc["span_name"], doc["span_start"],
                                 doc["span_end"], doc["span_parent"])
    child = [0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    out: dict[str, float] = {}
    for i in range(len(start)):
        name = doc["names"][names[i]]
        out[name] = out.get(name, 0) + (end[i] - start[i] - child[i])
    return {name: ns / 1e9 for name, ns in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> unit; every one is reported, at 0 when never reached
PER_LAYER_UNITS = {
    "trees.enumerate_trees.self_s": "s",
    "trees.enumerate_trees.calls": "count",
    "trees.enumerate_trees.out": "count",
    "trees.enumerate_pruned.self_s": "s",
    "trees.enumerate_pruned.out": "count",
    "trees.pruned_yield": "ratio",
    "trees.self_s": "s",
    "simplex.compose_delta.calls": "count",
    "simplex.hom_delta.calls": "count",
    "gamma.h_pi_act.self_s": "s",
    "gamma.h_pi_act.calls": "count",
    "gamma.compose_gamma.calls": "count",
    "gamma.self_s": "s",
    "theta.hom_theta.self_s": "s",
    "theta.hom_theta.calls": "count",
    "theta.hom_theta.hit_ratio": "ratio",
    "theta.hom_theta.ops_out": "count",
    "theta.is_face.self_s": "s",
    "theta.is_face.calls": "count",
    "theta.is_face.accept_ratio": "ratio",
    "theta.codim1_retractions.self_s": "s",
    "theta.codim1_retractions.calls": "count",
    "theta.compose_theta.self_s": "s",
    "theta.compose_theta.calls": "count",
    "theta.reedy_factor.self_s": "s",
    "theta.reedy_factor.calls": "count",
    "theta.gamma_n.calls": "count",
    "theta.gamma_n.hit_ratio": "ratio",
    "theta.operators_built": "count",
    "theta.self_s": "s",
    "presheaf.chain_complex.self_s": "s",
    "presheaf.reduce_element.self_s": "s",
    "presheaf.reduce_element.calls": "count",
    "presheaf.reduce_element.kept_ratio": "ratio",
    "presheaf.gf2_rank.self_s": "s",
    "presheaf.gf2_rank.rows": "count",
    "presheaf.homology_f2.calls": "count",
    "presheaf.oracle_multisimplicial.self_s": "s",
    "presheaf.cell_census.self_s": "s",
    "presheaf.basis_cells": "count",
    "presheaf.self_s": "s",
    "counting.fib_numbers.self_s": "s",
    "counting.gf_coefficients.self_s": "s",
    "counting.euler_char.self_s": "s",
    **{f"verify.{suite}.self_s": "s" for suite in VERIFY_SUITES},
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_x": "ratio",
}
LAYERS = ("trees", "gamma", "theta", "presheaf")


def summarize(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the traces of its processes;
    counts and times are summed over the processes, cli.import_s is the
    median import time of one process.  trace.* is left to the caller."""
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    cache: dict[str, list[int]] = {}
    for doc in docs:
        for name, value in self_times(doc).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for src, dst in ((doc["calls"], calls), (doc["totals"], totals)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
        for name, (hits, misses) in doc["cache"].items():
            acc = cache.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    out = {}
    for metric in PER_LAYER_UNITS:
        base, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = selfs.get(base, 0.0)
        elif field == "calls":
            out[metric] = calls.get(base, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
    for name in ("theta.hom_theta", "theta.gamma_n"):
        hits, misses = cache.get(name, (0, 0))
        out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    out["theta.operators_built"] = calls.get("theta.operators_built", 0)
    out["theta.is_face.accept_ratio"] = _ratio(
        totals.get("theta.is_face.accepted", 0), calls.get("theta.is_face", 0))
    out["presheaf.reduce_element.kept_ratio"] = _ratio(
        totals.get("presheaf.reduce_element.kept", 0), calls.get("presheaf.reduce_element", 0))
    out["trees.pruned_yield"] = _ratio(
        totals.get("trees.census_pruned", 0), totals.get("trees.census_trees", 0))
    for name in ("trees.enumerate_trees.out", "trees.enumerate_pruned.out",
                 "theta.hom_theta.ops_out", "presheaf.gf2_rank.rows", "presheaf.basis_cells"):
        out[name] = totals.get(name, 0)
    out["cli.import_s"] = statistics.median(doc["import_s"] for doc in docs) if docs else 0.0
    return out
