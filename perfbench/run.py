"""The thetacomb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: every query starts a fresh
``python3 -m thetacomb.cli`` process with the inherited environment plus
PYTHONPATH=src, so the package is used uninstalled and every query pays a
cold start, as a CLI user does.  Each answer is checked by ``check.py``,
which never takes thetacomb's output as its reference.

--trace 0 makes whole passes over the workload's queries until the next
pass would end after S seconds (at least one pass), with SETUP_PROBES
trivial queries before each pass and after the last, and reports the
median over passes of:
  wall_s           wall time of one pass (sum of its queries' wall times)
  slowest_query_s  wall time of the pass's slowest query
  cpu_s            user + system CPU time of the pass's processes
  peak_rss_mb      largest maximum resident set of any process in the pass
  setup_s          (median over the probes) cold start of a trivial query
Times are scaled to the nominal speed of a reference workload timed just
before and after each query (see REFERENCE_NOMINAL_S); the unscaled
medians are printed too.  The benchmark pins itself and its children to
one CPU, so the reference times the CPU the queries run on.

--trace 1 runs pairs of an untraced pass and a traced pass (each query
under traced_child.py) on the same order, as many as fit in S seconds
(at least one), and reports the median over pairs of the per-layer
metrics listed in tracer.PER_LAYER_UNITS.  End-to-end numbers never come
from traced processes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give the machine,
the seed and every metric by name, with failed_frac.  Exits 2 without a
result when there is no thetacomb source tree under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import check
from tracer import PER_LAYER_UNITS, read_trace, summarize
from workloads import SETUP_QUERY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# setup probes before every pass and after the last, so that they sample
# the machine over the whole run
SETUP_PROBES = 3
# The machine's speed drifts by up to 2x over tens of seconds (a shared
# host), so each query's times are scaled by REFERENCE_NOMINAL_S over the
# time a fixed reference workload took around it, measured on the same
# CPU.  REFERENCE_NOMINAL_S is the reference's typical time on a 2-vCPU
# Xeon with Python 3.11, so scaled times read close to wall seconds there.
REFERENCE_ROUNDS = 1000
REFERENCE_NOMINAL_S = 0.24
# stop starting work after this long, well inside the 180 s a run may take
RUN_LIMIT_S = 150.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "slowest_query_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class QueryResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    trace_path: str | None
    # the reference workload's time, mean of the runs just before and after
    reference_s: float

    def scaled(self, seconds: float) -> float:
        """seconds at the reference's nominal speed"""
        return seconds * REFERENCE_NOMINAL_S / self.reference_s


def reference_s() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind the
    program does (tuples, dict inserts, integer arithmetic).  It allocates
    little, so it does not inflate the ru_maxrss that children inherit."""
    start = time.perf_counter()
    total = 0
    for _ in range(REFERENCE_ROUNDS):
        table = {}
        for i in range(1000):
            table[(i, i & 7)] = (i * 7919) % 1013
        for value in table.values():
            total += value
    return time.perf_counter() - start


class Bench:
    """Runs queries one at a time, checks them and keeps the tally."""

    def __init__(self, tmp: str, hard_deadline: float):
        self.tmp = tmp
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self._next_id = 0
        self._last_reference = reference_s()

    def query(self, argv: tuple[str, ...], traced: bool = False) -> QueryResult:
        qid = self._next_id
        self._next_id += 1
        base = os.path.join(self.tmp, f"q{qid}")
        trace_path = base + ".trace" if traced else None
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_child.py"),
                   trace_path, str(qid), *argv]
        else:
            cmd = [sys.executable, "-m", "thetacomb.cli", *argv]
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        wall, usage, code = self._spawn(cmd, base + ".out", base + ".err", timeout)
        before, self._last_reference = self._last_reference, reference_s()
        with open(base + ".out", encoding="utf-8", errors="replace") as f:
            error = check.check_answer(argv, code, f.read())
        if error is None and traced and not os.path.exists(trace_path):
            error = "no trace written"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            with open(base + ".err", encoding="utf-8", errors="replace") as f:
                tail = f.read()[-400:]
            print(f"perfbench: FAILED {' '.join(argv)}: {error}\n{tail}", file=sys.stderr)
        return QueryResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                           error, trace_path, (before + self._last_reference) / 2)

    def _spawn(self, cmd: list[str], out_path: str, err_path: str, timeout: float):
        """Run cmd to completion; wall time, resource usage and exit code.
        The child is killed if it outlives the timeout."""
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode

    def run_pass(self, queries: list[tuple[str, ...]], traced: bool = False) -> list[QueryResult]:
        return [self.query(q, traced) for q in queries]


def _passes_fit(started: float, seconds: float, hard_deadline: float, durations: list[float]) -> bool:
    """Whether one more pass, as long as the median one so far, ends in time."""
    now = time.perf_counter()
    expected = statistics.median(durations)
    return now - started + expected <= seconds and now + expected <= hard_deadline


def _pass_row(results: list[QueryResult]) -> dict[str, float]:
    row = {}
    for prefix, scale in (("", QueryResult.scaled), ("unscaled_", lambda r, v: v)):
        row[prefix + "wall_s"] = sum(scale(r, r.wall_s) for r in results)
        row[prefix + "slowest_query_s"] = max(scale(r, r.wall_s) for r in results)
        row[prefix + "cpu_s"] = sum(scale(r, r.cpu_s) for r in results)
    row["peak_rss_mb"] = max(r.rss_mb for r in results)
    return row


def end_to_end(bench: Bench, workload, seed: int, seconds: float) -> dict[str, float]:
    rng = random.Random(seed)
    started = time.perf_counter()
    setup: list[QueryResult] = []
    rows: list[dict[str, float]] = []
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        setup += [bench.query(SETUP_QUERY) for _ in range(SETUP_PROBES)]
        results = bench.run_pass(workload.order(seed, rng))
        durations.append(time.perf_counter() - t)
        rows.append(_pass_row(results))
        print(f"# pass {len(rows)}: " + " ".join(f"{k}={v:.4f}" for k, v in rows[-1].items()))
        if not _passes_fit(started, seconds, bench.hard_deadline, durations):
            break
    setup += [bench.query(SETUP_QUERY) for _ in range(SETUP_PROBES)]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["setup_s"] = statistics.median(r.scaled(r.wall_s) for r in setup)
    metrics["unscaled_setup_s"] = statistics.median(r.wall_s for r in setup)
    print(f"# {len(rows)} passes of {len(results)} queries, {len(setup)} setup probes")
    return metrics


def per_layer(bench: Bench, workload, seed: int, seconds: float) -> dict[str, float]:
    rng = random.Random(seed)
    started = time.perf_counter()
    rows: list[dict[str, float]] = []
    durations: list[float] = []
    missing: set[str] = set()
    while True:
        t = time.perf_counter()
        order = workload.order(seed, rng)
        plain = bench.run_pass(order)
        traced = bench.run_pass(order, traced=True)
        docs = [read_trace(r.trace_path) for r in traced if r.error is None]
        missing.update(name for doc in docs for name in doc["missing"])
        row = summarize(docs)
        row["trace.wall_s"] = sum(r.wall_s for r in traced)
        row["trace.overhead_x"] = (sum(r.scaled(r.wall_s) for r in traced)
                                   / sum(r.scaled(r.wall_s) for r in plain))
        rows.append(row)
        durations.append(time.perf_counter() - t)
        if not _passes_fit(started, seconds, bench.hard_deadline, durations):
            break
    for name in sorted(missing):
        print(f"perfbench: warning: not traced, metrics read 0: {name}", file=sys.stderr)
    print(f"# {len(rows)} pairs of an untraced and a traced pass of {len(order)} queries")
    return {name: statistics.median(row[name] for row in rows) for name in PER_LAYER_UNITS}


def machine(seed: int, workload: str, trace: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # queries and the reference workload share one CPU, so the reference
    # measures the CPU the queries ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "thetacomb", "cli.py")):
        print(f"perfbench: no thetacomb sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    print(f"# machine {json.dumps(machine(args.seed, args.workload, args.trace))}")
    checker_faults = check.self_test()
    for fault in checker_faults:
        print(f"perfbench: checker self-test: {fault}", file=sys.stderr)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, str(os.getpid()))
    os.makedirs(tmp)
    try:
        bench = Bench(tmp, hard_deadline)
        workload = WORKLOADS[args.workload]
        if args.trace:
            values = per_layer(bench, workload, args.seed, args.seconds)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(bench, workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    for name, unit in units.items():
        print(f"{name:40s} {values[name]:.6g} {unit}")
    for name in values:
        if name.startswith("unscaled_"):
            print(f"{name:40s} {values[name]:.6g} s")
    print(f"{'failed_frac':40s} {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} queries)")
    result = {
        "correct": not checker_faults and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
