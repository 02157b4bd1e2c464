"""lamgraph benchmark: one command, three workloads.

    python3 bench/run.py --workload {maxshare,equiv,maxshare_ho} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` and the command-line tool runs as ``python -m lamgraph.cli``
with ``PYTHONPATH=src``.  The load is a closed loop: one process, one
thread, one op at a time, and command-line subprocesses one at a time.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Reports, span dumps and
command-line inputs go to ``.bench_out/`` in the checkout.

Times are calibrated, because the machines this runs on change speed
within a run: in-process times against a fixed kernel timed between
ops (see ``calibrate.py``), subprocess times against a baseline
process run after each.  The wall-clock figures are printed and saved
as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
CLI_PER_PASS = 3
IMPORT_RUNS = 7
MIN_PASSES = 3
SUBPROCESS_TIMEOUT_S = 60
# Each command-line run is followed by this baseline process: a fresh
# interpreter importing the standard modules the package imports.  The
# run's CPU time over the baseline's, times BASELINE_REFERENCE_NS, is the
# calibrated command time; BASELINE_REFERENCE_NS only fixes the unit.
BASELINE = [sys.executable, "-c", "import argparse, dataclasses, enum, json, random, re, typing"]
BASELINE_REFERENCE_NS = 110e6
# Blocks of calibration kernel samples go before and after each set-up
# round, and between every CAL_EVERY ops of a pass.
CAL_SAMPLES = 8
CAL_EVERY = 10

# Span names whose summed self time per corpus pass is reported as
# ``<name>.ms``.  ``translate.postcheck`` is a probe that groups its
# replayed checks, so its inclusive time is reported instead.
SELF_MS = (
    "terms.parse_term",
    "translate.term_to_graph",
    "delimited.from_graph",
    "delimited.is_eager_scope",
    "sharing.collapse",
    "sharing.coarsest_partition",
    "sharing.are_bisimilar",
    "sharing.max_share_ho",
    "core.isomorphic",
    "transforms.scope_to_prefix",
    "transforms.insert_delimiters",
    "transforms.strip_delimiters",
    "transforms.prefix_to_scope",
    "scoped.ScopedGraph.checked",
    "textfmt.parse_graph",
    "textfmt.serialize_graph",
)
INCLUSIVE_MS = ("translate.postcheck",)
CALLS = ("terms.parse_term", "translate.term_to_graph", "sharing.collapse")
MODULES = ("terms", "translate", "delimited", "scoped", "transforms", "sharing", "textfmt", "core")
COUNTS = {
    "terms.nodes": "count",
    "core.vertices.input": "count",
    "core.vertices.delimited": "count",
    "core.vertices.quotient": "count",
    "transforms.delimiters": "count",
    "scoped.prefix_len_total": "count",
    "scoped.scope_size_total": "count",
    "textfmt.bytes": "bytes",
}


class Checker:
    """Counts attempted and failed ops.  An op fails if it raises or if
    its output differs from the last output that passed the workload's
    reference check and fails that check itself."""

    def __init__(self, workload):
        self.workload = workload
        self.passed: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, fn, op) -> int:
        """Run one op and check its output; returns the op's wall time
        in nanoseconds, checking excluded."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = fn(op)
        except Exception:
            elapsed = time.perf_counter_ns() - t0
            self.fail(f"op {op.id} ({op.family} {op.size}) raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter_ns() - t0
        if out != self.passed.get(op.id):
            if self.workload.check(op, out):
                self.passed[op.id] = out
            else:
                self.fail(f"op {op.id} ({op.family} {op.size}) failed its reference check")
        return elapsed

    def fail(self, message: str) -> None:
        if not self.failed:
            print(message, file=sys.stderr)
        self.failed += 1


def import_lamgraph():
    for name in [m for m in sys.modules if m == "lamgraph" or m.startswith("lamgraph.")]:
        del sys.modules[name]
    return importlib.import_module("lamgraph")


def setup(workload, seed: int, repeats: int, cal: Calibrator):
    """Import plus input generation, ``repeats`` times.  Returns the last
    round's module and corpus, and the median time in seconds,
    calibrated and as measured."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    raw, times = [], []
    for _ in range(repeats):
        # Each round starts from a collected heap, so no round pays for
        # collecting the modules an earlier round dropped.
        gc.collect()
        before = cal.block(CAL_SAMPLES)
        t0 = time.perf_counter_ns()
        lib = import_lamgraph()
        corpus = workload.corpus(random.Random(seed))
        raw.append(time.perf_counter_ns() - t0)
        times.append(raw[-1] * cal.scale(before, cal.block(CAL_SAMPLES)))
    return lib, corpus, statistics.median(times) / 1e9, statistics.median(raw) / 1e9


def one_pass(fn, corpus, checker: Checker, cal: Calibrator) -> tuple[list[int], list[float]]:
    """Wall time of every op and its calibration scale, from the blocks
    of kernel samples taken before and after each run of CAL_EVERY ops."""
    times, medians = [], []
    for i, op in enumerate(corpus):
        if i % CAL_EVERY == 0:
            medians.append(cal.block(CAL_SAMPLES))
        times.append(checker.run(fn, op))
    medians.append(cal.block(CAL_SAMPLES))
    scales = [cal.scale(medians[i // CAL_EVERY], medians[i // CAL_EVERY + 1])
              for i in range(len(corpus))]
    return times, scales


def keep_going(start: float, passes: int, seconds: float, minimum: int) -> bool:
    # Start another pass only if it is expected to end within the budget.
    elapsed = time.perf_counter() - start
    return passes < minimum or elapsed * (passes + 1) / passes <= seconds


def untraced(workload, lib, corpus, seconds: float, checker: Checker, cal: Calibrator,
             between=lambda: None):
    """Per-op samples in calibrated and in wall nanoseconds.  ``between``
    runs after each timed pass."""
    fn = lambda op: workload.run(lib, op)  # noqa: E731
    one_pass(fn, corpus, checker, cal)  # warm-up: fills caches, checks every output once
    samples = [[] for _ in corpus]
    wall = [[] for _ in corpus]
    start = time.perf_counter()
    passes = 0
    while not passes or keep_going(start, passes, seconds, MIN_PASSES):
        times, scales = one_pass(fn, corpus, checker, cal)
        for i, (t, scale) in enumerate(zip(times, scales)):
            samples[i].append(t * scale)
            wall[i].append(t)
        between()
        passes += 1
    return samples, wall


@contextlib.contextmanager
def pinned():
    """Keep this process, and the subprocesses it starts, on one
    processor, so that a command and the baseline process that
    calibrates it run on the same one."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Commands:
    """The workload's command on a fixed small subset of its inputs, run
    as subprocesses one at a time.  ``times`` holds calibrated CPU time
    (user + system) and ``wall`` wall time, in nanoseconds.

    The command is single-threaded and does no waiting of its own, so on
    an idle machine the two agree.  On a shared one the wall time also
    holds waits for a processor, which come from other tenants and made
    single runs up to twice as slow, so the metric uses CPU time.  The
    in-process kernel follows the cost of starting a process poorly, so
    each run is calibrated against the BASELINE process run after it.
    Runs are spread over the whole measurement, a few after each corpus
    pass."""

    def __init__(self, workload, corpus, checker: Checker):
        self.workload, self.checker = workload, checker
        folder = OUT / f"cli-{workload.name}"
        folder.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for i, (argv, op) in enumerate(workload.cli_cases(corpus)):
            files = []
            for j, text in enumerate(op.inputs):
                path = folder / f"case{i}-{j}.txt"
                path.write_text(text)
                files.append(str(path))
            self.cases.append(([sys.executable, "-m", "lamgraph.cli", *argv, *files], op))
        self.env = cli_env()
        self.times: list[float] = []
        self.wall: list[int] = []

    def run(self, runs: int) -> None:
        with pinned():
            for _ in range(runs):
                cmd, op = self.cases[len(self.times) % len(self.cases)]
                self.checker.attempted += 1
                t0 = time.perf_counter_ns()
                proc, cpu_ns = child_cpu_ns(cmd, self.env)
                self.wall.append(time.perf_counter_ns() - t0)
                self.times.append(cpu_ns * baseline_scale(self.env))
                if not self.workload.check_cli(op, proc.returncode, proc.stdout):
                    self.checker.fail(
                        f"command {cmd[3:]} gave exit {proc.returncode}:\n{proc.stderr}")


def baseline_scale(env: dict) -> float:
    """Factor from a subprocess's time just now to calibrated time."""
    return BASELINE_REFERENCE_NS / child_cpu_ns(BASELINE, env)[1]


def child_cpu_ns(cmd: list[str], env: dict):
    """Run a subprocess to completion; its result and CPU time (user +
    system) in nanoseconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, cpu_s * 1e9


def import_ms(runs: int) -> float:
    """Import time of the package in a fresh interpreter, calibrated
    like the command-line runs."""
    code = ("import time; t = time.process_time_ns(); import lamgraph; "
            "print(time.process_time_ns() - t)")
    env = cli_env()
    times = []
    with pinned():
        for _ in range(runs):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S, check=True)
            times.append(int(proc.stdout) * baseline_scale(env))
    return statistics.median(times) / 1e6


def scaling(corpus, per_op_ms: list[float]) -> dict:
    """Median op time per family and size, and the exponent of a
    least-squares fit of log time on log size.  Informational only."""
    groups: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for op, ms in zip(corpus, per_op_ms):
        groups[op.family][op.size].append(ms)
    report = {}
    for family, by_size in sorted(groups.items()):
        medians = {n: statistics.median(v) for n, v in sorted(by_size.items())}
        exponent = None
        if len(medians) >= 2:
            xs = [math.log(n) for n in medians]
            ys = [math.log(m) for m in medians.values()]
            exponent = statistics.linear_regression(xs, ys).slope
        report[family] = {"median_ms": medians, "exponent": exponent}
    return report


def latency(samples: list[list[float]], ops: int) -> tuple[float, float, float]:
    """p50 and p95 over ops of each op's median time in ms, and ops per
    second over the corpus from the per-op medians."""
    per_op = [statistics.median(s) / 1e6 for s in samples]
    p95 = statistics.quantiles(per_op, n=20, method="inclusive")[18]
    return statistics.median(per_op), p95, ops / (sum(per_op) / 1e3)


def end_to_end(workload, lib, corpus, seconds, checker, cal, cli_per_pass, setup_s):
    commands = Commands(workload, corpus, checker)
    samples, wall = untraced(workload, lib, corpus, seconds, checker, cal,
                             between=lambda: commands.run(cli_per_pass))
    cli, cli_wall = commands.times, commands.wall
    p50, p95, rate = latency(samples, len(corpus))
    metrics = {
        "op_ms_p50": (p50, "ms"),
        "op_ms_p95": (p95, "ms"),
        "ops_per_s": (rate, "1/s"),
        "cli_ms_p50": (statistics.median(cli) / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s[0], "s"),
    }
    wall_p50, wall_p95, wall_rate = latency(wall, len(corpus))
    extra = {
        "op_samples": sum(len(s) for s in samples),
        "ops_per_pass": len(corpus),
        "passes": len(samples[0]),
        "cli_samples": len(cli),
        "speed_scale": cal.speed_scale(),
        "wall": {"op_ms_p50": wall_p50, "op_ms_p95": wall_p95, "ops_per_s": wall_rate,
                 "cli_ms_p50": statistics.median(cli_wall) / 1e6, "setup_s": setup_s[1]},
        "scaling": scaling(corpus, [statistics.median(s) / 1e6 for s in samples]),
    }
    return metrics, extra


def per_layer(workload, lib, corpus, seconds, checker, cal, import_runs):
    """Alternate untraced and traced passes; report the median traced
    pass per layer, and the tracing overhead as traced minus untraced
    op time per pass."""
    fn = lambda op: workload.run(lib, op)  # noqa: E731
    one_pass(fn, corpus, checker, cal)
    tr = Tracer()
    plain, traced = [], []
    stats = Counter()
    start = time.perf_counter()
    while not traced or keep_going(start, len(traced), seconds, 2):
        times, scales = one_pass(fn, corpus, checker, cal)
        plain.append(sum(t * k for t, k in zip(times, scales)))
        first = len(tr.spans)
        stats = Counter()
        _, scales = one_pass(lambda op: workload.run_traced(lib, op, tr, stats),
                             corpus, checker, cal)
        traced.append(tr.summarize(first, {op.id: k for op, k in zip(corpus, scales)}))
    import_time = import_ms(import_runs)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    tr.write(spans_path)

    def med(kind: int, name: str) -> float:
        # Median over traced passes of the calibrated time in ms.
        return statistics.median(t[kind].get(name, 0) for t in traced) / 1e6

    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.ms"] = (med(0, name), "ms")
    for name in INCLUSIVE_MS:
        metrics[f"{name}.ms"] = (med(1, name), "ms")
    calls = traced[-1][2]
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for module in MODULES:
        n = sum(c for name, c in calls.items() if name.startswith(module + "."))
        metrics[f"{module}.calls"] = (n, "count")
    for name, unit in COUNTS.items():
        metrics[name] = (stats[name], unit)
    t2g = metrics["translate.term_to_graph.ms"][0]
    post = metrics["translate.postcheck.ms"][0]
    metrics["translate.postcheck_share"] = (post / t2g if t2g else 0.0, "ratio")
    shared = stats["collapse_in"]
    metrics["sharing.share_ratio"] = (
        stats["core.vertices.quotient"] / shared if shared else 0.0, "ratio")
    metrics["cli.import_ms"] = (import_time, "ms")
    overhead = med(1, "op") - statistics.median(plain) / 1e6
    metrics["bench.trace_overhead_ms"] = (overhead, "ms")
    extra = {"traced_passes": len(traced), "spans": len(tr.spans), "span_file": str(spans_path),
             "speed_scale": cal.speed_scale()}
    return metrics, extra


def benchmark(name: str, seed: int, seconds: float, trace: int, *, patch=None, subset=None,
              cli_per_pass: int = CLI_PER_PASS, setup_repeats: int = SETUP_REPEATS,
              import_runs: int = IMPORT_RUNS) -> tuple[dict, dict]:
    """Run one workload; returns the result object and extra report data.

    ``patch`` replaces the imported module (the self-tests plant wrong
    answers through it) and ``subset`` narrows the corpus.
    """
    workload = WORKLOADS[name]
    cal = Calibrator()
    lib, corpus, *setup_s = setup(workload, seed, 1 if trace else setup_repeats, cal)
    if patch is not None:
        lib = patch(lib)
    if subset is not None:
        corpus = subset(corpus)
    checker = Checker(workload)
    if trace:
        metrics, extra = per_layer(workload, lib, corpus, seconds, checker, cal, import_runs)
    else:
        metrics, extra = end_to_end(workload, lib, corpus, seconds, checker, cal,
                                    cli_per_pass, setup_s)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lamgraph" / "__init__.py").is_file():
        print(f"error: no lamgraph package under {SRC}", file=sys.stderr)
        return 2
    result, extra = benchmark(args.workload, args.seed, args.seconds, args.trace)

    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    for key, value in extra.items():
        if key != "scaling":
            print(f"{key} {value}")
    for family, row in extra.get("scaling", {}).items():
        sizes = " ".join(f"n={n}:{ms:.3g}ms" for n, ms in row["median_ms"].items())
        exponent = "-" if row["exponent"] is None else f"{row['exponent']:.2f}"
        print(f"scaling {family} {sizes} exponent {exponent}")
    OUT.mkdir(parents=True, exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"args": vars(args), **result, **extra}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
