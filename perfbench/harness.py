"""Benchmark harness: set-up probes, timed passes, checks, metrics, report.

One workload runs in one process, as a closed loop with a single caller:
each operation starts when the previous one has returned. Passes repeat,
each on fresh inputs, until ``--seconds`` have gone by (at least one pass).
With ``--trace 1`` the run then repeats pass 0 with the layer wrappers of
:mod:`tracing` installed and reports the per-layer figures of that pass.

Every figure printed is defined in END_TO_END or PER_LAYER below; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import chanleak
import chanleak.cli  # noqa: F401  (the CLI module is reached as chanleak.cli)

from tracing import Tracer
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUP_PROBES = 9
# Passes continue until --seconds have gone by and at least MIN_PASSES are
# done, so that one slow pass cannot move the median pass time; no pass
# starts after PASS_DEADLINE_S.
MIN_PASSES = 4
PASS_DEADLINE_S = 45.0

# name -> unit of every figure; README.md defines each one
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "core.read_csv_ms": "ms",
    "core.validate_ms": "ms",
    "core.calls": "count",
    "core.self_s": "s",
    "kernel.evals": "count",
    "kernel.s": "s",
    "kernel.us_per_eval": "us",
    "kernel.useful_frac": "ratio",
    "optim.calls": "count",
    "optim.iterations": "count",
    "optim.self_s": "s",
    "optim.uncertified_calls": "count",
    "optim.worst_gap": "nats",
    "concave.calls": "count",
    "concave.self_s": "s",
    "closed.calls": "count",
    "closed.s": "s",
    "closed.p50_ms": "ms",
    "closed.peak_alloc_mb": "MiB",
    "closed.computed_mb": "MiB-computed",
    "capacity.calls": "count",
    "capacity.s": "s",
    "oracle.calls": "count",
    "oracle.grid_s": "s",
    "oracle.definitional_s": "s",
    "cli.verify_ms": "ms",
    "cli.sweep_ms": "ms",
    "cli.compute_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Run:
    """Counts and timings of one workload run."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pass_seconds: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.uncertified = 0
        self.failures: list[str] = []
        self.slowest = (0.0, "")

    def build(self, pass_index: int):
        inputs = self.workload.inputs(self.seed, pass_index, self.workdir)
        return self.workload.ops(chanleak, self.workload.build(chanleak, inputs))

    def timed_pass(self, ops, tracer: Tracer | None = None) -> float:
        """Run the operations back to back, then check every output."""
        results = []
        gc.collect()  # start each pass from the same collector state
        start = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{k}"
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # the operation's failure is its output
                result = exc
            latency = time.perf_counter() - t0
            self.latencies.append(latency)
            self.slowest = max(self.slowest, (latency, op.label))
            results.append(result)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False  # the checks below are not the workload's calls
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                outcome = Outcome(True, detail=f"raised {type(result).__name__}: {result}")
            else:
                try:
                    outcome = op.check(result)
                except Exception as exc:  # a malformed output fails its check
                    outcome = Outcome(True, detail=f"check raised {type(exc).__name__}: {exc}")
            self.attempted += 1
            self.failed += outcome.failed
            self.uncertified += outcome.uncertified
            if outcome.failed and len(self.failures) < 20:
                self.failures.append(f"{op.label}: {outcome.detail}")
        return seconds


def _probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to ready, input generation excluded."""
    src = Path(chanleak.__file__).resolve().parent.parent
    argv = [sys.executable, str(HERE / "probe.py"), str(src), name, str(seed), str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        if child.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {child.returncode}")
    return ready - start - json.loads(line)["generation_s"]


def _tail(latencies: list[float], level: float) -> tuple[float, int]:
    """Nearest-rank percentile at ``level`` and the count of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(level * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _warm_up() -> None:
    """Touch each code path once on a tiny channel so lazy set-up is not timed."""
    channel = chanleak.validate_channel([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    config = chanleak.OptimizerConfig(tolerance=1e-8)
    chanleak.maximal_alpha_beta_leakage(channel, chanleak.OrderPair(2.0, 1.0), config)
    chanleak.maximal_alpha_beta_leakage(channel, chanleak.OrderPair(2.0, 3.0), config)
    chanleak.shannon_capacity(channel)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Run one workload and return the result object printed on the last line."""
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(workload, seed, workdir)
        setup = statistics.median(_probe_setup(name, seed, workdir / "probe") for _ in range(SETUP_PROBES))
        _warm_up()
        min_passes = MIN_PASSES if seconds > 0 else 1
        started = time.perf_counter()
        while True:
            run.pass_seconds.append(run.timed_pass(run.build(len(run.pass_seconds))))
            elapsed = time.perf_counter() - started
            if elapsed >= PASS_DEADLINE_S or (elapsed >= seconds and len(run.pass_seconds) >= min_passes):
                break
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p50 = statistics.median(run.latencies)
        tail, beyond = _tail(run.latencies, workload.tail_level)
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(run.pass_seconds),
            "op_p50_ms": 1e3 * p50,
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": peak_rss,
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
            "wall_s": f"median of {len(run.pass_seconds)} passes of {len(run.latencies) // len(run.pass_seconds)} ops",
            "op_p50_ms": f"{len(run.latencies)} ops",
            "op_tail_ms": f"p{100 * workload.tail_level:g}, {beyond} of {len(run.latencies)} ops beyond; "
                          f"slowest {run.slowest[1]} at {1e3 * run.slowest[0]:.0f} ms",
        }
        attempted, failed, uncertified = run.attempted, run.failed, run.uncertified
        print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
              f"blas_threads {os.environ.get('OPENBLAS_NUM_THREADS', '?')}  "
              f"passes {len(run.pass_seconds)}  ops {attempted}", file=out)
        for key, value in values.items():
            print(f"  {key:<18} {value:>12.4f} {END_TO_END[key]:<5} {notes.get(key, '')}", file=out)
        print(f"  {'uncertified_frac':<18} {uncertified / attempted:>12.4f} {'ratio':<5} "
              f"{uncertified} of {attempted} ops missed the requested certificate", file=out)
        print(f"  {'failed_frac':<18} {failed / attempted:>12.4f} {'ratio':<5} "
              f"{failed} of {attempted} ops failed", file=out)
        metrics = {key: (value, END_TO_END[key]) for key, value in values.items()}

        if trace:
            metrics = _traced_pass(run, name, seed, out)
            attempted, failed = run.attempted, run.failed
        for failure in run.failures:
            print(f"  FAILED {failure}", file=out)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_pass(run: Run, name: str, seed: int, out) -> dict:
    """Repeat pass 0 with the layer wrappers installed; return the per-layer figures."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.op = "build"
        ops = run.build(0)
        traced_seconds = run.timed_pass(ops, tracer)
    finally:
        tracer.restore()
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = traced_seconds / run.pass_seconds[0] - 1.0
    spans_file = WORK / f"trace-{name}-seed{seed}.csv"
    tracer.write_spans(spans_file)
    print(f"traced pass 0: {len(tracer.spans)} spans written to {spans_file.relative_to(HERE.parent)}", file=out)
    if tracer.absent:
        print(f"  absent entry points (their figures read 0): {', '.join(tracer.absent)}", file=out)
    for key, value in values.items():
        print(f"  {key:<24} {value:>14.6g} {PER_LAYER[key]}", file=out)
    return {key: (value, PER_LAYER[key]) for key, value in values.items()}


def _run_all(args, out) -> int:
    """Each workload in its own process, so memory peaks do not carry over."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), file=out, flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results), file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="Run the chanleak benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"measure for at least this long and {MIN_PASSES} passes; 0 runs one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.workload == "all":
        return _run_all(args, sys.stdout)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
