#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload window --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Each repetition is a fresh interpreter (``workloads.py``), spawned
and reaped here, so wall time, CPU time and peak RSS are those of the
process that did the work.  Repetitions continue while the next one is
expected to end within half a repetition after ``--seconds``; at least one
always runs.

``--trace 0`` reports the end-to-end metrics: wall and CPU time per
repetition as the run's mean, median set-up time and peak RSS, and the
share of checks that passed.  The three times are speed-normalised: while
the repetitions run, a probe process (``probe.py``) keeps timing a fixed
slice of work of the benchmark's own on the spare core, and the run's times
are scaled by ``PROBE_REF_S`` over the mean slice time.  They read as
seconds on a machine where the slice takes ``PROBE_REF_S``, so a host that
slows for minutes under other tenants' load moves the probe and the
workload together and the metric much less.  ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer metrics from the
traced repetition of median wall time, plus the tracing overhead against
the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the same metrics for people, and the run's provenance.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, summarize  # noqa: E402
from workloads import ARITH_CRITERIA, WINDOW_SCRIPT, WORKLOADS  # noqa: E402

RUNS_DIR = HERE / ".runs"
RUN_LIMIT_S = 170.0  # a repetition still running then is killed and fails
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
BUDGET_ENV = "CUBESQUARES_MEMORY_BUDGET"
# Mean slice time of `probe.py` on a 2-core Intel Xeon virtual machine with
# Python 3.11; a fixed constant, so that normalised times of two commits
# compare directly.
PROBE_REF_S = 0.010

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "1",
}

# metric -> (kind, span names): "time" sums the inclusive seconds of the
# outermost spans of those names, "calls" counts the spans.
FUNCTION_METRICS = {
    "mainterm.J_s": ("time", ("mainterm.singular_integral_J",)),
    "mainterm.J_calls": ("calls", ("mainterm.singular_integral_J",)),
    "mainterm.conv4_s": ("time", ("mainterm.conv4_value",)),
    "mainterm.conv4_calls": ("calls", ("mainterm.conv4_value",)),
    "mainterm.rn_build_s": ("time", ("mainterm.RnEvaluator",)),
    "smooth.enumerate_s": ("time", ("smooth.enumerate_smooth",)),
    "smooth.enumerate_calls": ("calls", ("smooth.enumerate_smooth",)),
    "params.derive_calls": ("calls", ("params.derive_params",)),
    "weights.build_s": ("time", ("weights.build_weight_table",)),
    "oscillatory.v_kernel1d_s": ("time", ("oscillatory.osc_integral_v[kernel1d]",)),
    "oscillatory.v_cubature3d_s": ("time", ("oscillatory.osc_integral_v[cubature3d]",)),
    "oscillatory.v_calls": ("calls", ("oscillatory.osc_integral_v[kernel1d]", "oscillatory.osc_integral_v[cubature3d]")),
    "oscillatory.slot_calls": ("calls", ("oscillatory.plain_slot", "oscillatory.scaled_slot")),
    "census.run_s": ("time", ("census.run_census",)),
    "census.brute_s": ("time", ("census.brute_force_representable",)),
    "census.witness_s": ("time", ("census.witness_for",)),
    "cubesieve.sieve_s": ("time", ("cubesieve.sieve_cube_sums",)),
    "expsums.series_s": ("time", ("expsums.truncated_singular_series",)),
    "expsums.series_calls": ("calls", ("expsums.truncated_singular_series",)),
    "expsums.Sn_calls": ("calls", ("expsums.coefficient_Sn",)),
    "residues.t_square_distribution_s": ("time", ("residues.t_square_distribution",)),
    "w2.scan_s": ("time", ("w2.w2_scan",)),
    "w2.sum_squares_s": ("time", ("w2.w2_sum_squares",)),
    "localsolve.certificate_s": ("time", ("localsolve.hensel_certificate",)),
    "localsolve.certificate_calls": ("calls", ("localsolve.hensel_certificate",)),
    "localsolve.local_count_s": ("time", ("localsolve.local_count_Mn",)),
    "generating.eval_h_s": ("time", ("generating.eval_h",)),
    "generating.model_V_s": ("time", ("generating.model_V",)),
    **{f"acceptance.criterion_{k}_s": ("time", (f"acceptance.criterion_{k}",)) for k in ARITH_CRITERIA},
}
COUNTER_METRICS = ("mainterm.rn_terms", "weights.support_entries", "cubesieve.members")
FIGURE_METRICS = {"oscillatory.route_rel_err_max": "1", "census.E_count": "count"}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.uncovered_s": "s", "trace.wall_s": "s", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {name: "s" if kind == "time" else "count" for name, (kind, _) in FUNCTION_METRICS.items()}
    units.update({name: "count" for name in COUNTER_METRICS})
    units.update(FIGURE_METRICS)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(TRACE_METRICS)
    return units


@dataclass
class Rep:
    """One repetition: a fresh interpreter running the workload once."""

    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    setup: float
    checks: list
    figures: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    spans_path: Path | None = None


def child_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env.pop(BUDGET_ENV, None)  # the program's default budget
    return env


def run_child(root: Path, env: dict, workload: str, seed: int, spans_path: Path | None, deadline: float) -> Rep:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    # CLOCK_MONOTONIC is system-wide, so the child's set-up mark is comparable
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()  # the run is stopping: end the repetition too
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    wall = time.monotonic() - t0
    rep = Rep(
        traced=spans_path is not None,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup=wall,
        checks=[["process", False, f"exit code {proc.returncode}"]],
    )
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return rep
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        rep.checks = [["process", False, f"unreadable result line {lines[-1][:200]!r}"]]
        return rep
    rep.checks = doc["checks"] or [["checks", False, "no checks ran"]]
    rep.figures = doc["figures"]
    rep.env = doc["env"]
    if doc["setup_end"] is not None:
        rep.setup = doc["setup_end"] - t0
    rep.spans_path = spans_path
    return rep


class Prober:
    """The speed probe (``probe.py``), sampling in a process of its own from
    `start` until `stop`, which returns its mean slice time."""

    def __init__(self, env: dict):
        cmd = [sys.executable, str(HERE / "probe.py")]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def start(self) -> None:
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"speed probe failed to start, exit code {self.proc.wait()}")

    def stop(self) -> float:
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe ended with exit code {self.proc.wait()}")
        return float(line)

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            self.proc.kill()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[Rep], float]:
    """Repeat the workload while the next repetition should end no later than
    half a repetition after `seconds`, so that runs last `seconds` on
    average, and return the repetitions and the probe's mean slice time."""
    env = child_env(root, nproc())
    with Prober(env) as probe:
        probe.start()
        start = time.monotonic()
        reps: list[Rep] = []
        while True:
            traced = trace and len(reps) % 2 == 1
            spans_path = RUNS_DIR / f"{workload}-seed{seed}-rep{len(reps)}.json" if traced else None
            reps.append(run_child(root, env, workload, seed, spans_path, start + RUN_LIMIT_S))
            if trace and len(reps) < 2:
                continue
            next_traced = trace and len(reps) % 2 == 1
            walls = [r.wall for r in reps if r.traced == next_traced]
            if time.monotonic() - start + statistics.median(walls) / 2 > seconds:
                return reps, probe.stop()


def median_rep(reps: list[Rep]) -> Rep:
    ordered = sorted(reps, key=lambda r: r.wall)
    return ordered[(len(ordered) - 1) // 2]


def end_to_end_metrics(reps: list[Rep], slice_s: float, attempted: int, failed: int) -> dict[str, float]:
    scale = PROBE_REF_S / slice_s  # from this run's seconds to the reference machine's
    return {
        "wall_s": scale * statistics.fmean(r.wall for r in reps),
        "setup_s": scale * statistics.median(r.setup for r in reps),
        "cpu_s": scale * statistics.fmean(r.cpu for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "pass_frac": (attempted - failed) / attempted,
    }


def layer_metrics(doc: dict, traced: Rep, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition and its span file."""
    s = summarize(doc["names"], doc["spans"])
    values: dict[str, float] = {}
    for name, (kind, span_names) in FUNCTION_METRICS.items():
        table = s["fn_time"] if kind == "time" else s["fn_calls"]
        values[name] = sum(table.get(n, 0) for n in span_names)
    for name in COUNTER_METRICS:
        values[name] = doc["counters"].get(name, 0)
    for name in FIGURE_METRICS:
        values[name] = traced.figures.get(name, 0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = s["layer_self"].get(layer, 0.0)
        values[f"{layer}.calls"] = s["layer_calls"].get(layer, 0)
    values["trace.overhead_s"] = traced.wall - untraced_wall
    values["trace.uncovered_s"] = traced.wall - s["covered"]
    values["trace.wall_s"] = traced.wall
    values["trace.spans"] = len(doc["spans"])
    return values


def trace_metrics(reps: list[Rep]) -> dict[str, float]:
    traced = [r for r in reps if r.traced]
    chosen = median_rep(traced)
    doc = {"names": [], "spans": [], "counters": {}}
    for r in traced:
        if r.spans_path is not None and r.spans_path.exists():
            if r is chosen:
                doc = json.loads(r.spans_path.read_text())
            else:
                r.spans_path.unlink()
    return layer_metrics(doc, chosen, statistics.median(r.wall for r in reps if not r.traced))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, workload: str, seed: int, reps: list[Rep]) -> dict:
    child = next((r.env for r in reps if r.env), {})
    return {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "git_commit": git_commit(root),
        "thread_caps": {var: nproc() for var in THREAD_VARS},
        "memory_budget_bytes": child.get("memory_budget"),
        "memory_budget_env": os.environ.get(BUDGET_ENV, "unset (program default)"),
        "probe_ref_s": PROBE_REF_S,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the repetition and the probe are ended and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    missing = [p for p in (Path("src/cubesquares/__init__.py"), WINDOW_SCRIPT) if not (root / p).is_file()]
    if missing:
        print(f"run.py: not a cubesquares source checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src", quiet=1)  # bytecode is built once, not in the first measured run
    RUNS_DIR.mkdir(exist_ok=True)

    reps, slice_s = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    checks = [c for r in reps for c in r.checks]
    failed = sum(1 for _, ok, _ in checks if not ok)
    if args.trace:
        values, units = trace_metrics(reps), per_layer_units()
    else:
        values, units = end_to_end_metrics(reps, slice_s, len(checks), failed), END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions, trace {args.trace}")
    print("  repetition wall_s (as measured): " + " ".join(f"{r.wall:.3f}{'T' if r.traced else ''}" for r in reps))
    print(f"  probe slice {slice_s * 1e3:.4f} ms (reference {PROBE_REF_S * 1e3:g} ms)")
    if not args.trace:
        raw = {"wall_s": statistics.fmean(r.wall for r in reps), "cpu_s": statistics.fmean(r.cpu for r in reps)}
        raw["setup_s"] = statistics.median(r.setup for r in reps)
        print("  as measured, not normalised: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()))
    for name, value in values.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':36s} {failed / len(checks):>16.6g} 1   ({failed} of {len(checks)} checks failed)")
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    if args.trace:
        layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["trace.uncovered_s"]
        print(f"  layer self times + uncovered = {layer_sum:.6f} s; traced wall = {values['trace.wall_s']:.6f} s")
    print("provenance " + json.dumps(provenance(root, args.workload, args.seed, reps)))
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
