#!/usr/bin/env python3
"""Benchmark harness for lorentz-roots.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload chamber --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Each workload is a closed loop with one client in one process and one
thread: the next job starts when the previous one has returned.  A timed
run (--trace 0) sets the workload up several times, then makes passes over
its fixed job list for about --seconds seconds and prints the end-to-end
metrics.  A traced run (--trace 1) makes one untraced pass and two traced
passes, checks that both traced passes give identical counts and prints
the per-layer metrics.  Every job's output is checked against an exact
oracle outside the timed region.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--seed shuffles the job order of every pass; the jobs themselves are
fixed.  --basis-seed moves every lattice of the chamber, deep and
identity workloads to another basis (see workloads.Basis); enumeration
cost depends strongly on the basis, so timed runs keep it at 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("lattice", "linalg", "cones", "geometry", "vinberg", "weylstruct", "kacmoody",
           "qseries", "cli")
SETUP_REPS = 9
MIN_PASSES = 3

END_TO_END = {"wall_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}

COUNT_METRICS = [
    "linalg.quadric_integer_points.calls", "linalg.quadric_integer_points.empty",
    "linalg.quadric_integer_points.points", "linalg.row_kernel_transform.calls",
    "linalg.solve.calls", "linalg.mat_mul.calls",
    "vinberg.run.calls", "vinberg.run.accepted", "vinberg.candidate_stream.yielded",
    "vinberg.gram_bound_check.calls",
    "lattice.is_crystallographic.calls", "lattice.is_crystallographic.rejected",
    "lattice.invariants.calls",
    "cones.is_arithmetic_type.calls", "cones.is_arithmetic_type.rays",
    "cones.k_element_tuples.calls", "cones.k_element_tuples.tuples",
    "kacmoody.weyl_elements.calls", "kacmoody.weyl_elements.elements",
    "kacmoody.GradedSeries.binomial_factor.calls", "kacmoody.real_root_tuples.calls",
    "kacmoody.imaginary_candidate_tuples.calls",
    "kacmoody.solve_multiplicities.calls", "kacmoody.solve_multiplicities.mults",
    "qseries.eta_power.calls", "qseries.cusp_identity.calls",
    "qseries.PowerSeries.__mul__.calls",
    "weylstruct.candidate_roots_for_weyl_vector.calls", "weylstruct.symmetry_group.calls",
    "weylstruct.build_Pk_sample.calls",
    "cli.main.calls",
]
BUSY_LAYERS = sorted({name for _, _, name, _ in tracing.SPANS}
                     | {name for _, _, name in tracing.GENERATORS})
LAYER_MODULES = ("lattice", "linalg", "cones", "vinberg", "weylstruct", "kacmoody",
                 "qseries", "cli")


def per_layer_units():
    units = {name: "count" for name in COUNT_METRICS}
    units.update({"cli.report_bytes": "bytes", "trace.spans": "count",
                  "linalg.quadric_integer_points.useful_ratio": "ratio",
                  "vinberg.accept_ratio": "ratio",
                  "trace.wall_s": "s", "trace.overhead_s": "s", "trace.overhead_pct": "%"})
    units.update({f"{name}.busy_pct": "%" for name in BUSY_LAYERS})
    units.update({f"{mod}.self_pct": "%" for mod in LAYER_MODULES})
    return units


# ---------------------------------------------------------------------------
# set-up

def import_package():
    """Import the package from scratch and return its modules."""
    for name in [m for m in sys.modules if m == "lorentzroots" or m.startswith("lorentzroots.")]:
        del sys.modules[name]
    importlib.import_module("lorentzroots")
    return SimpleNamespace(**{m: importlib.import_module(f"lorentzroots.{m}") for m in MODULES})


def setup(args, pins):
    """Import the package and build the job list SETUP_REPS times.

    Returns the modules, the jobs and the (raw, normalized) seconds of
    each repetition.
    """
    built = {}

    def once():
        built["mods"] = mods = import_package()
        built["jobs"] = workloads.build(args.workload, mods, basis_seed=args.basis_seed,
                                        toy=args.toy, pins=pins)

    times = timed_series([once] * SETUP_REPS)
    mods, jobs = built["mods"], built["jobs"]
    if args.corrupt_oracle:
        pin = pins[jobs[0].name]
        if "digest" in pin:
            pin["digest"] = "0" * 64
        else:
            pin["accepted"] = pin["accepted"][:-1]
        jobs = workloads.build(args.workload, mods, basis_seed=args.basis_seed,
                               toy=args.toy, pins=pins)
    return mods, jobs, times


# ---------------------------------------------------------------------------
# host speed reference

REFERENCE_S = 0.00125   # seconds a reference slice takes at the reference host speed
BRACKET = 9             # reference slices timed before and after each task
TICK_S = 0.1            # interval of the reference slices timed during a task


def _reference_slice():
    """Fixed pure-Python rational arithmetic, the library's dominant kind of
    work: an exact elimination of a 7x7 matrix of Fractions."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    for r in range(n):
        p = next(i for i in range(r, n) if m[i][r] != 0)
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][r] for x in m[r]]
        for i in range(n):
            if i != r and m[i][r] != 0:
                f = m[i][r]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]


def _slice_seconds():
    t0 = perf_counter()
    _reference_slice()
    return perf_counter() - t0


class HostSpeed:
    """Timings of the reference slice around and during one task.

    During the task a timer signal runs a slice every TICK_S seconds in
    the main thread; the time those slices take is removed from the
    task's time.
    """

    def __init__(self):
        self.samples = []
        self.ticks = 0.0

    def bracket(self):
        gc.disable()
        try:
            self.samples.extend(_slice_seconds() for _ in range(BRACKET))
        finally:
            gc.enable()

    def _tick(self, signum, frame):
        took = _slice_seconds()
        self.samples.append(took)
        self.ticks += took

    def measure(self, task):
        """Seconds the task took, less the slices run during it."""
        self.ticks = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            task()
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return elapsed - self.ticks


def timed_series(tasks):
    """Run each task once; return (raw, normalized) seconds per task.

    On a shared host the speed of the same code drifts by tens of percent
    within seconds.  A task's time is reported at the reference speed:
    raw seconds times REFERENCE_S over the median time of the reference
    slices taken before, during and after it.  The heap is collected
    before each task, so garbage left by one job is not charged to the
    next.
    """
    raw, norm = [], []
    gc.collect()
    speed = HostSpeed()
    speed.bracket()
    for task in tasks:
        speed.samples = speed.samples[-BRACKET:]
        gc.collect()
        elapsed = speed.measure(task)
        gc.collect()
        speed.bracket()
        raw.append(elapsed)
        norm.append(elapsed * REFERENCE_S / statistics.median(speed.samples))
    return raw, norm


# ---------------------------------------------------------------------------
# passes

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, job, out, error):
        self.attempted += 1
        if error is None:
            try:
                errs = job.check(out)
            except Exception as exc:  # a broken output must not abort the run
                errs = [f"oracle raised {type(exc).__name__}: {exc}"]
        else:
            errs = [error]
        if errs:
            self.failures.append({"job": job.name, "errors": errs})


def run_pass(jobs, rng, tally, tracer=None):
    """One closed-loop pass in shuffled order.

    Returns (raw, normalized) seconds per job, in pinned job order.
    """
    order = list(range(len(jobs)))
    rng.shuffle(order)
    outputs = {}

    def task(i):
        job = jobs[i]
        try:
            out = job.run() if tracer is None else tracer.run_job(job.name, job.run)
            outputs[i] = (out, None)
        except Exception as exc:  # counted as a failed job, never aborts the run
            outputs[i] = (None, f"raised {type(exc).__name__}: {exc}")

    raw, norm = timed_series([lambda i=i: task(i) for i in order])
    for i in order:
        out, error = outputs[i]
        tally.check(jobs[i], out, error)
        if tracer is not None and jobs[i].name.startswith("cli.") and error is None:
            tracer.counts["cli.report_bytes"] += len(out[1].encode())
    back = sorted(range(len(order)), key=order.__getitem__)
    return [raw[k] for k in back], [norm[k] for k in back]


def summarize(passes, setup_times):
    """End-to-end values from per-pass job seconds, one scale at a time.

    wall_s is the median pass; the job percentiles run over the jobs of a
    pass, each job timed by its median over the passes, so the number of
    passes a run fits in does not change which jobs the tail holds.
    """
    per_job = [statistics.median(times) for times in zip(*passes)]
    ms = sorted(1000 * t for t in per_job)
    if len(ms) > 1:
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = ms[0]
    return {"wall_s": statistics.median(sum(p) for p in passes),
            "job_ms_p50": p50, "job_ms_p90": p90,
            "setup_s": statistics.median(setup_times)}


def timed_metrics(args, jobs, setup_times, rng, tally):
    """At least MIN_PASSES passes; after those, a pass starts only if it
    should end within --seconds of the first."""
    passes = []
    start = perf_counter()
    longest = 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + longest <= args.seconds:
        t0 = perf_counter()
        passes.append(run_pass(jobs, rng, tally))
        longest = max(longest, perf_counter() - t0)
    raw = summarize([p[0] for p in passes], setup_times[0])
    values = summarize([p[1] for p in passes], setup_times[1])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"passes": len(passes), "jobs_per_pass": len(jobs),
                      "seconds": perf_counter() - start, "raw": raw,
                      "pass_s": [sum(p[1]) for p in passes]}))
    return values


def traced_metrics(args, mods, jobs, rng, tally):
    untraced_norm = sum(run_pass(jobs, rng, tally)[1])
    tracers, norm = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install(mods)
        try:
            norm.append(sum(run_pass(jobs, rng, tally, tracer)[1]))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    first, second = tracers
    if first.counts != second.counts:
        diff = sorted(k for k in set(first.counts) | set(second.counts)
                      if first.counts[k] != second.counts[k])
        tally.failures.append({"job": "trace", "errors": [f"counts differ: {diff}"]})

    traced, untraced = statistics.mean(norm), untraced_norm
    in_jobs = statistics.mean(tracer.job_seconds() for tracer in tracers)
    busy, own = {}, {}
    for tracer in tracers:
        b, s = tracer.layer_times()
        for name in BUSY_LAYERS + ["job"]:
            busy[name] = busy.get(name, 0.0) + b.get(name, 0.0) / len(tracers)
            own[name] = own.get(name, 0.0) + s.get(name, 0.0) / len(tracers)
    counts = first.counts
    values = {name: counts[name] for name in COUNT_METRICS}
    values["cli.report_bytes"] = counts["cli.report_bytes"]
    values["trace.spans"] = len(first.spans)
    shells = counts["linalg.quadric_integer_points.calls"]
    values["linalg.quadric_integer_points.useful_ratio"] = (
        (shells - counts["linalg.quadric_integer_points.empty"]) / shells if shells else 0.0)
    yielded = counts["vinberg.candidate_stream.yielded"]
    values["vinberg.accept_ratio"] = counts["vinberg.run.accepted"] / yielded if yielded else 0.0
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    for name in BUSY_LAYERS:
        values[f"{name}.busy_pct"] = 100 * busy[name] / in_jobs
    for mod in LAYER_MODULES:
        values[f"{mod}.self_pct"] = 100 * sum(
            t for name, t in own.items() if name.split(".")[0] == mod) / in_jobs

    print(f"# trace of {args.workload}: untraced pass {untraced:.4f} s, traced pass "
          f"{traced:.4f} s, overhead {traced - untraced:+.4f} s")
    print(f"# {'layer':<46} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for name in BUSY_LAYERS:
        if counts[name + ".calls"]:
            print(f"# {name:<46} {counts[name + '.calls']:>9} {busy[name]:>10.4f} "
                  f"{own[name]:>10.4f}")
    print(f"# in jobs but outside traced layers: {own['job']:.4f} s of {in_jobs:.4f} s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    first.write_spans(path)
    print(f"# {len(first.spans)} spans of the first traced pass written to "
          f"{path.relative_to(ROOT)}")
    return values


# ---------------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "tracing": "only wrappers inside this process; no system-wide tracer or profiler",
    }


def bench(args):
    if not (SRC / "lorentzroots" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(HERE / "pinned.json") as fh:
        pins = json.load(fh)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "basis_seed": args.basis_seed, "toy": args.toy}))
    mods, jobs, setup_times = setup(args, pins)
    rng = random.Random(f"order:{args.seed}")
    tally = Tally()
    if args.trace:
        metrics = traced_metrics(args, mods, jobs, rng, tally)
        units = per_layer_units()
    else:
        metrics = timed_metrics(args, jobs, setup_times, rng, tally)
        units = END_TO_END
    failed = len(tally.failures)
    for failure in tally.failures[:10]:
        print(json.dumps({"failure": failure}))
    print(json.dumps({"failed_ratio": failed / tally.attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# smoke mode

def smoke():
    """Every workload at toy size, traced and untraced, plus a corrupted oracle."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def invoke(workload, trace, *extra):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--toy", "--basis-seed", "1", *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{workload} trace={trace} {extra}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
            return None
        return json.loads(lines[-1])

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = invoke(workload, trace)
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed jobs")
        result = invoke(workload, 0, "--corrupt-oracle")
        if result is not None and (result["correct"] or result["failed"] == 0):
            problems.append(f"{workload}: corrupted oracle value was not caught")
        print(f"smoke {workload}: done")
    for problem in problems:
        print(f"smoke problem: {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="shuffles the job order")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long a timed run repeats passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--basis-seed", type=int, default=0,
                        help="unimodular basis change of the lattice inputs (0: none)")
    parser.add_argument("--toy", action="store_true", help="toy-size job lists")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="corrupt one pinned oracle value (checks the checker)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the output format")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
