"""Benchmark of poisson-ortho: time to verdict, throughput, set-up and memory.

Run from the repository root:

    python3 perfbench/run.py --workload chart-sym --seed 1 --seconds 20 --trace 0

One run measures one workload in one process, in whole passes (a pass
runs every check of the workload once): the number of passes whose total
comes nearest to ``--seconds``, and at least two. With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the traced ones. Every check is judged against its known answer; the last
stdout line is the JSON result. See perfbench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
MIN_PASSES = 2
# set-up is timed in repetitions between the checks of the untraced passes,
# for this share of the check time, so that its samples spread over the
# whole run as evenly as the checks do
SETUP_SHARE = 0.1

# the workloads and the metric names and units are the ones BENCHMARK.json,
# beside this directory, declares
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}  # per traced pass

LAYERS = ("scenarios", "poisson", "integrability", "context", "metric",
          "geometry", "dsl", "liepoisson")
HIT_RATIOS = {  # accessor -> the function it memoizes, as bound in context
    "christoffel_at": "metric.christoffel",
    "metric_inv_at": "metric.inverse_metric",
    "frame_bracket": "geometry.lie_bracket",
}
SEVERITY = ("ok", "failed", "wrong")  # see workloads.judge
WARMUP_SPANS = ("integrability.equivalence", "integrability.sufficient",
                "integrability.covanishing")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Execution:
    """One check execution: timings and outcome."""

    job: object
    check_s: float | None = None
    points: int = 0
    status: str = "ok"  # ok, failed or wrong; see workloads.judge
    detail: str = ""


class Runner:
    """Runs passes over a workload's jobs and keeps every execution."""

    def __init__(self, jobs, scenarios, workloads):
        self.jobs = jobs
        self.scenarios = scenarios
        self.workloads = workloads
        self.reference = {}  # job key -> canonical JSON digest of its first run
        self.setup_samples = []
        self.setup_credit = 0.0  # seconds of set-up timing still owed

    def load_all(self) -> float:
        start = clock()
        for job in self.jobs:
            job.configure(self.scenarios.load_scenario(job.source))
        return clock() - start

    def sample_setup(self, check_s: float) -> float:
        """Time set-up for SETUP_SHARE of ``check_s``; returns the time spent."""
        self.setup_credit += SETUP_SHARE * check_s
        spent = 0.0
        while self.setup_credit > 0.0:
            sample = self.load_all()
            self.setup_samples.append(sample)
            self.setup_credit -= sample
            spent += sample
        return spent

    def warm_up(self) -> None:
        """Run every check once on its grid's centre point, untimed."""
        for job in self.jobs:
            try:
                config = job.configure(self.scenarios.load_scenario(job.source),
                                       single_point=True)
                self.scenarios.run(config).json_text()
            except Exception:  # the timed passes record the failure
                pass

    def check(self, job) -> Execution:
        # the functions are looked up on the module at call time, so a
        # traced pass goes through the tracer's wrappers
        try:
            config = job.configure(self.scenarios.load_scenario(job.source))
            start = clock()
            report = self.scenarios.run(config)
            text = report.json_text()
            check_s = clock() - start
            exit_code = report.exit_code
        except Exception as exc:  # no check is known to raise
            return Execution(job, status="wrong",
                             detail=f"{type(exc).__name__}: {exc}")
        finally:
            # the context memo sits in reference cycles; collect it outside
            # the timed region so every check starts as clean as a fresh
            # CLI process and peak RSS does not depend on collector timing
            gc.collect()
        doc = json.loads(text)
        status, detail = self.workloads.judge(job, exit_code, doc)
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.reference.setdefault(job.key, digest)
        if digest != first:
            status, detail = "wrong", "canonical JSON differs from the first run"
        return Execution(job, check_s, doc["scenario"]["grid"]["point_count"],
                         status, detail)

    def run_pass(self, tracer=None, check_base=0) -> tuple:
        """(wall seconds of the checks, executions); untraced passes sample set-up."""
        executions = []
        start = clock()
        setup_s = 0.0
        for idx, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.check_id = check_base + idx
            check_start = clock()
            executions.append(self.check(job))
            if tracer is None:
                setup_s += self.sample_setup(clock() - check_start)
        return clock() - start - setup_s, executions


def oracle_expectations(jobs) -> dict:
    paths = [job.source for job in jobs if job.oracle]
    if not paths:
        return {}
    done = subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"), *paths],
                          capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"oracle failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def environment(scenarios, numpy) -> dict:
    thread_count = getattr(scenarios, "thread_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": thread_count() if thread_count else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def check_rows(executions) -> list:
    """Per-check rows comparable to the ROADMAP re-anchor table."""
    rows = {}
    for ex in executions:
        if ex.check_s is not None:
            rows.setdefault(ex.job.key, (ex.job, ex.points, []))[2].append(ex.check_s)
    out = []
    for key, (job, points, walls) in rows.items():
        wall = statistics.median(walls)
        out.append({"check": key, "scheme": job.scheme, "points": points,
                    "wall_s": wall, "ms_per_point": 1e3 * wall / points,
                    "runs": len(walls)})
    return out


def failures(executions) -> list:
    """Failed check executions grouped by check and reason."""
    grouped = {}
    for ex in executions:
        if ex.status != "ok":
            key = (ex.job.key, ex.status, ex.detail)
            grouped[key] = grouped.get(key, 0) + 1
    return [{"check": k, "status": s, "detail": d, "count": n}
            for (k, s, d), n in grouped.items()]


def tally(jobs, executions) -> tuple:
    """(attempted, failed, wrong), counted over the workload's checks.

    A check counts once, with the worst status of its executions, so the
    counts follow from the seed alone and not from how many passes fit in
    the run.
    """
    worst = {}
    for ex in executions:
        worst[id(ex.job)] = max(worst.get(id(ex.job), "ok"), ex.status, key=SEVERITY.index)
    return (len(jobs), sum(status != "ok" for status in worst.values()),
            sum(status == "wrong" for status in worst.values()))


def end_to_end(passes, setup_samples) -> dict:
    """Metrics of the untraced passes: name -> (value, samples)."""
    walls = [ex.check_s for done in passes for ex in done if ex.check_s is not None]
    # one throughput per pass, so a slow spell of the host moves the median
    # less than it moves a ratio of totals
    rates = [sum(ex.points for ex in timed) / sum(ex.check_s for ex in timed)
             for timed in ([ex for ex in done if ex.check_s is not None] for done in passes)
             if timed]
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "verdict_s.p50": (statistics.median(walls), len(walls)),
        "verdict_s.p90": (quantile(walls, 0.9), len(walls)),
        "points_per_s": (statistics.median(rates), len(rates)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(tracer, traced_walls, plain_walls, threads) -> tuple:
    """Per-pass layer metrics from the tracer; names it cannot measure are absent."""
    totals = tracer.totals()
    stats, counts = totals["stats"], totals["counts"]
    passes = len(traced_walls)
    wrapped, missing = tracer.wrapped, set(tracer.missing)
    values = {}

    for metric in PER_LAYER:  # "<span>.calls", "<span>.self_s", "<span>.s"
        name, _, field = metric.rpartition(".")
        if name in wrapped and field in ("calls", "self_s", "s"):
            row = stats.get(name, (0, 0.0, 0.0, 0))
            values[metric] = row[("calls", "self_s", "s").index(field)] / passes
    if "geometry.partial_derivative" not in missing:
        values["geometry.partial_derivative.exact_calls"] = counts.get("partial.exact", 0) / passes
        values["geometry.partial_derivative.stencil_calls"] = counts.get("partial.stencil", 0) / passes
    if "geometry.field_evals" not in missing:
        values["geometry.field_evals"] = counts.get("field_evals", 0) / passes
    for accessor, memoized in HIT_RATIOS.items():
        site = f"site:{memoized}@context"
        calls = stats.get(f"context.{accessor}", (0,))[0]
        if f"context.{accessor}" in wrapped and site in tracer.sites and calls:
            values[f"context.{accessor}.hit_ratio"] = 1.0 - counts.get(site, 0) / calls
    if all(name in wrapped for name in WARMUP_SPANS):
        values["integrability.warmup_calls"] = sum(
            stats.get(name, (0, 0, 0, 0))[3] for name in WARMUP_SPANS) / passes
    if threads is not None:
        values["scenarios.threads"] = threads
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row[1] for name, row in stats.items() if name.split(".")[0] == layer) / passes
    traced = sum(traced_walls)
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    values["trace.uncovered_ratio"] = (traced - totals["root_s"]) / traced
    absent = [name for name in PER_LAYER if name not in values]
    return {k: (values[k], unit) for k, unit in PER_LAYER.items() if k in values}, absent


def measure(runner, seconds, tracer):
    """Whole passes, as many as come nearest to ``seconds``; with a tracer,
    pairs of passes.

    Stopping at the nearest whole pass, rather than at the first one past
    ``seconds``, keeps a run within half a pass of ``seconds``, unless the
    least number of passes takes longer.
    Returns the untraced and the traced passes, each a list of
    (wall seconds, executions).
    """
    plain, traced = [], []
    needed = 1 if tracer is not None else MIN_PASSES
    start = clock()
    while True:
        plain.append(runner.run_pass())
        if tracer is not None:
            with tracer.installed():
                traced.append(runner.run_pass(tracer, len(traced) * len(runner.jobs)))
        elapsed = clock() - start
        if len(plain) >= needed and elapsed + 0.5 * elapsed / len(plain) >= seconds:
            return plain, traced


def print_table(title, rows, columns):
    print(title)
    print("  " + "  ".join(f"{name:>{width}}" for name, width, _ in columns))
    for row in rows:
        print("  " + "  ".join(f"{fmt(row[name]):>{width}}" for name, width, fmt in columns))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "poisson_ortho", "__init__.py")):
        print("perfbench: src/poisson_ortho not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.pop("POISSON_ORTHO_THREADS", None)  # the program's default applies
    sys.path.insert(0, src)

    import numpy
    import workloads
    from poisson_ortho import scenarios
    from tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        workloads.expect_from_oracle(jobs, oracle_expectations(jobs))
        runner = Runner(jobs, scenarios, workloads)
        runner.warm_up()
        tracer = Tracer() if args.trace else None
        plain, traced = measure(runner, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain_runs = [ex for _, done in plain for ex in done]
    executions = plain_runs + [ex for _, done in traced for ex in done]

    env = environment(scenarios, numpy)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{len(jobs)} checks per pass")
    print_table("checks (median over untraced runs):", check_rows(plain_runs), (
        ("check", 14, str), ("scheme", 9, str), ("points", 6, str),
        ("wall_s", 8, lambda v: f"{v:.3f}"), ("ms_per_point", 12, lambda v: f"{v:.2f}"),
        ("runs", 4, str)))

    attempted, failed, wrong = tally(jobs, executions)
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} failed of {attempted} "
          f"checks, {wrong} with a wrong answer; {len(executions)} executions)")
    for item in failures(executions):
        print(f"  {item['status']}: {item['check']} x{item['count']}: {item['detail']}")

    if tracer is None:
        measured = end_to_end([done for _, done in plain], runner.setup_samples)
        metrics = {k: (*measured[k], unit) for k, unit in END_TO_END.items()}
        print_table("end-to-end metrics:", [
            {"metric": k, "value": v, "unit": u, "samples": n}
            for k, (v, n, u) in metrics.items()], (
            ("metric", 14, str), ("value", 14, lambda v: f"{v:.6g}"), ("unit", 5, str),
            ("samples", 7, str)))
        result = {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()}
    else:
        metrics, absent = per_layer(tracer, [wall for wall, _ in traced],
                                    [wall for wall, _ in plain], env["workers"])
        print_table("per-layer metrics (per traced pass):", [
            {"metric": k, "value": v, "unit": u} for k, (v, u) in metrics.items()], (
            ("metric", 42, str), ("value", 14, lambda v: f"{v:.6g}"), ("unit", 5, str)))
        if absent or tracer.missing:
            print("absent: " + ", ".join(absent + tracer.missing))
        path = os.path.join(OUT_DIR, f"trace-{args.workload}.npz")
        print(f"spans: {tracer.write(path)} rows written to {path}")
        result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
