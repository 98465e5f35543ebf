"""Benchmark of the thermaldrag CLI: seeded workloads, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Each workload run is a closed loop with one client: one fresh worker
process (``worker.py``) calls ``thermaldrag.cli.main(argv)`` for one request
after another, each waiting for the previous one, with configs generated
from the seed (``workloads.py``).  It repeats passes over that request set
for ``--seconds``.  BLAS threads are pinned to 1, so the load is one thread.
Every output is checked (``checker.py``); a request fails on a non-zero exit
code, an exception or a failed check.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run: it alternates untraced passes and passes with
spans recorded at every layer boundary (``spans.py``) and reports the
per-layer metrics, the tracing overhead among them.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.

Times take each request at its fastest issue in the run: ``run_s`` is the
time of one pass over the request set with every request at its fastest
pass (the sum of the per-request minima), and the latency percentiles run
over the same per-request minima.  Other load on a shared machine only adds
time, so the fastest of k identical issues estimates the program's own
cost, and a request of tens of milliseconds finds a quiet moment far more
often than a pass of seconds does.  In six consecutive 40-s windows of
coeffs-rational seed 1 the sum of per-request minima ranged over 2.19-2.41 s,
the fastest whole pass over 2.37-2.93 s and the median pass over
2.89-3.47 s.  Ten 55-s runs per workload, seeds 51-60 one after another,
spread by 0.15-0.17 (IQR/median) on coeffs-rational and 0.08-0.10 on
chi-lorentzian this way.  ``setup_s`` is the median of several fresh-process
imports.

Limits: the benchmark neither pins CPUs nor drops the page cache, so other
load on the machine shows in its times, in CPU time as much as in wall time.
On a shared 2-core Intel Xeon machine a fixed CPU loop timed in 30-s windows
had window medians from 33.7 to 46.8 ms, and under heavy load on the host
even the fastest pass of a run moved by 40% within minutes; the per-request
minima follow the slow part of that drift, which no estimator removes.  The
deterministic counts of the traced run are therefore the primary per-layer
regression signal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import layer_metrics, load  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 14     # fresh-process imports per run; setup_s is their median with the worker's
WORKER_GRACE_S = 120  # a worker still running this long after --seconds is killed
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit: median fresh-process import of thermaldrag.cli, one pass over
# the workload's requests at each request's fastest issue, latency percentiles
# over the same per-request minima, peak resident memory of the worker process
END_TO_END = {"setup_s": "s", "run_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
              "peak_rss_mb": "MB"}
# name -> (unit, computed from other metrics); printed and in the JSON result
PER_LAYER = {
    "config.parse_calls": ("count", False),
    "config.parse_s": ("s", False),
    "models.amplitude_calls": ("count", False),
    "models.derivative_calls": ("count", False),
    "models.nodes": ("count", False),
    "models.self_s": ("s", False),
    "models.ns_per_node": ("ns", True),
    "models.validate_calls": ("count", False),
    "models.validate_s": ("s", False),
    "core.occupation_calls": ("count", False),
    "core.self_s": ("s", False),
    "quadrature.thermal_calls": ("count", False),
    "quadrature.finite_calls": ("count", False),
    "quadrature.evals": ("count", False),
    "quadrature.evals_per_call": ("count", True),
    "quadrature.self_s": ("s", False),
    "quadrature.converged_ratio": ("ratio", True),
    "quadrature.richardson_calls": ("count", False),
    "coefficients.reports": ("count", False),
    "coefficients.thermal_calls_per_report": ("count", True),
    "coefficients.evals_per_report": ("count", True),
    "susceptibility.chi_calls": ("count", False),
    "susceptibility.quad_calls_per_chi": ("count", True),
    "susceptibility.evals_per_chi": ("count", True),
    "cli.requests": ("count", False),
    "cli.self_s": ("s", False),
    "cli.bytes_out": ("bytes", False),
    "trace.overhead_s": ("s", True),
}
# Times of layers that some workload never reaches: a constant 0 there, so
# they are printed in the report but kept out of the JSON result.
REPORT_ONLY = {
    "quadrature.hilbert_s": ("s", False),
    "coefficients.self_s": ("s", False),
    "coefficients.checks_s": ("s", False),
    "susceptibility.self_s": ("s", False),
    "susceptibility.kk_s": ("s", False),
}
TIMES = ("s", "ns")


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def _worker(args: list[str], timeout: float) -> str:
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchmarkError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited with {done.returncode}")
    return done.stdout


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _fastest(passes: list[dict]) -> list[float]:
    """Each request's latency at its fastest issue among ``passes``."""
    return [min(col) for col in zip(*(p["latencies_s"] for p in passes))]


def _end_to_end(result: dict, probes: list[float]) -> tuple[dict, list[str]]:
    walls = [p["wall_s"] for p in result["passes"]]
    fastest = _fastest(result["passes"])
    setup = probes + [result["import_s"]]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": math.fsum(fastest),
        "req_p50_ms": 1e3 * statistics.median(fastest),
        "req_p90_ms": 1e3 * _quantile(fastest, 90),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    beyond_p90 = sum(1 for x in fastest if 1e3 * x > values["req_p90_ms"])
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "run_s": (f"{len(fastest)} requests, each its fastest of {len(walls)} passes "
                  f"(whole passes: fastest {min(walls):.4g} s, "
                  f"median {statistics.median(walls):.4g} s)"),
        "req_p50_ms": f"{len(fastest)} requests, each its fastest of {len(walls)} passes",
        "req_p90_ms": f"{len(fastest)} requests, {beyond_p90} beyond",
        "peak_rss_mb": "",
    }
    lines = [f"  {name:<40} {values[name]:>14.6g} {END_TO_END[name]:<6} {notes[name]}"
             for name in END_TO_END]
    return values, lines


def _per_layer(result: dict, workdir: Path) -> tuple[dict, list[str], list[str]]:
    """Layer metrics of the traced passes: counts must repeat, times are medians."""
    per_pass = [layer_metrics(*load(workdir / name)) for name in result["span_files"]]
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    for metrics, p in zip(per_pass, traced):
        metrics["cli.bytes_out"] = p["bytes_out"]
    problems = []
    values = {}
    for name, (unit, _) in {**PER_LAYER, **REPORT_ONLY}.items():
        if name == "trace.overhead_s":
            continue
        samples = [m[name] for m in per_pass]
        if unit in TIMES:
            values[name] = statistics.median(samples)
        else:
            values[name] = samples[0]
            if any(s != samples[0] for s in samples):
                problems.append(f"{name} differs between traced issues: {samples}")
    traced_s = math.fsum(_fastest(traced))
    untraced_s = math.fsum(_fastest(untraced))
    values["trace.overhead_s"] = traced_s - untraced_s

    lines = [f"  per layer, median of {len(traced)} traced passes "
             "(counts are identical in every pass):"]
    for name, (unit, computed) in {**PER_LAYER, **REPORT_ONLY}.items():
        tag = " (computed)" if computed else ""
        tag += " (report only)" if name in REPORT_ONLY else ""
        lines.append(f"  {name:<40} {values[name]:>14.6g} {unit:<6}{tag}")
    lines.append(f"  tracing overhead: traced run_s {traced_s:.4g} s - untraced "
                 f"run_s {untraced_s:.4g} s = {values['trace.overhead_s']:.4g} s")
    return {name: values[name] for name in PER_LAYER}, lines, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its report, and return the JSON result."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probes = [] if trace else [float(_worker(["probe"], 60))
                                   for _ in range(SETUP_PROBES)]
        _worker(["run", workload, str(seed), str(seconds), "1" if trace else "0",
                 str(workdir)], seconds + WORKER_GRACE_S)
        result = json.loads((workdir / "result.json").read_text())
        if trace:
            values, lines, problems = _per_layer(result, workdir)
        else:
            (values, lines), problems = _end_to_end(result, probes), []
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    env = result["environment"]
    blas = ", ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    problems = result["problems"] + problems
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"(closed loop, 1 client)")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {blas}")
    print("  limits: no CPU pinning, no page-cache dropping; on a shared machine "
          "single-pass times spread about +-25%")
    print("\n".join(lines))
    print(f"  fail_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if trace else END_TO_END
    return {
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="length of the measured phase of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermaldrag" / "cli.py").is_file():
        print(f"no thermaldrag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
