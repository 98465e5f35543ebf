"""Benchmark worker: the one fresh process of a workload run.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS threads pinned to 1:

    worker.py probe
        print the import time of ``thermaldrag.cli`` in this fresh process
    worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR
        issue the workload's requests to ``thermaldrag.cli.main`` one after
        another (a closed loop with one client) and write ``result.json``,
        plus the span files of traced passes, to WORKDIR

A run issues passes over the seed's requests until the next pass would end
after SECONDS; traced runs alternate an untraced and a traced pass.  Every
pass must print the same bytes as the first, which is compared with
``reference.json`` when the seed is the default one.
"""

import sys
import time


def import_cli():
    start = time.perf_counter()
    import thermaldrag.cli
    return thermaldrag.cli, time.perf_counter() - start


def call(cli, argv):
    """Run one request in-process: (exit code, stdout, latency in s)."""
    # imported here, not at the top, so that import_cli times a fresh interpreter
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    latency = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), latency


def main(argv):
    cli, import_s = import_cli()
    if argv[0] == "probe":
        print(repr(import_s))
        return 0

    import json
    import os
    import resource
    from pathlib import Path

    import numpy

    import checker
    import spans
    from workloads import DEFAULT_SEED, generate, write_requests

    workload, seed, seconds, trace, workdir = argv[1:]
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(
            (Path(__file__).with_name("reference.json")).read_text())[workload]
    requests = generate(workload, seed)
    argvs = write_requests(requests, workdir / "requests")

    problems: list[str] = []
    attempted = failed = 0
    passes = []
    first_stdout: list[str] = []

    def issue(recorder=None):
        """One pass over the requests; checks run after it, outside the timing."""
        nonlocal attempted, failed
        results = []
        start = time.perf_counter()
        for index, request_argv in enumerate(argvs):
            if recorder is not None:
                recorder.request_id = index
            results.append(call(cli, request_argv))
        wall = time.perf_counter() - start
        for index, (code, stdout, _) in enumerate(results):
            found = checker.check(requests[index].command, code, stdout)
            if first_stdout:
                # determinism contract: an identical request prints identical bytes
                if stdout != first_stdout[index]:
                    found.append("stdout differs from the first pass")
            elif reference is not None and not found:
                found = checker.compare(requests[index].command, stdout, reference[index])
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"pass {len(passes)} request {index}: {p}" for p in found)
        if not first_stdout:
            first_stdout.extend(stdout for _, stdout, _ in results)
        passes.append({"traced": recorder is not None, "wall_s": wall,
                       "latencies_s": [latency for *_, latency in results],
                       "bytes_out": sum(len(stdout.encode()) for _, stdout, _ in results)})
        return wall

    recorder = spans.Recorder() if trace else None
    span_files = []
    phase_start = time.perf_counter()
    while True:
        wall = issue()
        if recorder is not None:
            with recorder:
                wall += issue(recorder)
            path = workdir / f"spans-{len(span_files)}.bin"
            recorder.dump(path)
            recorder.clear()
            span_files.append(path.name)
        if time.perf_counter() - phase_start + wall > seconds:
            break

    result = {
        "import_s": import_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": passes,
        "span_files": span_files,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {key: os.environ.get(key) for key in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        },
    }
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
