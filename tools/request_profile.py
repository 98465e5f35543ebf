"""Per-phase cost of a benchmark workload's requests, in one process.

    python3 tools/request_profile.py [--workload NAME] [--seed N]

Run from the root of a checkout: the program is imported from ``src/`` and
the requests are generated by ``bench/workloads.py``, which this script
only reads.  Each request goes through ``thermaldrag.cli.main`` with its
output captured, as the benchmark worker issues it, PASSES times after a
first untimed pass.

It prints, per phase, the mean over requests of each request's fastest
time in those passes (in us), so that other load on the machine, which
only adds time, mostly drops out:

- ``argparse``: ``cli._parse_args``, the argument parsing as ``cli.main``
  calls it (the named subcommand's own parser, or the full parser);
- ``read_text``, ``build_model`` and ``validate_model`` inside
  ``config.parse_config``, and the rest of ``parse_config`` (the key
  parsing and the run settings);
- ``compute``: the calls into ``coefficients`` and ``susceptibility``;
- ``output``: the rest of the request (formatting, gates, printing);
- ``total``: the whole ``cli.main`` call.

A phase's minimum and the total's are taken separately, so the phases
need not add up to the total.  Last comes the number of Python-level
function calls made inside ``parse_config`` per request, counted with
``sys.setprofile`` in a separate pass: a deterministic count for one
CPython version (comprehensions are calls up to 3.11 and inlined from
3.12 on).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import DEFAULT_SEED, WORKLOADS, generate, write_requests  # noqa: E402

from thermaldrag import cli, coefficients, config, susceptibility  # noqa: E402

PARSE_PHASES = ("read_text", "build_model", "validate_model")
PHASES = ("argparse", *PARSE_PHASES, "parse_config, rest", "compute", "output")
PASSES = 12


class PhaseClock:
    """Adds the time spent in wrapped functions to the current request's phases.

    A call made while another wrapped call of the same phase is running
    is not timed again, so that recursion and nested calls count once.
    """

    def __init__(self):
        self.spent: dict[str, float] = {}
        self._open: set[str] = set()

    def wrap(self, phase: str, function):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            if phase in self._open:
                return function(*args, **kwargs)
            self._open.add(phase)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.spent[phase] = self.spent.get(phase, 0.0) + time.perf_counter() - start
                self._open.discard(phase)
        return timed


def instrument(clock: PhaseClock, patches: list):
    """Wrap each phase's functions; record (owner, name, original) in ``patches``."""
    def patch(owner, name, phase):
        original = getattr(owner, name)
        patches.append((owner, name, original))
        setattr(owner, name, clock.wrap(phase, original))

    patch(cli, "_parse_args", "argparse")
    for name in PARSE_PHASES:
        patch(config, name, name)
    patch(cli, "parse_config", "parse_config")
    for module in (coefficients, susceptibility):
        for name, value in vars(module).copy().items():
            if (callable(value) and not name.startswith("_") and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__):
                patch(module, name, "compute")


def restore(patches: list):
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
    patches.clear()


def issue(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def phase_minima(argvs, passes: int) -> tuple[list[dict], list[float]]:
    """Each request's fastest time per phase, and its fastest total, over ``passes``."""
    clock, patches = PhaseClock(), []
    best = [dict.fromkeys(PHASES, float("inf")) for _ in argvs]
    totals = [float("inf")] * len(argvs)
    instrument(clock, patches)
    try:
        for _ in range(passes):
            for index, argv in enumerate(argvs):
                clock.spent = {}
                start = time.perf_counter()
                issue(argv)
                total = time.perf_counter() - start
                spent = clock.spent
                parse_rest = spent.get("parse_config", 0.0) - sum(
                    spent.get(name, 0.0) for name in PARSE_PHASES)
                output = (total - spent.get("argparse", 0.0) - spent.get("parse_config", 0.0)
                          - spent.get("compute", 0.0))
                values = {**{name: spent.get(name, 0.0) for name in PHASES},
                          "parse_config, rest": parse_rest, "output": output}
                for name in PHASES:
                    best[index][name] = min(best[index][name], values[name])
                totals[index] = min(totals[index], total)
    finally:
        restore(patches)
    return best, totals


def parse_config_calls(argvs) -> int:
    """Python-level calls inside ``parse_config`` over one pass of ``argvs``."""
    calls = 0
    original = cli.parse_config

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def counted(path):
        sys.setprofile(profile)
        try:
            return original(path)
        finally:
            sys.setprofile(None)

    cli.parse_config = counted
    try:
        for argv in argvs:
            issue(argv)
    finally:
        cli.parse_config = original
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="coeffs-rational", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        argvs = write_requests(generate(args.workload, args.seed), Path(workdir))
        for argv in argvs:  # fill the process's caches before anything is timed
            issue(argv)
        best, totals = phase_minima(argvs, PASSES)
        calls = parse_config_calls(argvs)

    n = len(argvs)
    print(f"{args.workload} seed {args.seed}: {n} requests, each at its fastest "
          f"of {PASSES} passes (mean us per request)")
    for name in PHASES:
        print(f"  {name:<20} {1e6 * sum(b[name] for b in best) / n:9.1f}")
    print(f"  {'total':<20} {1e6 * sum(totals) / n:9.1f}")
    print(f"parse_config Python-level calls per request: {calls / n:g} "
          f"(Python {sys.version_info.major}.{sys.version_info.minor})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
