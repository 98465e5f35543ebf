"""One sha256 digest of the outputs of each benchmark workload's requests.

    python3 tools/output_digest.py

Run from the root of a checkout: the program is imported from ``src/`` and
the requests are generated by ``bench/workloads.py``, which this script
only reads.  For every workload and the seeds 1 to 3 it prints one line:
the request count and the sha256 of each request's exit code, stdout and
stderr, request after request, as ``thermaldrag.cli.main`` gives them in
one process.  Two checkouts whose lines are equal printed the same bytes
and exit codes on every request, so a change that claims to keep every
output can show it with one command on each.  A request that raises fails
the tool.

Digests compare only between runs with the same numpy SIMD dispatch and
BLAS: other code paths may move the last printed digits (see ROADMAP item
13), so compare the two checkouts on one machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS, generate, write_requests  # noqa: E402

from thermaldrag import cli  # noqa: E402

SEEDS = (1, 2, 3)


def outputs(requests) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each request, in order.

    The configs are written to a temporary directory whose path is replaced
    by ``<requests>`` in the output, so that a message naming a config file
    reads the same in every run.
    """
    results = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv in write_requests(requests, Path(workdir)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((code, *(text.getvalue().replace(workdir, "<requests>")
                                    for text in (out, err))))
    return results


def digest(results) -> str:
    """The sha256, in hex, of ``outputs``' list: each field framed by ``repr``."""
    return hashlib.sha256(repr(results).encode()).hexdigest()


def main() -> int:
    for workload in WORKLOADS:
        for seed in SEEDS:
            results = outputs(generate(workload, seed))
            print(f"{workload} seed {seed}: {len(results)} requests, sha256 {digest(results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
