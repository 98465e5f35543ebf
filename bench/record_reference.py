"""Record ``reference.json``: the checked values of the default seed's requests.

    PYTHONPATH=src python3 bench/record_reference.py

Run once, at the commit whose outputs serve as the reference; the worker
compares the first pass of every default-seed run against the file.
"""

import json
import sys
import tempfile
from pathlib import Path

import checker
from workloads import DEFAULT_SEED, WORKLOADS, generate, write_requests
from worker import call, import_cli


def main() -> int:
    cli, _ = import_cli()
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            requests = generate(workload, DEFAULT_SEED)
            argvs = write_requests(requests, Path(tmp) / workload)
            values = []
            for request, argv in zip(requests, argvs):
                code, stdout, _ = call(cli, argv)
                problems = checker.check(request.command, code, stdout)
                if problems:
                    print(f"{workload}: {problems}", file=sys.stderr)
                    return 1
                values.append(checker.reference_values(request.command, stdout))
            reference[workload] = values
    # one request per line keeps the file reviewable
    blocks = [f"{json.dumps(workload)}: [\n" + ",\n".join(map(json.dumps, values)) + "\n]"
              for workload, values in reference.items()]
    path = Path(__file__).with_name("reference.json")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
