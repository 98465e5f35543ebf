"""tools/request_profile.py: every phase is timed where ``cli.main`` spends it."""

import sys
from pathlib import Path

from thermaldrag import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import request_profile  # noqa: E402


def test_every_phase_of_a_coeffs_request_is_timed(tmp_path):
    # a phase whose wrapped function main no longer calls would read 0, and
    # its time would land in "output"
    before = cli._parse_args
    requests = request_profile.generate("coeffs-rational", 1)[:2]
    argvs = request_profile.write_requests(requests, tmp_path)
    best, totals = request_profile.phase_minima(argvs, 1)
    for phases, total in zip(best, totals):
        assert all(phases[name] > 0 for name in request_profile.PHASES), phases
        assert phases["argparse"] < total
    assert cli._parse_args is before
