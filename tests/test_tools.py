"""tools/request_profile.py: every phase is timed where ``cli.main`` spends it;
tools/source_size.py: what counts as a code line, and that the counts add up;
tools/output_digest.py: a digest that repeats, and moves with one printed byte."""

import sys
from pathlib import Path

from thermaldrag import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import output_digest  # noqa: E402
import request_profile  # noqa: E402
import source_size  # noqa: E402


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


def test_code_lines_skip_docstrings_comments_and_blanks():
    snippet = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    return math.hypot(
        x,
        1.0,
    )
'''
    # the import, the def and the four lines of the return statement
    assert source_size.code_lines(snippet) == 6


def test_module_counts_add_up_to_the_total(capsys):
    assert source_size.main() == 0
    *modules, total = capsys.readouterr().out.splitlines()
    counts = {}
    for line in modules:
        count, path = line.split()
        counts[path] = int(count)
    package = sorted(source_size.PACKAGE.glob("*.py"))
    assert list(counts) == [str(path.relative_to(source_size.ROOT)) for path in package]
    assert counts["src/thermaldrag/cli.py"] == source_size.code_lines(
        (source_size.PACKAGE / "cli.py").read_text())
    assert total == f"{sum(counts.values()):8d} code lines in total"


def test_output_digest_repeats_and_moves_with_one_printed_byte():
    requests = output_digest.generate("chi-lorentzian", 1)[:2]
    first, second = output_digest.outputs(requests), output_digest.outputs(requests)
    assert [code for code, _, _ in first] == [0, 0]
    assert output_digest.digest(first) == output_digest.digest(second)
    code, out, err = second[1]
    second[1] = code, out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1], err
    assert output_digest.digest(first) != output_digest.digest(second)
