"""Tests of the benchmark itself: generator, checker, spans and the result line.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END, PER_LAYER, REPORT_ONLY  # noqa: E402
from worker import call, import_cli  # noqa: E402
from workloads import WORKLOADS, generate, weak_rational, write_requests  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return import_cli()[0]


# --- generator -------------------------------------------------------------

@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


def test_request_counts():
    assert len(generate("coeffs-rational", 3)) == 100
    assert len(generate("chi-lorentzian", 3)) == 100
    assert [r.command for r in generate("verify-lorentzian", 3)] == ["verify"]


@pytest.mark.parametrize("epsilon, tau", [(0.1, 0.5), (0.3, 1.0), (0.5, 2.0)])
def test_weak_rational_is_unitary_by_construction(epsilon, tau):
    keys, cutoff = weak_rational(epsilon, tau)

    def poly(key, z):
        coeffs = [float(c) for c in keys[key].split(",")]
        return sum(c * z**k for k, c in enumerate(coeffs))

    for omega in (0.01, 0.7, cutoff, 30.0):
        z = 1j * omega
        r = poly("r_numerator", z) / poly("r_denominator", z)
        s = poly("s_numerator", z) / poly("s_denominator", z)
        assert abs(r) ** 2 + abs(s) ** 2 == pytest.approx(1.0, abs=1e-13)
    den = [float(c) for c in keys["r_denominator"].split(",")]
    roots = [(-den[1] + sign * cmath.sqrt(den[1] ** 2 - 4 * den[2])) / (2 * den[2])
             for sign in (1, -1)]
    assert cutoff == pytest.approx(max(abs(x) for x in roots), rel=1e-12)


# --- checker ---------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(cli, tmp_path_factory):
    """Real stdout of a coeffs and a chi request of seed 1."""
    tmp = tmp_path_factory.mktemp("outputs")
    found = {}
    for workload in ("coeffs-rational", "chi-lorentzian"):
        request = generate(workload, 1)[0]
        argv = write_requests([request], tmp / workload)[0]
        code, stdout, _ = call(cli, argv)
        assert code == 0
        found[request.command] = stdout
    return found


VERIFY_OK = """\
unitarity_modulus: measured=6.661338e-16 allowed=1.000000e-12 PASS
dual_route_lambda: measured=4.218063e-16 allowed=1.000000e-06 PASS
einstein_relation: measured=1.097637e-13 allowed=1.000000e-03 PASS
"""


def test_checker_accepts_real_outputs(outputs):
    assert checker.check("coeffs", 0, outputs["coeffs"]) == []
    assert checker.check("chi", 0, outputs["chi"]) == []
    assert checker.check("verify", 0, VERIFY_OK) == []


def test_checker_flags_nonzero_exit(outputs):
    assert checker.check("coeffs", 3, outputs["coeffs"])


def test_checker_flags_nan_field(outputs):
    lines = outputs["coeffs"].splitlines()
    lines[1] = "lambda_spectral = nan +/- 1e-12"
    assert checker.check("coeffs", 0, "\n".join(lines))
    rows = outputs["chi"].splitlines()
    rows[3] = ",".join(["inf"] + rows[3].split(",")[1:])
    assert checker.check("chi", 0, "\n".join(rows))


def test_checker_flags_route_discrepancy(outputs):
    text = outputs["coeffs"].replace("route_discrepancy_mu = ",
                                     "route_discrepancy_mu = 2e-6\nignored = ")
    assert any("route_discrepancy_mu" in p for p in checker.check("coeffs", 0, text))


def test_checker_flags_broken_conjugate_symmetry(outputs):
    rows = outputs["chi"].splitlines()
    fields = rows[1].split(",")
    fields[6] = repr(float(fields[6]) * (1 + 1e-6) + 1e-6)
    rows[1] = ",".join(fields)
    assert checker.check("chi", 0, "\n".join(rows))


def test_checker_flags_fail_line():
    text = VERIFY_OK.replace("1.097637e-13 allowed=1.000000e-03 PASS",
                             "2.000000e-03 allowed=1.000000e-03 FAIL")
    assert checker.check("verify", 0, text) == ["verify einstein_relation: FAIL"]


def test_checker_flags_unreadable_output():
    assert checker.check("coeffs", 0, "Traceback (most recent call last):")
    assert checker.check("chi", 0, "")
    assert checker.check("verify", 0, "")


def test_reference_comparison(outputs):
    for command, stdout in outputs.items():
        reference = checker.reference_values(command, stdout)
        assert checker.compare(command, stdout, reference) == []
    reference = checker.reference_values("coeffs", outputs["coeffs"])
    value, err = reference["mu_spectral"]
    reference["mu_spectral"] = [value * (1 + 1e-6), err]
    assert checker.compare("coeffs", outputs["coeffs"], reference)
    assert checker.compare("verify", VERIFY_OK, ["unitarity_modulus"])


def test_reference_file_covers_the_default_seed():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert {w: len(v) for w, v in reference.items()} == {
        w: len(generate(w, 1)) for w in WORKLOADS}


# --- spans -----------------------------------------------------------------

def _traced_counts(cli, requests, directory):
    argvs = write_requests(requests, directory)
    recorder = spans.Recorder()
    with recorder:
        for index, argv in enumerate(argvs):
            recorder.request_id = index
            assert call(cli, argv)[0] == 0
    recorder.dump(directory / "spans.bin")
    return spans.layer_metrics(*spans.load(directory / "spans.bin"))


def test_recorder_restores_the_program(cli):
    import thermaldrag.coefficients as coefficients
    import thermaldrag.models as models
    before = (cli.parse_config, coefficients.integrate_thermal,
              models.LorentzianMirror.amplitudes)
    with spans.Recorder():
        assert cli.parse_config is not before[0]
    assert (cli.parse_config, coefficients.integrate_thermal,
            models.LorentzianMirror.amplitudes) == before


def test_deterministic_counts_repeat(cli, tmp_path):
    coeffs = generate("coeffs-rational", 5)[:4]
    chi = generate("chi-lorentzian", 5)[:1]
    runs = [_traced_counts(cli, coeffs + chi, tmp_path / f"run-{k}") for k in range(2)]
    for name in ("quadrature.evals", "models.amplitude_calls",
                 "models.nodes", "core.occupation_calls"):
        assert runs[0][name] == runs[1][name] > 0
    for metrics in runs:
        assert metrics["coefficients.reports"] == 4
        assert metrics["coefficients.thermal_calls_per_report"] == 6
        assert metrics["susceptibility.chi_calls"] == 8
        assert metrics["susceptibility.quad_calls_per_chi"] == 2
        assert metrics["cli.requests"] == 5
        assert metrics["config.parse_calls"] == 5


def test_self_times_add_up_to_the_request_time(cli, tmp_path):
    metrics = _traced_counts(cli, generate("coeffs-rational", 5)[:3], tmp_path)
    names, cols = spans.load(tmp_path / "spans.bin")
    roots = [(e - s) * 1e-9 for s, e, p in zip(cols["start"], cols["end"], cols["parent"])
             if p < 0]
    assert len(roots) == 3
    layer_self = sum(v for k, v in metrics.items() if k.endswith("self_s")
                     or k == "config.parse_s")
    assert layer_self == pytest.approx(sum(roots), rel=1e-9)


# --- the result line -------------------------------------------------------

def test_metric_catalogue_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert not set(REPORT_ONLY) & set(PER_LAYER)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chi-lorentzian",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    *report, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in report)
        assert math.isfinite(result["metrics"][name]["value"])
    if trace:
        assert any(line.split()[:1] == [name] for name in REPORT_ONLY for line in report)
        assert result["metrics"]["susceptibility.quad_calls_per_chi"]["value"] == 2
