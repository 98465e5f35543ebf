"""Package-wide contracts: the public surface, the non-finite input guard
and the numpy-only rule."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermaldrag
from thermaldrag import (LorentzianMirror, PerfectMirror, chi_total,
                         compute_coefficients, correlation_spectrum,
                         correlation_zero_frequency, integrate_finite,
                         integrate_thermal)

PUBLIC_NAMES = [
    "AsymptoticsReport", "CoefficientReport", "ConfigError",
    "CorrelationValue", "DivergentBandwidth", "ExtrapolationUnstable",
    "GridTooCoarse", "GrowthBoundExceeded", "LorentzianMirror", "MirrorModel",
    "PerfectMirror", "QuadratureConfig", "QuadratureResult", "RationalMirror",
    "RegimeViolation", "SusceptibilityValue", "ThermalDragError", "UnitSystem",
    "ValidationFailed", "asymptotics", "b_function", "chi_total",
    "compute_coefficients", "correlation_spectrum",
    "correlation_zero_frequency", "einstein_check", "hilbert_transform_pv",
    "integrate_finite", "integrate_thermal", "quasistatic_force",
    "reflection_probability", "richardson_extrapolate",
    "vacuum_cubic_coefficient", "validate_model",
]


def test_public_surface_is_pinned():
    # a name joins the surface only by editing this list
    assert sorted(thermaldrag.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(thermaldrag, name) is not None


def identity(w):
    return w


LORENTZIAN = LorentzianMirror(1.0)
ENTRY_POINTS = {
    "integrate_thermal": lambda v: integrate_thermal(identity, v),
    "integrate_finite-lo": lambda v: integrate_finite(identity, v, 1.0),
    "integrate_finite-hi": lambda v: integrate_finite(identity, 0.0, v),
    "compute_coefficients": lambda v: compute_coefficients(LORENTZIAN, v),
    "chi_total-omega": lambda v: chi_total(LORENTZIAN, v, 1.0),
    # a cutoff-less model takes the same thermal quadrature as any other
    "chi_total-temp": lambda v: chi_total(PerfectMirror(), 0.5, v),
    "correlation_spectrum-omega": lambda v: correlation_spectrum(LORENTZIAN, v, 1.0),
    "correlation_spectrum-temp": lambda v: correlation_spectrum(LORENTZIAN, 0.5, v),
    # the temperature of the Einstein check's C_T[0] ladder
    "correlation_zero_frequency": lambda v: correlation_zero_frequency(LORENTZIAN, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_input_raises(entry, value):
    with pytest.raises(ValueError, match="must be finite"):
        ENTRY_POINTS[entry](value)


def test_requests_import_neither_scipy_nor_numpy_polynomial(tmp_path):
    # the package is numpy-only and evaluates polynomials itself
    rational = tmp_path / "rational.cfg"
    den = "1, -2.0223748416156684, 1"
    rational.write_text("temperature = 1.0\n[model]\nkind = rational\n"
                        f"r_numerator = 0, 0.3\nr_denominator = {den}\n"
                        f"s_numerator = 1, 0, -1\ns_denominator = {den}\n")
    chi = tmp_path / "chi.cfg"
    chi.write_text("temperature = 1.0\nomega_min = -1\nomega_max = 1\n"
                   "[model]\nkind = lorentzian\ntau0 = 1.0\n")
    script = f"""
import contextlib, io, sys
from thermaldrag import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["coeffs", "--config", {str(rational)!r}]),
             cli.main(["chi", "--config", {str(chi)!r}])]
print(codes, sorted(m for m in sys.modules
                    if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")))
"""
    src = Path(thermaldrag.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == "[0, 0] []\n"
