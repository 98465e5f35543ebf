"""Package-wide contracts: the public surface and the non-finite input guard."""

import math

import pytest

import thermaldrag
from thermaldrag import (LorentzianMirror, PerfectMirror, chi_total,
                         compute_coefficients, correlation_spectrum,
                         einstein_check, integrate_finite, integrate_thermal)

PUBLIC_NAMES = [
    "AsymptoticsReport", "CoefficientReport", "ConfigError",
    "CorrelationValue", "DivergentBandwidth", "ExtrapolationUnstable",
    "GridTooCoarse", "GrowthBoundExceeded", "LorentzianMirror", "MirrorModel",
    "PerfectMirror", "QuadratureConfig", "QuadratureResult", "RationalMirror",
    "RegimeViolation", "SusceptibilityValue", "ThermalDragError", "UnitSystem",
    "ValidationFailed", "WindowTruncationWarning", "alpha_kernel",
    "asymptotics", "b_function", "chi_total", "compute_coefficients",
    "correlation_spectrum", "correlation_zero_frequency", "einstein_check",
    "hilbert_transform_pv", "integrate_finite", "integrate_thermal",
    "kramers_kronig_check", "lambda_spectral", "mu_spectral",
    "quasistatic_force", "reflection_probability", "richardson_extrapolate",
    "scattering_delay", "vacuum_cubic_coefficient", "validate_model",
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
    "einstein_check": lambda v: einstein_check(LORENTZIAN, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_input_raises(entry, value):
    with pytest.raises(ValueError, match="must be finite"):
        ENTRY_POINTS[entry](value)
