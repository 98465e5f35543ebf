"""Motional radiation forces on a mirror scattering a thermal scalar field.

Computes the motional susceptibility chi_T[omega], the thermal viscosity
lambda_T and the inertial mass correction mu_T for unitary, causal, real
scattering models of a point mirror in 1+1 dimensions, each by two
independent numerical routes with analytic-limit cross-checks.
"""

from .coefficients import (AsymptoticsReport, CoefficientReport, asymptotics,
                           compute_coefficients, einstein_check,
                           quasistatic_force)
from .core import UnitSystem
from .errors import (ConfigError, DivergentBandwidth, ExtrapolationUnstable,
                     GridTooCoarse, GrowthBoundExceeded, RegimeViolation,
                     ThermalDragError, ValidationFailed)
from .models import (LorentzianMirror, MirrorModel, PerfectMirror,
                     RationalMirror, b_function, reflection_probability,
                     validate_model)
from .quadrature import (QuadratureConfig, QuadratureResult,
                         hilbert_transform_pv, integrate_finite,
                         integrate_thermal, richardson_extrapolate)
from .susceptibility import (CorrelationValue, SusceptibilityValue, chi_total,
                             correlation_spectrum, correlation_zero_frequency,
                             vacuum_cubic_coefficient)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport", "CoefficientReport", "ConfigError",
    "CorrelationValue", "DivergentBandwidth", "ExtrapolationUnstable",
    "GridTooCoarse", "GrowthBoundExceeded", "LorentzianMirror", "MirrorModel",
    "PerfectMirror", "QuadratureConfig", "QuadratureResult", "RationalMirror",
    "RegimeViolation", "SusceptibilityValue", "ThermalDragError", "UnitSystem",
    "ValidationFailed", "asymptotics", "b_function", "chi_total",
    "compute_coefficients", "correlation_spectrum",
    "correlation_zero_frequency", "einstein_check", "hilbert_transform_pv",
    "integrate_finite", "integrate_thermal", "quasistatic_force",
    "reflection_probability", "richardson_extrapolate", "validate_model",
    "vacuum_cubic_coefficient",
]
