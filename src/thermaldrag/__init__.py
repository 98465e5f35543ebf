"""Motional radiation forces on a mirror scattering a thermal scalar field.

Computes the motional susceptibility chi_T[omega], the thermal viscosity
lambda_T and the inertial mass correction mu_T for unitary, causal, real
scattering models of a point mirror in 1+1 dimensions, each by two
independent numerical routes with analytic-limit cross-checks.
"""

from .coefficients import (AsymptoticsReport, CoefficientReport,
                           MassBoundConfig, MassBoundReport, asymptotics,
                           compute_coefficients, einstein_check, energy_flux_A,
                           lambda_entropic, lambda_from_chi_slope,
                           lambda_spectral, mass_bound_check,
                           mu_entropic, mu_from_chi_curvature, mu_spectral,
                           quasistatic_force, stocked_quantity_B)
from .core import (UnitSystem, bose_occupation,
                   bose_occupation_temp_derivative, smoothed_sign)
from .errors import (ConfigError, DivergentBandwidth, ExtrapolationUnstable,
                     GridTooCoarse, GrowthBoundExceeded, RegimeViolation,
                     ThermalDragError, ValidationFailed,
                     WindowTruncationWarning)
from .models import (LorentzianMirror, MirrorModel, PerfectMirror,
                     RationalMirror, a_function, alpha_kernel, b_function,
                     reflection_probability, scattering_delay, validate_model)
from .quadrature import (QuadratureConfig, QuadratureResult,
                         hilbert_transform_pv, integrate_finite,
                         integrate_thermal, richardson_extrapolate)
from .susceptibility import (CorrelationValue, SusceptibilityValue,
                             chi_thermal_correction, chi_total, chi_vacuum,
                             correlation_spectrum, correlation_zero_frequency,
                             dissipative_part, kramers_kronig_check,
                             vacuum_cubic_coefficient)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport", "CoefficientReport", "ConfigError",
    "CorrelationValue", "DivergentBandwidth", "ExtrapolationUnstable",
    "GridTooCoarse", "GrowthBoundExceeded",
    "LorentzianMirror", "MassBoundConfig", "MassBoundReport", "MirrorModel",
    "PerfectMirror", "QuadratureConfig", "QuadratureResult", "RationalMirror",
    "RegimeViolation", "SusceptibilityValue", "ThermalDragError", "UnitSystem",
    "ValidationFailed", "WindowTruncationWarning", "a_function",
    "alpha_kernel", "asymptotics", "b_function", "bose_occupation",
    "bose_occupation_temp_derivative", "chi_thermal_correction", "chi_total",
    "chi_vacuum", "compute_coefficients", "correlation_spectrum",
    "correlation_zero_frequency", "dissipative_part",
    "einstein_check", "energy_flux_A", "hilbert_transform_pv",
    "integrate_finite", "integrate_thermal", "kramers_kronig_check",
    "lambda_entropic", "lambda_from_chi_slope", "lambda_spectral",
    "mass_bound_check", "mu_entropic", "mu_from_chi_curvature", "mu_spectral",
    "quasistatic_force", "reflection_probability", "richardson_extrapolate",
    "scattering_delay", "smoothed_sign", "stocked_quantity_B",
    "validate_model", "vacuum_cubic_coefficient",
]
