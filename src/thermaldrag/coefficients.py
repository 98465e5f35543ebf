"""Quasistatic coefficients of the motional force: viscosity and mass correction.

At low frequencies the motional force expands as

    delta F(t) = -(lambda_T dq/dt + mu_T d2q/dt2 + ...)

and each coefficient has two independent evaluation routes (natural units):

  spectral   lambda_T = (1/pi)    int_0^inf dw n_T(w) d/dw (w^2 a[w])
             mu_T     = (1/2 pi)  int_0^inf dw n_T(w) d/dw (w^2 b[w])
  entropic   lambda_T = 2 T dA/dT   with  A(T) = (1/pi)   int dw w n_T R[w]
             mu_T     =   T dB/dT   with  B(T) = (1/2 pi) int dw w n_T b[w]

The two routes are related by integration by parts plus the scaling
identity -w dn/dw = T dn/dT; their agreement is the main internal
cross-check.  A(T) is the thermal energy flux intercepted by the mirror's
reflection band, so lambda tracks the Doppler momentum transfer: lambda =
2A at high temperature and 4A at low temperature.

The derivative d/dw (w^2 a) is expanded analytically to 2 w a + w^2 a', so
only a' and b' need model derivatives, and the T-derivatives dA/dT, dB/dT
are taken under the integral with the closed form dn/dT = n (1 + n) w/T^2
rather than by finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import models
from . import susceptibility as suscept
from .core import occupation_plus_one_from_ratio
from .errors import DivergentBandwidth, GridTooCoarse, RegimeViolation
from .models import MirrorModel, PerfectMirror
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, integrate_finite,
                         integrate_thermal)

ROUTE_TOLERANCE = 1e-6  # default allowed spectral/entropic relative discrepancy


@dataclass(frozen=True)
class CoefficientReport:
    """Viscosity and mass correction by both routes, with cross-checks."""

    temp: float
    lambda_spectral: float
    lambda_entropic: float
    mu_spectral: float
    mu_entropic: float
    A: float
    B: float
    route_discrepancy_lambda: float
    route_discrepancy_mu: float
    error_estimates: dict = field(default_factory=dict)
    cutoff_frequency: float | None = None


@dataclass(frozen=True)
class AsymptoticsReport:
    """Effective bandwidth, delay sum and the asymptotic coefficient laws."""

    omega_C_effective: float
    delta_S: float
    low_frequency_reflection: float
    low_frequency_delay: float

    def lambda_high_temperature(self, temp: float) -> float:
        """T >> cutoff: lambda = 2 A = 4 T Omega_C."""
        return 4.0 * temp * self.omega_C_effective

    def lambda_low_temperature(self, temp: float) -> float:
        """T << cutoff: lambda = 4 A = R0 2 pi T^2 / 3."""
        return self.low_frequency_reflection * 2.0 * math.pi * temp**2 / 3.0

    def mu_low_temperature(self, temp: float) -> float:
        """T << cutoff: mu = 2 B = (1 - 2 R0) tau0 pi T^2 / 3."""
        return ((1.0 - 2.0 * self.low_frequency_reflection)
                * self.low_frequency_delay * math.pi * temp**2 / 3.0)

    def mu_high_temperature(self, temp: float) -> float:
        """T >> cutoff: mu = B = T Delta_S."""
        return temp * self.delta_S


@dataclass(frozen=True)
class MassBoundReport:
    cutoff_condition_holds: bool | None  # None when the model has no cutoff
    mass_condition_holds: bool
    cutoff_ratio: float | None  # omega_C / m in natural units
    mass_ratio: float           # |mu_T| / m
    mu: float


# ---------------------------------------------------------------------------
# thermal integrals (Bose weight supplied by integrate_thermal)

def _thermal_integrals(model: MirrorModel, temp: float, cfg: QuadratureConfig,
                       names=None) -> dict:
    """(value, error estimate) of each named thermal integral, in order.

    The six integrals are named after the report fields they fill;
    ``names=None`` runs all six in report order.  Each integrand comes
    with its route factor: the entropic routes are dA/dT and dB/dT
    differentiated under the integral with dn/dT = n (1 + n) w/T^2, so
    lambda = 2 T dA/dT and mu = T dB/dT scale the value and its error.
    A(T) = (1/2 pi) int dw 2 w n_T R[w] is strictly increasing in T; B(T)
    = (1/2 pi) int dw 2 w n_T (1 - 2 R[w]) tau[w] can take either sign.
    """
    def lambda_spectral_f(w):
        big_r, d_big_r, _, _ = models.reflection_and_delay(model, w)
        a, da = 2.0 * big_r, 2.0 * d_big_r
        return (2.0 * w * a + w * w * da) / math.pi

    def lambda_entropic_f(w):
        big_r = models.reflection_probability(model, w)
        plus = occupation_plus_one_from_ratio(np.asarray(w) / temp)
        return w * w * big_r * plus / (math.pi * temp**2)

    def mu_spectral_f(w):
        big_r, d_big_r, tau, d_tau = models.reflection_and_delay(model, w, order=2)
        b = 2.0 * (1.0 - 2.0 * big_r) * tau
        db = 2.0 * (-2.0 * d_big_r * tau + (1.0 - 2.0 * big_r) * d_tau)
        return (2.0 * w * b + w * w * db) / (2.0 * math.pi)

    def mu_entropic_f(w):
        b = models.b_function(model, w)
        plus = occupation_plus_one_from_ratio(np.asarray(w) / temp)
        return w * w * b * plus / (2.0 * math.pi * temp**2)

    def a_f(w):
        return w * models.reflection_probability(model, w) / math.pi

    def b_f(w):
        return w * models.b_function(model, w) / (2.0 * math.pi)

    integrands = {
        "lambda_spectral": (lambda_spectral_f, 1.0),
        "lambda_entropic": (lambda_entropic_f, 2.0 * temp),
        "mu_spectral": (mu_spectral_f, 1.0),
        "mu_entropic": (mu_entropic_f, temp),
        "A": (a_f, 1.0),
        "B": (b_f, 1.0),
    }
    results = {}
    for name in names or integrands:
        f, factor = integrands[name]
        res = integrate_thermal(f, temp, cfg)
        results[name] = (factor * res.value, factor * res.error_estimate)
    return results


def lambda_spectral(model: MirrorModel, temp: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Viscosity from the spectral route; positive for any reflecting model."""
    results = _thermal_integrals(model, temp, cfg, ("lambda_spectral",))
    return float(results["lambda_spectral"][0])


def mu_spectral(model: MirrorModel, temp: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Mass correction from the spectral route; vanishes for zero delay."""
    results = _thermal_integrals(model, temp, cfg, ("mu_spectral",))
    return float(results["mu_spectral"][0])


def compute_coefficients(model: MirrorModel, temp: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> CoefficientReport:
    """Evaluate both routes for lambda and mu plus A and B at one temperature.

    The entropic routes, A and B are computed only here, as report fields;
    :func:`lambda_spectral` and :func:`mu_spectral` give a spectral route
    alone.
    """
    if not temp > 0:
        raise ValueError(f"requires temp > 0, got {temp}")
    results = _thermal_integrals(model, temp, cfg)
    value = {name: v for name, (v, _) in results.items()}

    def rel_gap(x, y):
        # NaN when either route is non-finite, so the CLI's route gate trips
        gap, scale = abs(x - y), max(abs(x), abs(y))
        return gap / scale if scale > 0 else gap

    return CoefficientReport(
        temp=temp,
        **{name: float(v) for name, v in value.items()},
        route_discrepancy_lambda=rel_gap(value["lambda_spectral"],
                                         value["lambda_entropic"]),
        route_discrepancy_mu=rel_gap(value["mu_spectral"], value["mu_entropic"]),
        error_estimates={name: err for name, (_, err) in results.items()},
        cutoff_frequency=model.cutoff_frequency,
    )


# ---------------------------------------------------------------------------
# asymptotics

def asymptotics(model: MirrorModel,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> AsymptoticsReport:
    """Effective bandwidth Omega_C, delay sum Delta_S and the limit laws.

    Omega_C = (1/2 pi) int_0^inf dw R[w] and Delta_S = (1/2 pi) int_0^inf
    dw (1 - 2 R[w]) 2 tau[w], both mapped to [0, 1) through w = w_C t/(1-t).
    The perfect mirror gets the divergent-bandwidth marker Omega_C = inf
    with Delta_S = 0; any other model without a finite cutoff is rejected.
    """
    cutoff = model.cutoff_frequency
    if cutoff is None:
        if isinstance(model, PerfectMirror):
            return AsymptoticsReport(math.inf, 0.0,
                                     model.low_frequency_reflection,
                                     model.low_frequency_delay)
        raise DivergentBandwidth(
            "bandwidth integrals require a high-frequency transparent model"
        )

    def on_half_line(g):
        def mapped(t):
            w = cutoff * t / (1.0 - t)
            return g(w) * cutoff / (1.0 - t) ** 2
        return integrate_finite(mapped, 0.0, 1.0, cfg).value / (2.0 * math.pi)

    omega_c_eff = on_half_line(lambda w: models.reflection_probability(model, w))
    delta_s = on_half_line(lambda w: models.b_function(model, w))
    return AsymptoticsReport(float(omega_c_eff), float(delta_s),
                             model.low_frequency_reflection,
                             model.low_frequency_delay)


# ---------------------------------------------------------------------------
# quasistatic force on a trajectory

def quasistatic_force(report: CoefficientReport, times, displacements):
    """Force series -(lambda dq/dt + mu d2q/dt2) on a uniform time grid.

    Uses the spectral-route coefficients and central differences, so only
    interior points are returned.

    Parameters
    ----------
    report : CoefficientReport
        Coefficients to apply.
    times, displacements : array_like
        Uniformly spaced trajectory samples (at least 3 points).

    Returns
    -------
    (ndarray, ndarray)
        Interior times and the force at them.
    """
    t = np.asarray(times, dtype=float)
    q = np.asarray(displacements, dtype=float)
    if t.ndim != 1 or t.size < 3 or q.shape != t.shape:
        raise GridTooCoarse("need matching 1-D series of at least 3 points")
    steps = np.diff(t)
    h = steps[0]
    if not h > 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("time grid must be uniform (relative tolerance 1e-9)")

    dq = (q[2:] - q[:-2]) / (2.0 * h)
    d2q = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / h**2

    # quasistatic validity: trajectory rates should sit far below the
    # reflection cutoff and the thermal frequency
    rate_scale = max(np.max(np.abs(dq)), 1e-300)
    traj_rate = np.max(np.abs(d2q)) / rate_scale
    limits = [report.temp]
    if report.cutoff_frequency:
        limits.append(report.cutoff_frequency)
    if traj_rate > 0.1 * min(limits):
        warnings.warn(
            f"trajectory rate {traj_rate:.3g} is not small against the "
            f"quasistatic scales {limits}",
            RegimeViolation,
            stacklevel=2,
        )

    force = -(report.lambda_spectral * dq + report.mu_spectral * d2q)
    return t[1:-1], force


# ---------------------------------------------------------------------------
# consistency checks

def einstein_check(model: MirrorModel, temp: float,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Relative residual of the Einstein relation C_T[0]/2 = T lambda_T."""
    if not temp > 0:
        raise ValueError(f"requires temp > 0, got {temp}")
    lam = lambda_spectral(model, temp, cfg)
    half_c0 = 0.5 * suscept.correlation_zero_frequency(model, temp, cfg)
    return abs(half_c0 - temp * lam) / abs(temp * lam)


def mass_bound_check(model: MirrorModel, temp: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG,
                     mirror_mass: float = 1.0) -> MassBoundReport:
    """Check the cutoff-vs-mass condition and |mu_T| < m, m = ``mirror_mass`` > 0.

    The cutoff condition reads omega_C < 0.01 m in natural units (the
    point-mirror description needs the cutoff well below the rest energy);
    it is skipped (None) for models without a cutoff.  Warns with
    :class:`RegimeViolation` when T >= omega_C, outside the low-temperature
    validity regime.
    """
    if not mirror_mass > 0:
        raise ValueError(f"mirror_mass must be > 0, got {mirror_mass}")
    cutoff = model.cutoff_frequency
    if cutoff is not None and temp >= cutoff:
        warnings.warn(
            f"T = {temp} is not below the cutoff {cutoff}; the low-temperature "
            "regime assumptions do not hold",
            RegimeViolation,
            stacklevel=2,
        )
    mu = mu_spectral(model, temp, cfg)
    return MassBoundReport(
        cutoff_condition_holds=(None if cutoff is None
                                else bool(cutoff < 0.01 * mirror_mass)),
        mass_condition_holds=bool(abs(mu) < mirror_mass),
        cutoff_ratio=None if cutoff is None else cutoff / mirror_mass,
        mass_ratio=abs(mu) / mirror_mass,
        mu=mu,
    )


def lambda_from_chi_slope(model: MirrorModel, temp: float,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Viscosity extracted from the susceptibility slope, xi_T[w]/w -> lambda.

    Cross-checks the coefficient integrals against the full chi_T; the
    ladder has only even corrections (xi is odd).
    """
    return suscept._ladder_limit(
        lambda w: suscept.chi_total(model, w, temp, cfg).chi_total.imag / w,
        temp, 2)


def mu_from_chi_curvature(model: MirrorModel, temp: float,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Mass correction from the susceptibility curvature, Re chi_T[w]/w^2 -> mu."""
    return suscept._ladder_limit(
        lambda w: suscept.chi_total(model, w, temp, cfg).chi_total.real / w**2,
        temp, 2)
