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

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import models
from . import susceptibility as suscept
from .core import occupation_plus_one_from_ratio
from .errors import DivergentBandwidth, GridTooCoarse, RegimeViolation
from .models import MirrorModel
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, integrate_finite,
                         integrate_thermal)

ROUTE_TOLERANCE = 1e-6  # default allowed spectral/entropic relative discrepancy


@dataclass(frozen=True)
class CoefficientReport:
    """Viscosity and mass correction by both routes, with cross-checks.

    ``error_estimates`` and ``converged`` are keyed by the six integral
    fields; ``converged[name]`` is False when that integral ran out of its
    subdivision budget before meeting the tolerances.
    """

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
    converged: dict = field(default_factory=dict)
    cutoff_frequency: float | None = None


@dataclass(frozen=True)
class AsymptoticsReport:
    """Effective bandwidth, delay sum and the asymptotic coefficient laws.

    ``error_estimates`` and ``converged`` are keyed by the two integral
    fields, as in :class:`CoefficientReport`.
    """

    omega_C_effective: float
    delta_S: float
    low_frequency_reflection: float
    low_frequency_delay: float
    error_estimates: dict = field(default_factory=dict)
    converged: dict = field(default_factory=dict)

    def lambda_high_temperature(self, temp: float) -> float:
        """T >> cutoff: lambda = 2 A = 4 T Omega_C."""
        return 4.0 * temp * self.omega_C_effective

    def lambda_low_temperature(self, temp: float) -> float:
        """T << cutoff: lambda = 4 A = R0 2 pi T^2 / 3."""
        return self.low_frequency_reflection * 2.0 * math.pi * (temp * temp) / 3.0

    def mu_low_temperature(self, temp: float) -> float:
        """T << cutoff: mu = 2 B = (1 - 2 R0) tau0 pi T^2 / 3."""
        return ((1.0 - 2.0 * self.low_frequency_reflection)
                * self.low_frequency_delay * math.pi * (temp * temp) / 3.0)

    def mu_high_temperature(self, temp: float) -> float:
        """T >> cutoff: mu = B = T Delta_S."""
        return temp * self.delta_S


# ---------------------------------------------------------------------------
# thermal integrals (Bose weight supplied by integrate_thermal)

def _memoised(evaluate):
    """(name, w) -> evaluate(w)[name], with one ``evaluate`` per distinct node array.

    Integrals over the same range start on the same nodes (the initial
    panels) and mostly bisect alike, so the integrals of one call meet
    most node arrays several times.  The record of each distinct array,
    keyed on its dtype, shape and bytes, is kept as long as the returned
    function: for one call.
    """
    records = {}

    def entry(name, w):
        w = np.asarray(w)
        key = w.dtype.str, w.shape, w.tobytes()
        if key not in records:
            records[key] = evaluate(w)
        return records[key][name]

    return entry


def _report_integrands(model: MirrorModel, temp: float, w) -> dict:
    """The six integrands of :func:`compute_coefficients` on the nodes w.

    Keyed by the report fields, from one order-2 kernel pass, one b and
    one 1 + n_T(w); the entropic two still lack their route factors.
    """
    record = models.reflection_and_delay(model, w, 2)
    big_r, d_big_r, tau, d_tau = record
    b, plus = models._b_kernel(record), occupation_plus_one_from_ratio(w / temp)
    a, da = 2.0 * big_r, 2.0 * d_big_r
    db = 2.0 * (-2.0 * d_big_r * tau + (1.0 - 2.0 * big_r) * d_tau)
    return {"lambda_spectral": (2.0 * w * a + w * w * da) / math.pi,
            "lambda_entropic": w * w * big_r * plus / (math.pi * (temp * temp)),
            "mu_spectral": (2.0 * w * b + w * w * db) / (2.0 * math.pi),
            "mu_entropic": w * w * b * plus / (2.0 * math.pi * (temp * temp)),
            "A": w * big_r / math.pi,
            "B": w * b / (2.0 * math.pi)}


def _bandwidth_integrands(model: MirrorModel, w) -> dict:
    """R and b on the nodes w, keyed by the :func:`asymptotics` fields."""
    record = models.reflection_and_delay(model, w, 1)
    return {"omega_C_effective": record[0], "delta_S": models._b_kernel(record)}


def relative_gap(gap: float, scale: float) -> float:
    """gap / scale, or the bare gap when the scale is zero (lambda = 0)."""
    return gap / scale if scale > 0 else gap


def compute_coefficients(model: MirrorModel, temp: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> CoefficientReport:
    """Evaluate both routes for lambda and mu plus A and B at one temperature.

    The six thermal integrals are named after the report fields they fill
    and always run together.  Each integrand comes with its route factor:
    the entropic routes are dA/dT and dB/dT differentiated under the
    integral with dn/dT = n (1 + n) w/T^2, so lambda = 2 T dA/dT and mu =
    T dB/dT scale the value and its error.  A(T) = (1/2 pi) int dw 2 w n_T
    R[w] is strictly increasing in T; B(T) = (1/2 pi) int dw 2 w n_T (1 -
    2 R[w]) tau[w] can take either sign.

    All six pass the model's ``cutoff_frequency`` to ``integrate_thermal``:
    above the cutoff the reflection band sits at x = cutoff/T inside the
    first Bose panel, which is then split in octaves down to the band, so
    the integrals still converge on their first call (a perfect mirror has
    no cutoff and keeps the 19 panels).  All six share these x nodes, so
    their integrands are one function of the node array,
    :func:`_report_integrands`, memoised for the call: each distinct node
    array takes one kernel pass, one b and one 1 + n_T, and every value is
    the one a lone integral would compute.  A
    temperature that is not finite and > 0 raises ValueError from the
    first integral.
    """
    integrand = _memoised(functools.partial(_report_integrands, model, temp))
    factors = dict(lambda_spectral=1.0, lambda_entropic=2.0 * temp, mu_spectral=1.0,
                   mu_entropic=temp, A=1.0, B=1.0)
    value, error, converged = {}, {}, {}
    for name, factor in factors.items():
        res = integrate_thermal(functools.partial(integrand, name), temp, cfg,
                                model.cutoff_frequency)
        value[name], error[name] = factor * res.value, factor * res.error_estimate
        converged[name] = res.converged

    def rel_gap(x, y):
        # NaN when either route is non-finite, so the CLI's route gate trips
        return relative_gap(abs(x - y), max(abs(x), abs(y)))

    return CoefficientReport(
        temp=temp,
        **{name: float(v) for name, v in value.items()},
        route_discrepancy_lambda=rel_gap(value["lambda_spectral"],
                                         value["lambda_entropic"]),
        route_discrepancy_mu=rel_gap(value["mu_spectral"], value["mu_entropic"]),
        error_estimates=error,
        converged=converged,
        cutoff_frequency=model.cutoff_frequency,
    )


# ---------------------------------------------------------------------------
# asymptotics

def asymptotics(model: MirrorModel,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> AsymptoticsReport:
    """Effective bandwidth Omega_C, delay sum Delta_S and the limit laws.

    Omega_C = (1/2 pi) int_0^inf dw R[w] and Delta_S = (1/2 pi) int_0^inf
    dw (1 - 2 R[w]) 2 tau[w], both mapped to [0, 1) through w = w_C t/(1-t).
    A model without a cutoff, the perfect mirror included, has no finite
    bandwidth and raises DivergentBandwidth.  Both integrals start on the
    same nodes and read R and b from one memoised
    :func:`_bandwidth_integrands`; the
    report carries each one's claimed error and convergence flag.
    """
    cutoff = model.cutoff_frequency
    if cutoff is None:
        raise DivergentBandwidth(
            "bandwidth integrals require a high-frequency transparent model"
        )

    integrand = _memoised(functools.partial(_bandwidth_integrands, model))

    def on_half_line(name):
        def mapped(t):
            w = cutoff * t / (1.0 - t)
            return integrand(name, w) * cutoff / (1.0 - t) ** 2
        return integrate_finite(mapped, 0.0, 1.0, cfg)

    results = {name: on_half_line(name) for name in ("omega_C_effective", "delta_S")}
    return AsymptoticsReport(
        **{name: float(res.value / (2.0 * math.pi)) for name, res in results.items()},
        low_frequency_reflection=model.low_frequency_reflection,
        low_frequency_delay=model.low_frequency_delay,
        error_estimates={name: res.error_estimate / (2.0 * math.pi)
                         for name, res in results.items()},
        converged={name: res.converged for name, res in results.items()},
    )


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

    # a step or a displacement near the float range may overflow: the CLI's
    # output gate judges the printed series
    with np.errstate(all="ignore"):
        dq = (q[2:] - q[:-2]) / (2.0 * h)
        d2q = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / h**2
        force = -(report.lambda_spectral * dq + report.mu_spectral * d2q)
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
    return t[1:-1], force


# ---------------------------------------------------------------------------
# consistency checks

def einstein_check(model: MirrorModel, report: CoefficientReport,
                   cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Relative residual of the Einstein relation C_T[0]/2 = T lambda_T.

    T and lambda_T are the report's ``temp`` and ``lambda_spectral``.  The
    residual is absolute for a mirror with lambda_T = 0, and NaN when a
    chi of C_T[0]'s ladder did not converge.
    """
    temp, lam = report.temp, report.lambda_spectral
    half_c0 = 0.5 * suscept.correlation_zero_frequency(model, temp, cfg)
    return relative_gap(abs(half_c0 - temp * lam), abs(temp * lam))
