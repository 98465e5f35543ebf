"""Motional susceptibility of a mirror in vacuum and in a thermal field.

The frequency-domain response chi[omega] relating a small displacement to
the induced radiation-pressure force, delta F[omega] = chi[omega] delta
q[omega], splits into a vacuum part and a thermal correction,

    chi_T = chi_0 + delta chi_T

    chi_0[w]       = (i/2pi) int_0^w  dw' w'(w - w') alpha[w', w - w']
    delta chi_T[w] = (i/pi)  int_0^inf dw' w' n_T[w']
                     ( (w - w') alpha[w', w - w'] + (w + w') alpha[-w', w + w'] )

in natural units (hbar = c = 1).  Computing through this split keeps the
smoothed sign function coth(w/2T) away from its pole and confines the
semi-infinite range to the exponentially weighted part.

The dissipative part xi_T = Im chi_T drives the force-noise spectrum via
the fluctuation-dissipation relation C_T = 2 xi_T / (1 - e^{-w/T}), and
the dispersive part Re chi_T is tied to xi_T by dispersion relations,
checked numerically in :func:`kramers_kronig_check`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import GridTooCoarse, GrowthBoundExceeded, WindowTruncationWarning
from .models import MirrorModel, PerfectMirror
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, QuadratureResult,
                         hilbert_transform_pv, integrate_finite,
                         integrate_thermal, richardson_extrapolate)

# omega ladder for the omega -> 0 extrapolations: omega0 / 2^k, k = 0..6
_LADDER_START = 0.1
_LADDER_STEPS = 7


def _omega_ladder(temp: float):
    """Shrinking frequency ladder inside the quasistatic window.

    The start scales with min(1, T) so the ladder stays below the thermal
    frequency even for cold runs; at T >= 1 and at T = 0 (the vacuum
    ladder) it is the plain 0.1 / 2^k.
    """
    start = _LADDER_START * min(1.0, temp) if temp > 0 else _LADDER_START
    return start / 2.0 ** np.arange(_LADDER_STEPS)


def _ladder_limit(sample, temp: float, power: int) -> float:
    """omega -> 0 limit of sample(omega) over the ladder of ``temp``.

    Richardson extrapolation with error powers power, 2 power, 3 power, ...
    of the ladder step; raises ExtrapolationUnstable if the samples stop
    contracting.
    """
    value, _ = richardson_extrapolate([sample(w) for w in _omega_ladder(temp)],
                                      power)
    return float(value)


@dataclass(frozen=True)
class SusceptibilityValue:
    """chi at one frequency, decomposed into vacuum and thermal parts."""

    omega: float
    chi_vacuum: complex
    chi_thermal: complex
    chi_total: complex
    error_estimate: float


@dataclass(frozen=True)
class CorrelationValue:
    """Force-noise spectrum C and dissipative part xi at one frequency."""

    omega: float
    c_spectrum: float
    xi: float


def _vacuum_quad(model: MirrorModel, omega: float,
                 cfg: QuadratureConfig) -> QuadratureResult:
    if omega == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)

    def integrand(wp):
        return wp * (omega - wp) * models.alpha_kernel(model, wp, omega - wp)

    if omega > 0:
        res = integrate_finite(integrand, 0.0, omega, cfg)
        sign = 1.0
    else:
        res = integrate_finite(integrand, omega, 0.0, cfg)
        sign = -1.0
    value = sign * 1j / (2.0 * math.pi) * res.value
    return QuadratureResult(value, res.error_estimate / (2.0 * math.pi),
                            res.evaluations, res.converged)


def _thermal_quad(model: MirrorModel, omega: float, temp: float,
                  cfg: QuadratureConfig) -> QuadratureResult:
    if isinstance(model, PerfectMirror):
        # alpha = 2 collapses the kernel to 4*omega: the integral is the
        # first Bose moment, pi^2 T^2 / 6, known in closed form.
        value = 1j * (2.0 * math.pi / 3.0) * temp**2 * omega
        return QuadratureResult(value, 0.0, 0, True)
    if model.cutoff_frequency is None:
        raise GrowthBoundExceeded(
            "thermal susceptibility needs a high-frequency transparent model"
        )

    def integrand(wp):
        down = (omega - wp) * models.alpha_kernel(model, wp, omega - wp)
        up = (omega + wp) * models.alpha_kernel(model, -wp, omega + wp)
        return wp * (down + up)

    res = integrate_thermal(integrand, temp, cfg)
    value = 1j / math.pi * res.value
    return QuadratureResult(value, res.error_estimate / math.pi,
                            res.evaluations, res.converged)


def chi_total(model: MirrorModel, omega: float, temp: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> SusceptibilityValue:
    """Full susceptibility chi_T = chi_0 + delta chi_T with summed errors.

    temp = 0 returns the vacuum part alone (thermal part exactly zero), so
    ``chi_total(model, omega, 0.0).chi_vacuum`` is chi_0[omega], conjugate
    symmetric in omega and i omega^3 / 6 pi for the perfect mirror.  The
    thermal part needs a transparent model (finite cutoff) so the
    Bose-weighted integral converges; the perfect mirror takes an exact
    closed-form branch instead.  The dissipative part xi_T is
    ``chi_total.imag``, odd in omega.
    """
    if not temp >= 0:
        raise ValueError(f"requires temp >= 0, got {temp}")
    vac = _vacuum_quad(model, omega, cfg)
    if temp == 0:
        thermal = QuadratureResult(0.0 + 0.0j, 0.0, 0, True)
    else:
        thermal = _thermal_quad(model, omega, temp, cfg)
    total = vac.value + thermal.value
    return SusceptibilityValue(
        omega=omega,
        chi_vacuum=complex(vac.value),
        chi_thermal=complex(thermal.value),
        chi_total=complex(total),
        error_estimate=vac.error_estimate + thermal.error_estimate,
    )


def correlation_spectrum(model: MirrorModel, omega: float, temp: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> CorrelationValue:
    """Force-noise spectrum from the fluctuation-dissipation relation.

    C_T[omega] = 2 xi_T[omega] / (1 - e^{-omega/T}) in natural units.  The
    omega = 0 limit is delivered by :func:`correlation_zero_frequency`.
    """
    if omega == 0:
        raise ValueError("use correlation_zero_frequency for the omega -> 0 limit")
    if not temp > 0:
        raise ValueError(f"requires temp > 0, got {temp}")
    xi = chi_total(model, omega, temp, cfg).chi_total.imag
    x = omega / temp
    if x > 700.0:
        prefactor = 2.0  # deep quantum side: C -> 2 xi
    elif x < -700.0:
        prefactor = -2.0 * math.exp(x)  # spectrum dies out exponentially
    else:
        prefactor = 2.0 / -math.expm1(-x)
    return CorrelationValue(omega=omega, c_spectrum=prefactor * xi, xi=xi)


def correlation_zero_frequency(model: MirrorModel, temp: float,
                               cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """C_T[0], extrapolated over a shrinking ladder of quasistatic frequencies.

    C has a linear leading correction in omega, so the Richardson table
    assumes error powers 1, 2, 3, ...  Raises ExtrapolationUnstable if the
    estimates stop contracting.
    """
    return _ladder_limit(
        lambda w: correlation_spectrum(model, w, temp, cfg).c_spectrum, temp, 1)


def vacuum_cubic_coefficient(model: MirrorModel,
                             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """omega^3 coefficient of Im chi_0, the radiative-reaction diagnostic.

    Im chi_0 / omega^3 has only even corrections, so the ladder is
    extrapolated with error powers 2, 4, 6, ...  Equals 1/6 pi for the
    perfect mirror.  Uses the unscaled ladder omega0 / 2^k of temp = 0.
    """
    return _ladder_limit(
        lambda w: chi_total(model, w, 0.0, cfg).chi_vacuum.imag / w**3, 0.0, 2)


def kramers_kronig_check(model: MirrorModel, temp: float, grid,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Dispersion-relation self-consistency of chi_T on a uniform grid.

    Reconstructs the dispersive part on the grid interior (central half)
    as the discrete Hilbert transform of the sampled xi_T and returns the
    maximum discrepancy against Re chi_T, relative to the peak of |chi_T|
    over the grid.  When |chi| at the window ends is not small against
    that peak, a :class:`WindowTruncationWarning` is attached: the window
    then truncates slowly decaying tails and bounds the achievable
    agreement.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 64:
        raise GridTooCoarse(f"need >= 64 grid points, got {grid.size}")
    steps = np.diff(grid)
    if not np.all(steps > 0) or not np.allclose(steps, steps[0], rtol=1e-9):
        raise ValueError("grid must be uniformly spaced and increasing")

    chi = np.array([chi_total(model, w, temp, cfg).chi_total for w in grid])
    xi = chi.imag
    re = chi.real
    peak = float(np.max(np.abs(chi)))
    if peak == 0.0:
        return 0.0
    edge = max(abs(chi[0]), abs(chi[-1]))
    if edge >= 1e-3 * peak:
        warnings.warn(
            f"|chi| at the window ends is {edge / peak:.2e} of the grid peak; "
            "the reconstruction is window-truncation limited",
            WindowTruncationWarning,
            stacklevel=2,
        )

    n = grid.size
    interior = range(n // 4, n - n // 4)
    worst = 0.0
    for i in interior:
        reconstructed = hilbert_transform_pv(xi, i)
        worst = max(worst, abs(reconstructed - re[i]))
    return worst / peak
