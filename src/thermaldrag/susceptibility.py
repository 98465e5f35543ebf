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

The chi_0 integrand is symmetric under w' -> w - w' because alpha is, so
chi_0 is computed as twice the integral over [0, |w|/2].  That half is
mapped onto the mirror's band by w' = g (e^u - 1), dw' = (w' + g) du, with
g the reflection cutoff (|w|/2 for a mirror without one): the quadrature
resolves w' ~ g and the octaves above it in u, not by bisecting [0, w].
The thermal kernel (w - w') alpha[w', w - w'] carries the mirror's pole
at w' = |w| -+ i g, a bump of width g/T at x = |w|/T in the Bose variable,
so delta chi_T passes g and |w| to ``integrate_thermal``, whose breakpoints
then meet the bump (and the band at x = g/T) on the first call instead of
bisecting towards it.
Reality, alpha[-w1, -w2] = alpha[w1, w2]*, gives chi_T[-w] = chi_T[w]*,
which holds bit for bit, for every model, because both parts are always
computed at |w| and conjugated once for w < 0.

The dissipative part xi_T = Im chi_T drives the force-noise spectrum via
the fluctuation-dissipation relation C_T = 2 xi_T / (1 - e^{-w/T}), and
the dispersive part Re chi_T is tied to xi_T by dispersion relations,
checked numerically by :func:`kramers_kronig_window_doubling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import occupation_plus_one_from_ratio
from .errors import GridTooCoarse, require_finite
from .models import MirrorModel
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, hilbert_transform_pv,
                         integrate_finite, integrate_thermal,
                         richardson_extrapolate)

# omega ladder for the omega -> 0 extrapolations: omega0 / 2^k, k = 0..6
_LADDER_START = 0.1
_LADDER_STEPS = 7
# chi_T is computed up to T = 1e4 x cutoff.  Without this limit the thermal
# integral of Lorentzian tau0 = 0.5 at omega = 1 converges within its claim
# up to 1e6 x cutoff; from 1e7 on, where the band at x = cutoff/T lies below
# the finest first panel (2^-20), it spends its budget, and at 1e10 its
# claimed error falls 18x short
_MAX_TEMP_PER_CUTOFF = 1e4


def _ladder_limit(sample, temp: float, power: int) -> float:
    """omega -> 0 limit of sample(omega) over the ladder omega0 / 2^k, k = 0..6.

    The start omega0 = 0.1 min(1, T) keeps the ladder below the thermal
    frequency even for cold runs; at T >= 1 and at T = 0 (the vacuum
    ladder) it is 0.1.  Richardson extrapolation with error powers power,
    2 power, 3 power, ... of the ladder step; raises ExtrapolationUnstable
    if the samples stop contracting.  A T so small that the ladder
    underflows to 0 has no limit: NaN.
    """
    start = _LADDER_START * min(1.0, temp) if temp > 0 else _LADDER_START
    ladder = start / 2.0 ** np.arange(_LADDER_STEPS)
    if not ladder[-1] > 0:
        return math.nan
    value, _ = richardson_extrapolate([sample(w) for w in ladder], power)
    return float(value)


@dataclass(frozen=True)
class SusceptibilityValue:
    """chi at one frequency, decomposed into vacuum and thermal parts.

    ``converged`` is keyed ``chi_vacuum`` and ``chi_thermal``, as in
    :class:`~thermaldrag.coefficients.CoefficientReport`: False when that
    part's quadrature ran out of its subdivision budget before meeting the
    tolerances, and for the NaN thermal part above ``_MAX_TEMP_PER_CUTOFF``.
    """

    omega: float
    chi_vacuum: complex
    chi_thermal: complex
    chi_total: complex
    error_estimate: float
    converged: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CorrelationValue:
    """Force-noise spectrum C and dissipative part xi at one frequency.

    ``converged`` is True when both of chi's quadratures converged.
    """

    omega: float
    c_spectrum: float
    xi: float
    converged: bool = True


def chi_total(model: MirrorModel, omega: float, temp: float,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> SusceptibilityValue:
    """Full susceptibility chi_T = chi_0 + delta chi_T with summed errors.

    temp = 0 returns the vacuum part alone (thermal part exactly zero), so
    ``chi_total(model, omega, 0.0).chi_vacuum`` is chi_0[omega], i omega^3 /
    6 pi for the perfect mirror.  Both parts are computed at |omega| and
    conjugated for omega < 0, so chi(-omega) == conj chi(omega) exactly
    for every model.  chi_0 is twice the integral over [0, |omega|/2] in
    u, where w' = g (e^u - 1) and g is the cutoff (|omega|/2 without one;
    held within 1e-300 and 1e3 times |omega|/2); omega = 0 is an empty
    range, 0 with no evaluation.  The thermal part is 0 there too, also
    without evaluation: its integrand w'^2 (alpha[-w', w'] - alpha[w', -w'])
    vanishes because alpha is symmetric in its two frequencies, and its
    rounding residue could never meet a relative tolerance.  Every model
    takes the same two quadratures: n_T cuts the thermal integral off and
    unitarity bounds |alpha| <= 2, so no cutoff is needed (the perfect
    mirror gives i (2 pi/3) T^2 omega); a model's cutoff and |omega| only
    place the thermal breakpoints.  Above ``_MAX_TEMP_PER_CUTOFF`` times the
    model's cutoff the thermal part and the error estimate are NaN, and
    ``converged["chi_thermal"]`` is False.  The dissipative part xi_T is
    ``chi_total.imag``, odd in omega.  A non-finite ``omega`` or ``temp``
    raises ValueError.
    """
    require_finite(omega=omega, temp=temp)
    if not temp >= 0:
        raise ValueError(f"requires temp >= 0, got {temp}")

    cutoff = model.cutoff_frequency
    width = abs(omega)
    half = 0.5 * width
    # w' = g (e^u - 1): g is the cutoff, kept above 1e-300 half so that e^u stays
    # finite and below 1e3 half, where the map is linear anyway, so that the
    # Jacobian w' + g cannot scale the integrand towards overflow
    g = min(max(cutoff or half, 1e-300 * half), 1e3 * half)

    def vacuum(u):
        wp = g * np.expm1(u)
        rest = width - wp
        return wp * rest * ((wp + g) * model.alpha(np.array((wp, rest))))

    # symmetric about w' = |omega|/2, so twice the integral over [0, |omega|/2]
    vac = integrate_finite(vacuum, 0.0, math.log1p(half / g) if half else 0.0, cfg)
    chi_vacuum = 1j / math.pi * vac.value
    error = vac.error_estimate / math.pi
    chi_thermal, thermal_converged = 0j, True
    if cutoff is not None and temp > _MAX_TEMP_PER_CUTOFF * cutoff:
        chi_thermal, error, thermal_converged = complex(math.nan, math.nan), math.nan, False
    elif temp > 0 and width > 0:
        def thermal(wp):
            # (w - w') down + (w + w') up, grouped so w' cancels when down == up
            down, up = model.alpha(np.array(((wp, -wp), (width - wp, width + wp))))
            return wp * (width * (down + up) + wp * (up - down))

        res = integrate_thermal(thermal, temp, cfg, cutoff, width)
        chi_thermal = 1j / math.pi * res.value
        error += res.error_estimate / math.pi
        thermal_converged = res.converged
    if omega < 0:  # reality: chi(-w) = conj chi(w)
        chi_vacuum, chi_thermal = chi_vacuum.conjugate(), chi_thermal.conjugate()
    return SusceptibilityValue(
        omega=omega,
        chi_vacuum=complex(chi_vacuum),
        chi_thermal=complex(chi_thermal),
        chi_total=complex(chi_vacuum + chi_thermal),
        error_estimate=error,
        converged={"chi_vacuum": vac.converged, "chi_thermal": thermal_converged},
    )


def correlation_spectrum(model: MirrorModel, omega: float, temp: float,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> CorrelationValue:
    """Force-noise spectrum from the fluctuation-dissipation relation.

    C_T[omega] = 2 xi_T[omega] / (1 - e^{-omega/T}) = 2 (1 + n_T) xi_T[omega]
    in natural units.  The omega = 0 limit is delivered by
    :func:`correlation_zero_frequency`.
    """
    require_finite(omega=omega, temp=temp)
    if omega == 0:
        raise ValueError("use correlation_zero_frequency for the omega -> 0 limit")
    if not temp > 0:
        raise ValueError(f"requires temp > 0, got {temp}")
    chi = chi_total(model, omega, temp, cfg)
    xi = chi.chi_total.imag
    prefactor = 2.0 * float(occupation_plus_one_from_ratio(omega / temp))
    return CorrelationValue(omega=omega, c_spectrum=prefactor * xi, xi=xi,
                            converged=all(chi.converged.values()))


def correlation_zero_frequency(model: MirrorModel, temp: float,
                               cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """C_T[0], extrapolated over a shrinking ladder of quasistatic frequencies.

    C has a linear leading correction in omega, so the Richardson table
    assumes error powers 1, 2, 3, ...  A ladder sample whose chi did not
    converge is taken as NaN, and so is the limit.  Raises
    ExtrapolationUnstable if the estimates stop contracting.
    """
    def sample(w):
        value = correlation_spectrum(model, w, temp, cfg)
        return value.c_spectrum if value.converged else math.nan

    return _ladder_limit(sample, temp, 1)


def vacuum_cubic_coefficient(model: MirrorModel,
                             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """omega^3 coefficient of Im chi_0, the radiative-reaction diagnostic.

    Im chi_0 / omega^3 has only even corrections, so the ladder is
    extrapolated with error powers 2, 4, 6, ...  Equals 1/6 pi for the
    perfect mirror.  Uses the unscaled ladder omega0 / 2^k of temp = 0.
    """
    return _ladder_limit(
        lambda w: chi_total(model, w, 0.0, cfg).chi_vacuum.imag / w**3, 0.0, 2)


def _dispersion_gap(chi: np.ndarray) -> float:
    """The :func:`kramers_kronig_window_doubling` gap on one grid; 0 if chi_T is 0.

    The reconstruction is unsubtracted, so on any window wide enough to
    check, where |chi_T| at the ends is not small against the peak, the
    window edges limit it.
    """
    peak = float(np.max(np.abs(chi)))
    if peak == 0.0:
        return 0.0
    inner = slice(chi.size // 4, chi.size - chi.size // 4)
    reconstructed = hilbert_transform_pv(chi.imag)[inner]
    return float(np.max(np.abs(reconstructed - chi.real[inner]))) / peak


def kramers_kronig_window_doubling(model: MirrorModel, temp: float, window: float,
                                   points: int, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """(base, doubled) dispersion-relation gaps of chi_T from one sweep.

    chi_T is sampled at the base spacing h = 2 window / (points - 1) from
    -window - k h to window + k h, k = points // 2.  The base gap reads the
    middle ``points`` samples, [-window, window]; the doubled gap reads all
    of them, so the window doubles at fixed spacing.  Each gap is the
    largest |Re chi_T - H[xi_T]| over the central half of its window,
    relative to the window's peak |chi_T|, with H the discrete Hilbert
    transform.  The grid's coefficients of h are integers or half-integers
    symmetric about 0, so the grid is exactly symmetric, and chi_T(-w) =
    chi_T(w)* holds bit for bit (see :func:`chi_total`): chi_T is computed
    on the non-negative half, 0 once for odd ``points``, and the rest is
    its conjugate.  A chi_T of the sweep whose quadratures did not both
    converge is taken as NaN, as in :func:`correlation_zero_frequency`, and
    so is every gap that reads it.  Fewer than 64 ``points`` raises
    GridTooCoarse, and a ``window`` that is not > 0 ValueError.
    """
    if points < 64:
        raise GridTooCoarse(f"need >= 64 grid points, got {points}")
    if not window > 0:  # else the grid would be constant or decreasing
        raise ValueError(f"window must be > 0, got {window}")
    k = points // 2
    h = 2.0 * window / (points - 1)
    size = points + 2 * k
    upper = (np.arange(size // 2, size) - k - 0.5 * (points - 1)) * h

    def sample(w):
        value = chi_total(model, w, temp, cfg)
        return value.chi_total if all(value.converged.values()) else complex(math.nan, math.nan)

    # Python floats, as the chi command passes: their arithmetic never warns
    half = np.array([sample(w) for w in upper.tolist()])
    chi = np.concatenate((half[size % 2:][::-1].conj(), half))
    return _dispersion_gap(chi[k:k + points]), _dispersion_gap(chi)
