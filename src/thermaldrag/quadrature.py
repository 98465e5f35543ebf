"""Adaptive quadrature, a discrete Hilbert transform and Richardson extrapolation.

The workhorse is a Gauss-Kronrod 7/15 pair with worst-first interval
bisection in rounds.  Integrands receive a 1-D numpy array of nodes and
must return an array of values (real or complex) of the same shape.
Integrands must be pointwise: the value at a node may depend on that node
only, because one call carries the nodes of several panels (all initial
panels at once, then all the halves of a round).  Results are
deterministic for a fixed configuration: each round sorts the panels by
error with a stable sort, and the sums run over the panels in that order.

The panels of one call are reduced together, one stacked matmul per
weighted sum, and each panel still rounds bit for bit as it would alone;
``_gk_panels`` names the three roundings that this rests on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import X_UNDERFLOW, occupation_from_ratio
from .errors import (ExtrapolationUnstable, GridTooCoarse, GrowthBoundExceeded,
                     require_finite)

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (standard QUADPACK values).
_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)
# the value and the error of a panel (a, b, value, error)
_VALUE, _ERROR = operator.itemgetter(2), operator.itemgetter(3)

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the adaptive rules."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        require_finite(rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be > 0")
        budget = self.max_subdivisions
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise ValueError(f"max_subdivisions must be an int, got {budget!r}")
        if budget < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass
class QuadratureResult:
    """Value, claimed error bound and evaluation count of one integration.

    ``converged`` is False when the subdivision budget ran out before the
    tolerances were met (the value is still the best available estimate).
    """

    value: complex | float
    error_estimate: float
    evaluations: int
    converged: bool = True


def _gk_panels(f, panels):
    """Gauss-Kronrod 7/15 on every (a, b) in ``panels`` from one call of f.

    The nodes of all panels reach ``f`` as one array, so ``f`` must be
    pointwise.  The values are stacked as (panels, 15, 1) columns, so each
    weighted sum is one matmul whose stack entries are 1x15 @ 15x1 dots:
    numpy sends each to the same BLAS dot as a lone panel's ``_WK @ row``,
    and every panel's sums are bit for bit those of a lone panel.  Three
    roundings must not change on the way: the Gauss nodes are gathered
    with ``take``, which stays C-ordered (the fancy index
    ``y[:, _GAUSS_IDX]`` is not, and its dots round differently); the
    ``** 1.5`` of the error formula stays a scalar power, because numpy's
    array power takes a SIMD path that rounds differently from ``pow``;
    and the values and errors stay numpy scalars, so the driver's sums are
    plain additions (Python 3.12's ``sum`` compensates over exact floats).
    Returns a list of (a, b, value, error), one per panel.
    """
    ends = np.array(panels, dtype=float)
    width = ends[:, 1] - ends[:, 0]
    half = 0.5 * width
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    y = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
    y = y.reshape(len(panels), _NODES.size, 1)
    resk = half * (_WK @ y)[:, 0]
    resg = half * (_WG @ y.take(_GAUSS_IDX, axis=1))[:, 0]
    floor = 50.0 * _EPS * (half * (_WK @ np.abs(y))[:, 0])
    resasc = half * (_WK @ np.abs(y - (resk / width)[:, None, None]))[:, 0]
    out = []
    for (a, b), k, g, asc, low in zip(panels, resk, resg, resasc, floor):
        err = abs(k - g)
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        # roundoff floor on the claimed error
        out.append((a, b, k, max(err, low)))
    return out


def _adaptive(f, breakpoints, cfg: QuadratureConfig) -> QuadratureResult:
    """Adaptive bisection over the initial panels given by ``breakpoints``.

    Each round halves the worst panels, just enough of them that the error
    of the others meets the tolerance, skipping panels at roundoff width
    and never passing ``max_subdivisions`` panels.  A NaN error halves none.
    The initial panels share one call of ``f``, and so do a round's halves.
    """
    panels = _gk_panels(f, list(zip(breakpoints[:-1], breakpoints[1:])))
    evaluations = _NODES.size * len(panels)
    while True:
        # stable, so panels of equal error keep their order
        panels.sort(key=_ERROR, reverse=True)
        total = sum(map(_VALUE, panels))
        total_err = sum(map(_ERROR, panels))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        room = cfg.max_subdivisions - len(panels)
        left = total_err
        kept, halves = [], []
        for i, panel in enumerate(panels):
            # left never grows (or stays NaN), so no later panel is halved
            if not (left > tol and len(halves) < 2 * room):
                kept += panels[i:]
                break
            a, b = panel[0], panel[1]
            mid = 0.5 * (a + b)
            if mid - a >= _EPS * max(abs(a), abs(b), 1.0):
                halves += [(a, mid), (mid, b)]
                left -= panel[3]
            else:
                kept.append(panel)
        if not halves:
            break
        panels = kept + _gk_panels(f, halves)
        evaluations += _NODES.size * len(halves)
    return QuadratureResult(total, float(total_err), evaluations,
                            bool(total_err <= tol))


def integrate_finite(f, lo: float, hi: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate a vectorized integrand over the finite range [lo, hi].

    Polynomials up to the Kronrod degree (22) are integrated exactly up to
    roundoff.  The integrand may return complex values.

    Parameters
    ----------
    f : callable
        Maps an ndarray of nodes to an ndarray of values.
    lo, hi : float
        Finite integration bounds with lo <= hi.
    cfg : QuadratureConfig
        Tolerances and subdivision budget.
    """
    require_finite(lo=lo, hi=hi)
    if lo > hi:
        raise ValueError(f"integrate_finite requires lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0, True)
    return _adaptive(f, [lo, hi], cfg)


# breakpoints matched to the Bose weight: panels grow geometrically
_THERMAL_BREAKS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_MAJORANT_SAFETY = 100.0  # sampled |f| may exceed the fitted majorant this much
# polynomial majorant order p: |f| may grow no faster than (1 + x^p) in x = omega/T
_MAJORANT_ORDER = 3
# the moderate x on which the majorant scale is fitted, and (1 + x^p) there
_MAJORANT_XS = np.geomspace(1e-3, 60.0, 48)
_MAJORANT_DEN = 1.0 + _MAJORANT_XS**_MAJORANT_ORDER


def integrate_thermal(f, temp: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Compute the Bose-weighted integral of f over (0, infinity).

    Evaluates ``int_0^inf f(omega) n_T(omega) domega`` by substituting
    x = omega/T, which makes the exponential decay temperature independent,
    and truncating at an X where the discarded tail (polynomial majorant
    times e^{-X}) is below a tenth of ``abs_tol``.  Any 1/(2 pi) style
    normalization is the caller's responsibility.

    Parameters
    ----------
    f : callable
        Vectorized integrand of the frequency (without the Bose factor);
        locally integrable on (0, inf), growing no faster than (1 + x^3)
        in x = omega/T.
    temp : float
        Temperature, finite and > 0.

    Raises
    ------
    GrowthBoundExceeded
        If sampled values of f near the truncation point exceed the
        majorant fitted at moderate x by more than a factor of 100.
    """
    require_finite(temp=temp)
    if not temp > 0:
        raise ValueError(f"integrate_thermal requires temp > 0, got {temp}")

    # fit the majorant scale M on moderate arguments
    fs = np.abs(np.asarray(f(temp * _MAJORANT_XS)))
    evals = _MAJORANT_XS.size
    scale = float(np.max(fs / _MAJORANT_DEN))

    # choose the truncation point from the tail bound
    cutoff = 40.0

    def tail_bound(x):
        return 1.6 * temp * scale * (1.0 + 2.0 * x**_MAJORANT_ORDER) * math.exp(-x)

    while tail_bound(cutoff) > 0.1 * cfg.abs_tol and cutoff < X_UNDERFLOW:
        cutoff *= 1.2
    cutoff = min(cutoff, X_UNDERFLOW)

    # reject integrands that outgrow the declared majorant near the cutoff
    xs_hi = np.array([cutoff, 1.25 * cutoff, 1.5 * cutoff])
    fs_hi = np.abs(np.asarray(f(temp * xs_hi)))
    evals += xs_hi.size
    if np.any(fs_hi > _MAJORANT_SAFETY * scale * (1.0 + xs_hi**_MAJORANT_ORDER)):
        raise GrowthBoundExceeded(
            f"integrand grows faster than the declared "
            f"(1 + x^{_MAJORANT_ORDER}) majorant"
        )

    def weighted(x):
        return temp * np.asarray(f(temp * x)) * occupation_from_ratio(x)

    # the cutoff starts at 40 and only grows, so it lies beyond every break
    breaks = [*_THERMAL_BREAKS, cutoff]
    result = _adaptive(weighted, breaks, cfg)
    result.evaluations += evals
    # the claimed error must also cover the discarded tail
    result.error_estimate += tail_bound(cutoff)
    return result


def hilbert_transform_pv(samples, at: int) -> float:
    """Discrete principal-value Hilbert transform on a uniform grid.

    Returns (1/pi) PV int g(w')/(w' - w_at) dw' using the skip-singularity
    trapezoid rule with half weights at the two grid ends.  The grid
    spacing cancels, so only the sample values are needed.  Accuracy is
    O(h^2) for smooth decaying samples, plus the truncation error of the
    finite window.
    """
    g = np.asarray(samples, dtype=float)
    if g.ndim != 1 or g.size < 64:
        raise GridTooCoarse(f"need a 1-D grid of >= 64 samples, got shape {g.shape}")
    n = g.size
    if not 0 <= at < n:
        raise IndexError(f"index {at} outside grid of size {n}")
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    weights[at] = 0.0
    offsets = np.arange(n, dtype=float) - at
    offsets[at] = 1.0  # dummy, weight is zero
    return float(np.sum(weights * g / offsets) / math.pi)


def richardson_extrapolate(values, power: int):
    """Richardson-extrapolate a sequence sampled at steps h0 / 2^k.

    Assumes an error expansion in powers power, 2 power, 3 power, ... of
    the step.  Returns (limit, error_estimate) where the estimate is the
    magnitude of the last diagonal correction.

    Raises
    ------
    ValueError
        If ``power`` is not finite and > 0, or fewer than three values.
    ExtrapolationUnstable
        If the final diagonal correction grows instead of contracting.
    """
    require_finite(power=power)
    if not power > 0:
        raise ValueError(f"power must be > 0, got {power}")
    seq = [complex(v) if isinstance(v, complex) else float(v) for v in values]
    n = len(seq)
    if n < 3:
        raise ValueError("need at least three samples to extrapolate")
    # contraction check on the raw ladder: an asymptotic sequence must have
    # shrinking successive differences (up to noise at relative 1e-9)
    diffs = [abs(seq[k + 1] - seq[k]) for k in range(n - 1)]
    scale_in = max(abs(v) for v in seq) or 1e-300
    if diffs[-1] > 2.0 * diffs[-2] and diffs[-1] > 1e-9 * scale_in:
        raise ExtrapolationUnstable(
            f"sample differences grew from {diffs[-2]:.3e} to {diffs[-1]:.3e}"
        )
    table = [list(seq)]
    for j in range(1, n):
        factor = 2.0 ** (j * power)
        prev = table[j - 1]
        table.append([
            prev[k + 1] + (prev[k + 1] - prev[k]) / (factor - 1.0)
            for k in range(n - j)
        ])
    diagonal = [table[j][-1] for j in range(n)]
    corrections = [abs(diagonal[j] - diagonal[j - 1]) for j in range(1, n)]
    return diagonal[-1], corrections[-1]
