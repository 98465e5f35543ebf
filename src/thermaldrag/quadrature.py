"""Adaptive quadrature, a whole-grid Hilbert transform and Richardson extrapolation.

The workhorse is a Gauss-Kronrod 7/15 pair with worst-first interval
bisection in rounds.  Integrands receive a 1-D numpy array of nodes and
must return an array of values (real or complex) of the same shape.
Integrands must be pointwise: the value at a node may depend on that node
only, because one call carries the nodes of several panels (all initial
panels at once, then all the halves of a round).  Results are
deterministic for a fixed configuration: the panels are kept as numpy
arrays in interval order, and the totals are numpy's pairwise sums over
them, whatever the interpreter's own ``sum`` does.

A call of the integrand and its reduction cost far more than its nodes,
so both public drivers start wide: a finite range on four equal panels,
a thermal integral on 19 panels, half-octave ones near the Bose peak.
A feature of a thermal integrand gets breaks of its own by one rule, the
ladder of ``_thermal_breaks``: a break at the feature's x0 and at x0 -+
s 2^k around it, while each step is narrower than the panel it lands in.
When the caller names the integrand's cutoff, the ladder at x0 = 0 splits
the first panel in octaves down to a band at x = cutoff/T below 1, and a
peak that the caller names at x0 = peak/T gets the ladder with s =
cutoff/T (at least 2^-20) on top.  Most integrals then converge on their
first call; fewer calls, not fewer evaluations, is what makes them fast.

What is left is each call's fixed cost, so a thermal integral without a
peak builds nothing it has built before: its breaks are one of 19 sets,
the first panel split 0 to 18 times, and each set, its nodes and its Bose
weights n(x) are built once per process, on first use, as a read-only
rule that the first call of the integrand takes.  A peak's breaks take
any value, so its rule is built per call.  The growth guard's factors
are one module constant, since the last panel never changes.

The panels of one call are reduced together, one stacked matmul per
weighted sum, and each panel's value and floor still round bit for bit
as they would alone (see ``_gk_panels``).
"""

from __future__ import annotations

import bisect
import functools
import math
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

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and subdivision budget for the adaptive rules.

    The tolerance is relative only: an integral stops when its error meets
    ``rel_tol`` times its value, not counting panels at their rounding
    floor (see ``_adaptive``).  So a tiny integral is computed to the same
    relative accuracy as a large one, and an exact zero stops on its floor.

    ``max_subdivisions`` caps an integral's panel count, but its initial 4
    (finite) or 19 (thermal) panels are always evaluated: a smaller budget
    only stops bisection.  A thermal integral given a cutoff starts on up
    to 85: up to 18 more where its first panel is split down to a band
    below T, and up to 48 more around a peak.
    """

    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        require_finite(rel_tol=self.rel_tol)
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        budget = self.max_subdivisions
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise ValueError(f"max_subdivisions must be an int, got {budget!r}")
        if budget < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass
class QuadratureResult:
    """Value, claimed error bound and evaluation count of one integration.

    ``converged`` is True when the error that bisection can still reduce
    met the tolerance: every panel's error but those at their rounding
    floor, which halving cannot lower.  It is False when the subdivision
    budget ran out first, or when a panel at roundoff width keeps an error
    above its floor; the value is still the best available estimate.
    ``error_estimate`` includes every floor.
    """

    value: complex | float
    error_estimate: float
    evaluations: int
    converged: bool = True


def _gk_nodes(a, b):
    """The 15 Kronrod nodes of each panel [a[i], b[i]], panel after panel."""
    return ((0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _NODES).ravel()


def _gk_panels(y, a, b):
    """Gauss-Kronrod 7/15 on the panels [a[i], b[i]] from their values ``y``.

    ``y`` holds the integrand on ``_gk_nodes(a, b)``, panel after panel.
    The values are stacked as (panels, 15, 1) columns, so each weighted
    sum is one matmul whose stack entries are 1x15 @ 15x1 dots: numpy
    sends each to the same BLAS dot as a lone panel's ``_WK @ row``, so
    every panel's value and floor are bit for bit those of a lone panel
    (the Gauss nodes are gathered with ``take``, which stays C-ordered;
    the fancy index ``y[:, _GAUSS_IDX]`` is not, and its dots round
    differently).  The error's ``** 1.5`` is taken as ``r * sqrt(r)``,
    which rounds the same on every SIMD path, within an ulp of ``pow``.
    Returns the arrays (value, error, floor): the error is never below the
    rounding floor 50 eps int |f|, and equals it on a panel at its floor.
    A panel without error gives 0/0 in the error's ratio: the caller,
    ``_adaptive``, turns numpy's floating-point warnings off.
    """
    width = b - a
    half = 0.5 * width
    y = np.asarray(y).reshape(a.size, 15, 1)
    resk = half * (_WK @ y)[:, 0]
    resg = half * (_WG @ y.take(_GAUSS_IDX, axis=1))[:, 0]
    floor = 50.0 * _EPS * (half * (_WK @ np.abs(y))[:, 0])
    resasc = half * (_WK @ np.abs(y - (resk / width)[:, None, None]))[:, 0]
    err = np.abs(resk - resg)
    ratio = 200.0 * err / resasc
    # fmin, as Python's min(1.0, r), keeps 1.0 where r is NaN
    scaled = resasc * np.fmin(1.0, ratio * np.sqrt(ratio))
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    # roundoff floor on the claimed error
    return resk, np.maximum(err, floor), floor


def _adaptive(f, breakpoints, cfg: QuadratureConfig, first=None) -> QuadratureResult:
    """Adaptive bisection over the initial panels given by ``breakpoints``.

    The tolerance is ``rel_tol`` times the value.  When the total error
    misses it, panels at their rounding floor (error equal to floor) are
    left whole and their error is not compared with the tolerance:
    halving cannot lower a floor (QUADPACK's roundoff stop).  Each round
    halves the worst of the other panels (a stable sort, so equal errors
    go left to right), just enough of them that the error of the rest
    meets the tolerance, skipping panels at roundoff width and never
    passing ``max_subdivisions`` panels.  A NaN error halves none.  The
    initial panels share one call of ``f`` on their ``_gk_nodes``, and so
    do a round's halves; ``first``, when given, is called without
    arguments in place of that first call and returns f on those nodes.
    After each round one stable sort on the left ends puts the kept
    panels and the halves back in interval order, and the totals are
    numpy's pairwise sums over them, so results are deterministic for a
    fixed configuration.  Every call of f and every reduction runs with
    numpy's floating-point warnings off: an overflow or an invalid value
    is judged by the ``converged`` flag and by the caller's gates.
    """
    ends = np.asarray(breakpoints, dtype=float)
    a, b = ends[:-1], ends[1:]
    evaluations = _NODES.size * a.size
    with np.errstate(all="ignore"):
        value, err, floor = _gk_panels(first() if first else f(_gk_nodes(a, b)), a, b)
        while True:
            # the ufunc itself: ndarray.sum is a Python wrapper around it
            total, total_err = np.add.reduce(value), np.add.reduce(err)
            tol = cfg.rel_tol * abs(total)
            if total_err <= tol:
                converged = True
                break
            # the error that halving can reduce; NaN != NaN keeps a NaN in it
            free = err != floor
            left = np.add.reduce(err[free])
            converged = bool(left <= tol)
            mid = 0.5 * (a + b)
            wide = mid - a >= _EPS * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
            # array methods, not their numpy wrappers: a round is many small calls
            worst = (free & wide).nonzero()[0]
            worst = worst[(-err[worst]).argsort(kind="stable")]
            # halve the worst in turn while the error not yet halved misses tol
            spent = np.concatenate(([0.0], err[worst[:-1]])).cumsum()
            count = min(np.count_nonzero(left - spent > tol), worst.size,
                        cfg.max_subdivisions - a.size)
            if count <= 0:
                break
            split = worst[:count]
            lo = np.concatenate((a[split], mid[split]))
            hi = np.concatenate((mid[split], b[split]))
            evaluations += _NODES.size * lo.size
            kept = np.ones(a.size, dtype=bool)
            kept[split] = False
            halves = lo, hi, *_gk_panels(f(_gk_nodes(lo, hi)), lo, hi)
            order = np.concatenate((a[kept], lo)).argsort(kind="stable")
            a, b, value, err, floor = (np.concatenate((old[kept], new))[order]
                                       for old, new in zip((a, b, value, err, floor), halves))
    return QuadratureResult(total.item(), float(total_err), evaluations, converged)


def integrate_finite(f, lo: float, hi: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integrate a vectorized integrand over the finite range [lo, hi].

    Polynomials up to the Kronrod degree (22) are integrated exactly up to
    roundoff.  The integrand may return complex values.  The adaptive
    driver starts on ``_FINITE_PANELS`` equal panels, all in the first
    call of f; a range whose quarters would be at roundoff width stays one
    panel, so no panel has zero width.

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
    step = (hi - lo) / _FINITE_PANELS
    if step < _EPS * max(abs(lo), abs(hi), 1.0):
        # quarters at roundoff width, where _adaptive stops halving; a wider
        # step is at least an ulp of every point of the range, which keeps
        # the breakpoints apart
        return _adaptive(f, [lo, hi], cfg)
    return _adaptive(f, [lo + k * step for k in range(_FINITE_PANELS)] + [hi], cfg)


# equal initial panels of a finite range: one wide first call instead of
# bisection rounds, since a call's fixed cost outweighs many extra panels
_FINITE_PANELS = 4
# breakpoints in x = omega/T matched to the Bose weight: half-octave panels
# to 32, then wider ones out to X_UNDERFLOW, the chosen end of the domain
_THERMAL_BREAKS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0,
                   16.0, 24.0, 32.0, 48.0, 64.0, 128.0, 256.0, X_UNDERFLOW)
# the finest end of the first thermal panel, 2^-20: at most 18 halvings of 0.25
_FINEST_FIRST_END = 2.0 ** -20
# a peak at x = omega/T from here on adds no breaks: the end of the
# half-octave panels, where n(x) < 1.3e-14
_PEAK_END = 32.0
# the growth guard: |f| rising faster than e^(_GROWTH_RATE x) across each of
# the gaps between the _GROWTH_NODES outermost nodes.  Exponential growth
# keeps its rate over all three gaps; a peak with power-law flanks
# |x - x0|^-k at the domain edge shows about 0.025 k across the innermost
# gap (642.6 to 670.0), so only k > 18 could trip the guard.
_GROWTH_RATE = 0.45
_GROWTH_NODES = 4
# e^(-_GROWTH_RATE dx) over those gaps: the last panel is always
# [256, X_UNDERFLOW], so its nodes, and with them the factors, never change
_GROWTH_FALL = np.exp(-_GROWTH_RATE * np.diff(
    _gk_nodes(np.array(_THERMAL_BREAKS[-2:-1]), np.array(_THERMAL_BREAKS[-1:]))
    [-_GROWTH_NODES:]))
_FALL_AB, _FALL_BC, _FALL_CD = _GROWTH_FALL.tolist()
# n(x) of the cached rules, bound at import: a rule is built once per
# process and belongs to no one request, so a call tracer that patches the
# public name (bench/spans.py) counts only each request's own calls
_occupation = occupation_from_ratio


def _split_count(band: float) -> int:
    """How often the first panel is halved for ``band``: ``_split_breaks``' k.

    The least k with 2^-k <= band, from 0 for a band >= 1 (or inf) to 18
    for one <= 2^-18 (or 0): with band clamped to [2^-18, 1], and frexp
    giving its exponent e, band in [2^(e-1), 2^e), k = 1 - e.
    """
    return 1 - math.frexp(min(max(band, 4.0 * _FINEST_FIRST_END), 1.0))[1]


def _thermal_breaks(breaks: tuple, x0: float, step: float) -> tuple:
    """``breaks`` with a ladder around x0: x0 and x0 -+ step 2^k, k = 0, 1, ...

    On each side a point is added while it lies between 0 and the last
    panel [256, X_UNDERFLOW] and its step is narrower than the panel of
    ``breaks`` that it lands in.  The one rule for every feature: at x0 = 0
    with step 0.25 2^-k it is the first panel's split (``_split_breaks``);
    at a peak x0 in (2^-20, 32) with step >= 2^-20 it adds at most 48
    breaks, 23 below x0 and 24 above it.
    """
    added = {x0}
    for sign in (-1.0, 1.0):
        rung = step
        x = x0 + sign * rung
        while 0.0 < x < breaks[-2]:
            i = bisect.bisect_right(breaks, x)
            if not rung < breaks[i] - breaks[i - 1]:
                break
            added.add(x)
            rung *= 2.0
            x = x0 + sign * rung
    # a set, so a point on an existing break adds no empty panel
    return tuple(sorted(added.union(breaks)))


@functools.cache
def _split_breaks(k: int) -> tuple:
    """``_THERMAL_BREAKS`` with [0, 0.25] split k times, at 0.125, 0.0625, ...:
    the ladder at x = 0 with step 0.25 2^-k, built once per k (0 to 18)."""
    return _thermal_breaks(_THERMAL_BREAKS, 0.0, math.ldexp(0.25, -k))


def _thermal_rule(breaks, occupation) -> tuple:
    """The first call of a thermal integral on ``breaks``, as read-only arrays:
    the breaks, the panels' nodes x (``_gk_nodes``) and n(x) on them."""
    ends = np.array(breaks, dtype=float)
    x = _gk_nodes(ends[:-1], ends[1:])
    rule = ends, x, occupation(x)
    for array in rule:
        array.flags.writeable = False
    return rule


@functools.cache
def _cached_rule(k: int) -> tuple:
    """``_thermal_rule`` of ``_split_breaks(k)``, built once per process on
    first use: k runs from 0 to 18, so at most 19 rules are ever kept."""
    return _thermal_rule(_split_breaks(k), _occupation)


def _grows_at_edge(edge) -> bool:
    """Whether |f| at the four outermost nodes, Python numbers, trips the growth guard.

    Scaling the outer value down keeps the product from overflowing; a NaN
    never trips the guard.
    """
    a, b, c, d = map(abs, edge)
    return b * _FALL_AB > a and c * _FALL_BC > b and d * _FALL_CD > c


def integrate_thermal(f, temp: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                      cutoff: float | None = None,
                      peak: float | None = None) -> QuadratureResult:
    """Compute the Bose-weighted integral of f over (0, infinity).

    Evaluates ``int_0^inf f(omega) n_T(omega) domega`` by substituting
    x = omega/T, which makes the exponential decay temperature independent,
    over the fixed domain x in [0, X_UNDERFLOW = 700].  That end is chosen,
    not an underflow (n(700) = 9.9e-305 is a normal double): the tail it
    drops, about e^-700 of the integrand's scale, is not in the error
    estimate, and only a growing integrand could make it matter, which
    the growth guard below checks.  Any 1/(2 pi) style normalization is
    the caller's responsibility.

    ``f`` is called only on panel nodes, once per step of the adaptive
    driver, which starts on the 19 panels between the breakpoints
    ``_THERMAL_BREAKS``; each feature that the caller names adds the
    ladder of ``_thermal_breaks``.  Given the integrand's own frequency
    scale ``cutoff`` below T, the ladder at x = 0 splits the first panel
    [0, 0.25] in octaves until it ends between an eighth and a quarter of
    the band's x = cutoff/T (at most 18 more panels, none ending below
    2^-20), so a narrow band near x = 0 falls on panels of its own width
    on the first call instead of being found by bisection.  Given also a
    ``peak``, a feature of width about ``cutoff`` at x0 = peak/T in
    (2^-20, 32) gets the same: x0 becomes a break, and so do x0 -+ s 2^k,
    k = 0, 1, ..., s = max(cutoff/T, 2^-20), on each side while the step
    s 2^k is narrower than the panel that its point lands in (at most 48
    more panels).  Beyond x = 32, n(x) < 1.3e-14 and nothing is added.  The
    last panel stays [256, X_UNDERFLOW], and with it the growth guard's
    nodes.

    Parameters
    ----------
    f : callable
        Vectorized integrand of the frequency (without the Bose factor);
        locally integrable on (0, inf).
    temp : float
        Temperature, finite and > 0.
    cfg : QuadratureConfig
        Tolerances and subdivision budget.
    cutoff : float or None
        The integrand's frequency scale, finite and > 0; None (a scale-free
        integrand, the default) keeps the 19 panels.
    peak : float or None
        A frequency, finite, at which the integrand has a feature of width
        about ``cutoff``; None (the default), or one not in (2^-20 T, 32 T),
        adds no breaks, and without a ``cutoff`` it is ignored.

    Raises
    ------
    GrowthBoundExceeded
        If, on the first call of f, |f| rises faster than e^(0.45 x) across
        each of the three gaps between the four outermost nodes (x = 642.6,
        670.0, 688.7 and 698.1): exponential growth, which a bounded peak
        near the domain edge does not show.
    """
    require_finite(temp=temp)
    if not temp > 0:
        raise ValueError(f"integrate_thermal requires temp > 0, got {temp}")
    if peak is not None:
        require_finite(peak=peak)
    band = math.inf
    if cutoff is not None:
        require_finite(cutoff=cutoff)
        if not cutoff > 0:
            raise ValueError(f"integrate_thermal requires cutoff > 0, got {cutoff}")
        band = cutoff / temp
    k = _split_count(band)
    if cutoff is not None and peak is not None and _FINEST_FIRST_END < peak / temp < _PEAK_END:
        # a peak's breaks take any value: its rule is built for this call
        breaks = _thermal_breaks(_split_breaks(k), peak / temp, max(band, _FINEST_FIRST_END))
        ends, x, bose = _thermal_rule(breaks, occupation_from_ratio)
    else:
        ends, x, bose = _cached_rule(k)

    # the first call of f, on the rule's nodes: _adaptive makes it, under its errstate
    def first():
        fs = np.asarray(f(temp * x))
        # the outermost nodes, last of the last initial panel
        if _grows_at_edge(fs[-_GROWTH_NODES:].tolist()):
            raise GrowthBoundExceeded(
                f"integrand grows faster than e^({_GROWTH_RATE} x) "
                f"at the edge of the thermal domain"
            )
        return temp * fs * bose

    def weighted(x):
        return temp * np.asarray(f(temp * x)) * occupation_from_ratio(x)

    return _adaptive(weighted, ends, cfg, first)


def hilbert_transform_pv(samples) -> np.ndarray:
    """Discrete principal-value Hilbert transform at every point of a uniform grid.

    Element j is (1/pi) PV int g(w')/(w' - w_j) dw' by the skip-singularity
    trapezoid rule with half weights at the two grid ends: one convolution
    of the weighted samples with 1/(k - j), taken as 0 at k = j.  The grid
    spacing cancels, so only the sample values are needed.  Accuracy is
    O(h^2) for smooth decaying samples, plus the truncation error of the
    finite window.
    """
    g = np.asarray(samples, dtype=float)
    if g.ndim != 1 or g.size < 64:
        raise GridTooCoarse(f"need a 1-D grid of >= 64 samples, got shape {g.shape}")
    n = g.size
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    offsets = np.arange(n - 1, -n, -1, dtype=float)  # k - j at lag j - k = i - (n - 1)
    offsets[n - 1] = np.inf  # k = j: the skipped term, 1/inf = 0
    return np.convolve(weights * g, 1.0 / offsets, "valid") / math.pi


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
    seq = [float(v) for v in values]
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
    # one row of the table at a time; its last entry is the diagonal's
    row = seq
    for j in range(1, n):
        factor = 2.0 ** (j * power)
        last = row[-1]
        row = [b + (b - a) / (factor - 1.0) for a, b in zip(row, row[1:])]
    return row[-1], abs(row[-1] - last)
