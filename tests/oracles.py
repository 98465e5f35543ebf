"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own evaluation paths:
occupations come from geometric series, Bose moments from zeta sums,
integrals from brute-force trapezoid rules, the discrete Hilbert
transform one grid point at a time, derivatives from central
differences, lorentzian scattering quantities from their explicit
rational closed forms, the lorentzian's A and lambda from Binet's
digamma closed forms, rational mirrors one polynomial at a time, a
rational mirror's construction and validation and the thermal growth
guard on numpy arrays, and the kernels a, b from the literal amplitude
products instead of R and tau.
The adaptive driver is kept twice, sharing only the rule's nodes
and weights with the package: as the per-panel loop (one integrand call
per 15-node panel), and as the batched driver that reduced its panels
row by row and summed them left to right, which the package's array
driver must match in evaluations and convergence, and in value and error
within the claimed error.
"""

import cmath
import heapq
import math

import numpy as np

from thermaldrag.models import (_MIN_POLE_SEPARATION, TRANSPARENCY_TOL, UNITARITY_TOL,
                               CheckResult, ModelValidationReport)
from thermaldrag.quadrature import (_EPS, _GAUSS_IDX, _GROWTH_FALL, _NODES, _WG, _WK,
                                   QuadratureResult)


# --- series oracles -------------------------------------------------------

def occupation_series(x: float, tol: float = 1e-18) -> float:
    """n(x) = sum_{k>=1} e^{-k x}, summed to absolute tolerance."""
    total = 0.0
    term = math.exp(-x)
    factor = term
    while term > tol:
        total += term
        term *= factor
    return total


def occupation_temp_derivative_series(omega: float, temp: float) -> float:
    """dn/dT = sum_{k>=1} k (omega/T^2) e^{-k omega/T}."""
    x = omega / temp
    total = 0.0
    for k in range(1, 2000):
        term = k * math.exp(-k * x)
        total += term
        if term < 1e-20 * max(total, 1e-300):
            break
    return total * omega / temp**2


def zeta_sum(p: int, terms: int = 20000) -> float:
    """sum 1/n^p with an Euler-Maclaurin tail correction."""
    n = np.arange(1, terms + 1, dtype=float)
    head = float(np.sum(1.0 / n**p))
    big_n = float(terms)
    # integral tail + half endpoint + first Bernoulli correction
    tail = big_n ** (1 - p) / (p - 1) - 0.5 * big_n ** (-p) \
        + (p / 12.0) * big_n ** (-p - 1)
    return head + tail


def bose_moment(k: int) -> float:
    """int_0^inf x^k/(e^x - 1) dx = k! zeta(k+1)."""
    return math.factorial(k) * zeta_sum(k + 1)


def differentiate(f, x: float, scale: float) -> float:
    """Central difference with one Richardson level; O(h^4) on smooth f.

    The base step is ``scale * 1e-6``, balancing truncation against
    roundoff at double precision.
    """
    h = abs(scale) * 1e-6
    if h == 0.0:
        raise ValueError("differentiate requires a nonzero scale")
    coarse = (f(x + h) - f(x - h)) / (2.0 * h)
    fine = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


# --- kernels from the raw amplitudes --------------------------------------

def a_function_from_amplitudes(model, omega):
    """a computed literally as 1 + r[w] r[-w] - s[w] s[-w].

    Returns the complex value; unitarity plus reality make it equal the
    real 2 R[omega].
    """
    r_p, s_p = model.amplitudes(omega)
    r_m, s_m = model.amplitudes(-np.asarray(omega))
    return 1.0 + r_p * r_m - s_p * s_m


def b_function_from_amplitudes(model, omega):
    """b from the amplitude-derivative form.

    i (r'[w] r[-w] + r[w] r'[-w]) - i (s'[w] s[-w] + s[w] s'[-w]); equals
    the real 2 (1 - 2 R[omega]) tau[omega] by unitarity plus reality.
    """
    r_p, s_p, dr_p, ds_p = model.amplitudes(omega, 1)
    r_m, s_m, dr_m, ds_m = model.amplitudes(-np.asarray(omega), 1)
    return 1j * (dr_p * r_m + r_p * dr_m) - 1j * (ds_p * s_m + s_p * ds_m)


# --- lorentzian closed forms ----------------------------------------------

def lorentzian_r(omega, tau0=1.0):
    return -1.0 / (1.0 - 1j * tau0 * np.asarray(omega, dtype=float))


def lorentzian_s(omega, tau0=1.0):
    omega = np.asarray(omega, dtype=float)
    return -1j * tau0 * omega / (1.0 - 1j * tau0 * omega)


def lorentzian_R(omega, tau0=1.0):
    return 1.0 / (1.0 + (np.asarray(omega) * tau0) ** 2)


def lorentzian_tau(omega, tau0=1.0):
    return tau0 / (1.0 + (np.asarray(omega) * tau0) ** 2)


def lorentzian_dR(omega, tau0=1.0):
    omega = np.asarray(omega)
    return -2.0 * omega * tau0**2 / (1.0 + (omega * tau0) ** 2) ** 2


def lorentzian_dtau(omega, tau0=1.0):
    omega = np.asarray(omega)
    return -2.0 * omega * tau0**3 / (1.0 + (omega * tau0) ** 2) ** 2


def lorentzian_alpha(w1, w2, tau0=1.0):
    return (1.0 + lorentzian_r(w1, tau0) * lorentzian_r(w2, tau0)
            - lorentzian_s(w1, tau0) * lorentzian_s(w2, tau0))


def lorentzian_chi_vacuum(omega: float, tau0: float = 1.0) -> complex:
    """chi_0 of the Lorentzian in closed form, for omega tau0 >= 1.

    alpha[w', omega - w'] = 1/(1 - i w' tau0) + 1/(1 - i (omega - w') tau0),
    so chi_0 = (i/pi) int_0^omega dw' w'(omega - w')/(1 - i w' tau0) =
    (i/pi) omega^3 [1/a^2 - 1/(2a) + (1 - a) log(1 - a)/a^3] with a = i
    omega tau0.  The bracket cancels towards its limit 1/6 at small a, so
    the form is accurate to a few eps only from omega tau0 ~ 1 on.
    """
    a = 1j * omega * tau0
    bracket = 1.0 / a**2 - 0.5 / a + (1.0 - a) * cmath.log(1.0 - a) / a**3
    return 1j / math.pi * omega**3 * bracket


# Bernoulli numbers B_2, B_4, ..., B_24
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                   -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                   -236364091 / 2730)


def _flux_step(y: float) -> float:
    """g(y) - g(y + 1) = 1/y - ln(1 + 1/y) - 1/(2 y (y + 1)), g of binet_sums.

    From y >= 2 on it is summed as its series in u = 1/y <= 1/2,
    sum_{m>=3} (-1)^(m+1) (m - 2)/(2m) u^m, in which the three terms'
    leading orders u and u^2 have already cancelled.
    """
    u = 1.0 / y
    if y < 2.0:
        return u - math.log1p(u) - 0.5 * u * u / (1.0 + u)
    return math.fsum((-1) ** (m + 1) * (m - 2) / (2 * m) * u**m for m in range(3, 60))


def binet_sums(z: float) -> tuple[float, float]:
    """g(z) = ln z - 1/(2z) - psi(z) and h(z) = 2 z psi'(z) - 2 - 1/z, real z > 0.

    From z >= 10 on both are Bernoulli series (DLMF 5.11.2 and its
    derivative), g = sum B_2k/(2k z^2k) and h = 2 sum B_2k/z^2k, which
    never form the cancelling difference of ln z and psi(z).  Below 10 the
    recurrences psi(y + 1) = psi(y) + 1/y and psi'(y + 1) = psi'(y) - 1/y^2,
    written as g(y) = g(y + 1) + (g(y) - g(y + 1)) and h(y) = y/(y + 1)
    h(y + 1) + 1/(y (y + 1)^2), carry the series at w = z + n >= 10 down
    to z, one positive term at a time.
    """
    n = max(0, math.ceil(10.0 - z))
    w = z + n
    powers = [w ** (-2 * k) for k in range(1, len(_BERNOULLI_EVEN) + 1)]
    flux = math.fsum(b * p / (2 * k)
                     for k, (b, p) in enumerate(zip(_BERNOULLI_EVEN, powers), 1))
    viscosity = 2.0 * math.fsum(b * p for b, p in zip(_BERNOULLI_EVEN, powers))
    for y in (z + j for j in range(n - 1, -1, -1)):
        flux += _flux_step(y)
        viscosity = y / (y + 1.0) * viscosity + 1.0 / (y * (y + 1.0) ** 2)
    return flux, viscosity


def lorentzian_flux_and_viscosity(temp: float, tau0: float = 1.0) -> tuple[float, float]:
    """A_T and lambda_T of the Lorentzian mirror in closed form, no quadrature.

    Binet's second formula (DLMF 5.9.16) gives, with z = 1/(2 pi T tau0),
    A_T = [ln z - 1/(2z) - psi(z)]/(2 pi tau0^2) and, from lambda_T = 2 T
    dA/dT, lambda_T = [2 z psi'(z) - 2 - 1/z]/(2 pi tau0^2).
    """
    flux, viscosity = binet_sums(1.0 / (2.0 * math.pi * temp * tau0))
    scale = 2.0 * math.pi * tau0**2
    return flux / scale, viscosity / scale


# --- per-polynomial rational mirror ---------------------------------------
# r and s evaluated straight from the coefficients: one Horner loop per
# polynomial and per derivative order, with the derivative coefficients from
# numpy's polyder, and the quotient rule.  RationalMirror's pole-residue form
# must give arrays of the same type, shape and dtype, with values within
# conftest.ORACLE_RTOL.

class PerPolynomialRational:
    """r and s as rational functions of z = i omega, ascending real coefficients."""

    def __init__(self, r_num, r_den, s_num, s_den):
        # (p, dp/dz, d2p/dz2) coefficients of each numerator and denominator
        polyder = np.polynomial.polynomial.polyder

        def parts(coeffs):
            coeffs = np.asarray(coeffs, dtype=float)
            return coeffs, polyder(coeffs), polyder(coeffs, 2)

        self._r_parts = (parts(r_num), parts(r_den))
        self._s_parts = (parts(s_num), parts(s_den))

    @staticmethod
    def _eval(coeffs, z):
        # Horner with numpy polyval's order of operations, so bit-identical to it
        acc = coeffs[-1] + z * 0
        for c in coeffs[-2::-1]:
            acc = c + acc * z
        return acc

    def amplitudes(self, omega, order=0):
        z = 1j * np.asarray(omega)
        values, first, second = [], [], []
        for num, den in (self._r_parts, self._s_parts):
            # every order from the same polynomial values; the tuple is cut to order
            n, n1, n2 = (self._eval(c, z) for c in num)
            d, d1, d2 = (self._eval(c, z) for c in den)
            values.append(n / d)
            # d/domega = i d/dz for functions of z = i omega
            first.append(1j * (n1 * d - n * d1) / d**2)
            # (i)^2 d^2/dz^2 of n/d
            second.append(-(n2 / d - (n * d2 + 2.0 * n1 * d1) / d**2 + 2.0 * n * d1**2 / d**3))
        return (*values, *first, *second)[:2 * (order + 1)]


# --- rational mirror construction and validation on numpy arrays ----------
# RationalMirror's constructor and validate_model as they were when both ran
# on numpy arrays: poles from np.roots, residues from np.polyval over
# np.polyder, the validation grid cut with np.split.  The package's
# construction on Python scalars must give the same poles, real-pole
# residues, constants, groups, cutoff and repr bit for bit, and the
# conjugate-pair residues to within roundoff; its validation must give every
# CheckResult field bit for bit.

def numpy_partial_fractions(name, num, den, poles=None):
    """(c, groups, poles) of num/den, ascending coefficients in z, simple poles only."""
    if np.any(num[den.size:]):
        raise ValueError(f"{name} is improper: numerator degree above denominator degree")
    num = num[:den.size]
    if poles is None:
        poles = np.roots(den[::-1])
        gaps = np.abs(poles[:, None] - poles) + np.diag(np.full(poles.size, np.inf))
        if np.any(gaps <= _MIN_POLE_SEPARATION * np.maximum.outer(abs(poles), abs(poles))):
            raise ValueError(f"{name} has a repeated or nearly repeated pole (relative "
                             f"separation below {_MIN_POLE_SEPARATION:g}): {poles.tolist()}")
    residues = np.polyval(num[::-1], poles) / np.polyval(np.polyder(den[::-1]), poles)
    constant = num[-1] / den[-1] if num.size == den.size else 0.0
    pairs = zip(poles.astype(complex), residues.astype(complex))
    return float(constant), [((p.real, rho.real),) if p.imag == 0 else
                             ((p, rho), (p.conjugate(), rho.conjugate()))
                             for p, rho in pairs if p.imag >= 0], poles


def numpy_rational_parts(r_num, r_den, s_num, s_den, cutoff=None):
    """(constants, groups, cutoff, repr) that RationalMirror gave its pole evaluator."""
    coeffs = {name: np.asarray(c, dtype=float) for name, c in
              (("r_num", r_num), ("r_den", r_den), ("s_num", s_num), ("s_den", s_den))}
    for name, c in coeffs.items():
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError(f"{name} must be a non-empty 1-D finite coefficient list")
    rn, rd, sn, sd = coeffs.values()
    if rd[-1] == 0 or sd[-1] == 0:
        raise ValueError("denominator leading coefficients must be nonzero")
    shared = np.array_equal(rd, sd)
    c_r, r_groups, r_poles = numpy_partial_fractions("r", rn, rd)
    c_s, s_groups, _ = numpy_partial_fractions("s", sn, sd, r_poles if shared else None)
    if shared:
        groups = [tuple((p, a, b) for (p, a), (_, b) in zip(r_group, s_group))
                  for r_group, s_group in zip(r_groups, s_groups)]
    else:
        groups = ([tuple((p, a, 0.0) for p, a in group) for group in r_groups]
                  + [tuple((p, 0.0, b) for p, b in group) for group in s_groups])
    if cutoff is None and r_groups:
        cutoff = float(max(abs(group[0][0]) for group in r_groups))
    if cutoff is not None and not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError(f"cutoff must be finite and > 0, got {cutoff}")
    return ((c_r, c_s), groups, cutoff,
            f"RationalMirror(r_num={rn.tolist()}, r_den={rd.tolist()}, "
            f"s_num={sn.tolist()}, s_den={sd.tolist()})")


def numpy_validate_model(model, omegas) -> ModelValidationReport:
    """validate_model's checks, each a reduction over numpy arrays."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size == 0 or not np.all(np.isfinite(omegas)):
        raise ValueError("validation grid must be non-empty and finite")
    cutoff = model.cutoff_frequency
    high = np.empty(0) if cutoff is None else cutoff * np.array([100.0, 316.0, 1000.0])
    n = omegas.size
    r_all, s_all = model.amplitudes(np.concatenate((omegas, -omegas, high)))
    r, r_neg, r_high = np.split(r_all, (n, 2 * n))
    s, s_neg, _ = np.split(s_all, (n, 2 * n))

    def worst(violation):
        idx = int(np.argmax(violation))
        return float(violation[idx]), float(omegas[idx])

    checks = []
    v, w = worst(np.abs(np.abs(r) ** 2 + np.abs(s) ** 2 - 1.0))
    checks.append(CheckResult("unitarity_modulus", v, w, UNITARITY_TOL))
    v, w = worst(np.abs(s * np.conj(r) + r * np.conj(s)))
    checks.append(CheckResult("unitarity_orthogonality", v, w, UNITARITY_TOL))
    v, w = worst(np.maximum(np.abs(r_neg - np.conj(r)), np.abs(s_neg - np.conj(s))))
    checks.append(CheckResult("reality", v, w, UNITARITY_TOL))
    if cutoff is not None:
        idx = int(np.argmax(np.abs(r_high) ** 2))
        checks.append(CheckResult("transparency", float(np.abs(r_high[idx]) ** 2),
                                  float(high[idx]), TRANSPARENCY_TOL))
    return ModelValidationReport(tuple(checks))


# --- brute-force trapezoid integrals --------------------------------------

def trapezoid_chi_vacuum(omega: float, tau0: float = 1.0,
                         points: int = 1_000_001) -> complex:
    """chi_0 by a uniform trapezoid rule over [0, omega]."""
    wp = np.linspace(0.0, omega, points)
    alpha = lorentzian_alpha(wp, omega - wp, tau0)
    return 1j / (2.0 * math.pi) * np.trapezoid(wp * (omega - wp) * alpha, wp)


def trapezoid_chi_thermal(omega: float, temp: float, tau0: float = 1.0,
                          x_max: float = 60.0,
                          points: int = 1_000_001) -> complex:
    """delta chi_T by a trapezoid rule on the x = omega'/T grid."""
    x = np.linspace(1e-9, x_max, points)
    wp = temp * x
    kernel = ((omega - wp) * lorentzian_alpha(wp, omega - wp, tau0)
              + (omega + wp) * lorentzian_alpha(-wp, omega + wp, tau0))
    integrand = wp * kernel / np.expm1(x)
    return 1j / math.pi * temp * np.trapezoid(integrand, x)


def trapezoid_chi_raw_smoothed_sign(omega: float, temp: float, tau0: float = 1.0,
                                    tail: float = 60.0,
                                    points: int = 2_000_000) -> complex:
    """chi_T from the un-split full-line form with the coth weight.

    (i/4pi) int dw' w'(w - w') alpha[w', w - w'] (coth(w'/2T) + coth((w-w')/2T)):
    outside [0, w] the two signs cancel and only the exponentially decaying
    thermal part survives, so a window of `tail` thermal units suffices.
    Midpoint sampling keeps the grid off the (cancelled) coth poles.
    """
    lo = min(0.0, omega) - tail * temp
    hi = max(0.0, omega) + tail * temp
    step = (hi - lo) / points
    wp = lo + step * (np.arange(points) + 0.5)
    eps_sum = (1.0 / np.tanh(wp / (2.0 * temp))
               + 1.0 / np.tanh((omega - wp) / (2.0 * temp)))
    integrand = wp * (omega - wp) * lorentzian_alpha(wp, omega - wp, tau0) * eps_sum
    return 1j / (4.0 * math.pi) * np.sum(integrand) * step


def trapezoid_coefficients(temp: float, tau0: float = 1.0,
                           x_max: float = 60.0, points: int = 1_000_001):
    """(lambda, mu, A, B) by trapezoid rules with closed-form kernels."""
    x = np.linspace(1e-9, x_max, points)
    w = temp * x
    n = 1.0 / np.expm1(x)
    big_r = lorentzian_R(w, tau0)
    d_big_r = lorentzian_dR(w, tau0)
    tau = lorentzian_tau(w, tau0)
    dtau = lorentzian_dtau(w, tau0)
    b = 2.0 * (1.0 - 2.0 * big_r) * tau
    db = 2.0 * (-2.0 * d_big_r * tau + (1.0 - 2.0 * big_r) * dtau)
    lam = temp / math.pi * np.trapezoid((2 * w * 2 * big_r + w**2 * 2 * d_big_r) * n, x)
    mu = temp / (2 * math.pi) * np.trapezoid((2 * w * b + w**2 * db) * n, x)
    flux = temp / math.pi * np.trapezoid(w * big_r * n, x)
    stocked = temp / (2 * math.pi) * np.trapezoid(w * b * n, x)
    return float(lam), float(mu), float(flux), float(stocked)


def hilbert_transform_pv_at(samples, at: int) -> float:
    """(1/pi) PV int g(w')/(w' - w_at) dw' at one grid point, by its own sum.

    The skip-singularity trapezoid rule with half weights at the two grid
    ends, summed over the grid for the one point ``at``.
    """
    g = np.asarray(samples, dtype=float)
    n = g.size
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    weights[at] = 0.0
    offsets = np.arange(n, dtype=float) - at
    offsets[at] = 1.0  # dummy, weight is zero
    return float(np.sum(weights * g / offsets) / math.pi)


# --- per-panel adaptive driver --------------------------------------------
# The adaptive Gauss-Kronrod driver as it was before panels were batched:
# one integrand call per 15-node panel, bisecting one worst panel at a time
# from a heap.  The batched driver must make the same evaluations and
# reach the same ``converged``; it sums the panels in another order, so
# value and error agree to roundoff (rel 1e-15), not with ==.  Both stop
# on the same rule: the error of the panels that are not at their
# rounding floor meets rel_tol times the value.

def gk_panel_per_call(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel on [a, b]; returns (value, error, floor)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES))
    resk = half * (_WK @ y)
    resg = half * (_WG @ y[_GAUSS_IDX])
    err = abs(resk - resg)
    resabs = abs(half) * (_WK @ np.abs(y))
    if b > a:
        resasc = abs(half) * (_WK @ np.abs(y - resk / (b - a)))
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # roundoff floor on the claimed error
    floor = 50.0 * _EPS * resabs
    return resk, max(err, floor), floor


def adaptive_per_panel(f, breakpoints, cfg) -> QuadratureResult:
    """Adaptive bisection over the initial panels given by ``breakpoints``."""
    heap = []  # (-error, insertion counter, a, b, value, error, floor)
    counter = 0
    evals = 0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        value, err, floor = gk_panel_per_call(f, a, b)
        evals += 15
        heap.append((-err, counter, a, b, value, err, floor))
        counter += 1
    heapq.heapify(heap)
    finished = []  # intervals at their floor or too narrow to split further

    converged = True
    while True:
        items = heap + finished
        total = sum(item[4] for item in items)
        tol = cfg.rel_tol * abs(total)
        if sum(item[5] for item in items) <= tol:
            break
        # panels at their rounding floor cannot be improved by halving
        if sum(item[5] for item in items if item[5] != item[6]) <= tol:
            break
        if not heap:
            converged = False
            break
        if len(items) >= cfg.max_subdivisions:
            converged = False
            break
        item = heapq.heappop(heap)
        a, b = item[2], item[3]
        mid = 0.5 * (a + b)
        if item[5] == item[6] or mid - a < _EPS * max(abs(a), abs(b), 1.0):
            # at its floor, or at roundoff width; freeze it
            finished.append(item)
            continue
        for lo, hi in ((a, mid), (mid, b)):
            value, err, floor = gk_panel_per_call(f, lo, hi)
            evals += 15
            heapq.heappush(heap, (-err, counter, lo, hi, value, err, floor))
            counter += 1

    # deterministic final summation: left-to-right over the interval list
    segments = sorted(heap + finished, key=lambda item: item[2])
    total = sum(item[4] for item in segments)
    total_err = sum(item[5] for item in segments)
    return QuadratureResult(total, float(total_err), evals, converged)


# --- the thermal growth guard on numpy arrays -----------------------------

def growth_guard_on_arrays(edge) -> bool:
    """integrate_thermal's growth guard as a reduction over numpy arrays.

    True when |f| at the four outermost nodes, ``edge``, rises faster than
    e^(0.45 x) across each gap; a NaN comparison is false.
    """
    edge = np.abs(np.asarray(edge))
    with np.errstate(invalid="ignore"):
        return bool((edge[1:] * _GROWTH_FALL > edge[:-1]).all())


# --- row-wise batched driver ----------------------------------------------
# The batched driver as it was before its panels became arrays: one
# integrand call per step, then each panel reduced on its own row with 1-D
# dot products, and the panels summed left to right in error order.  The
# array driver sums pairwise in interval order, so it must make the same
# evaluations and reach the same ``converged``, with value and error
# within the error this driver claims.

def gk_panels_rowwise(f, panels):
    """Gauss-Kronrod 7/15 on every (a, b) in ``panels`` from one call of f."""
    ends = np.array(panels, dtype=float)
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    y = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
    out = []
    for (a, b), h, row in zip(panels, half.tolist(),
                              y.reshape(len(panels), _NODES.size)):
        resk = h * (_WK @ row)
        resg = h * (_WG @ row[_GAUSS_IDX])
        err = abs(resk - resg)
        resabs = h * (_WK @ np.abs(row))
        resasc = h * (_WK @ np.abs(row - resk / (b - a)))
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        floor = 50.0 * _EPS * resabs
        out.append((a, b, resk, max(err, floor), floor))
    return out


def adaptive_rowwise(f, breakpoints, cfg) -> QuadratureResult:
    """Worst-first bisection in rounds over ``gk_panels_rowwise``."""
    panels = gk_panels_rowwise(f, list(zip(breakpoints[:-1], breakpoints[1:])))
    evaluations = _NODES.size * len(panels)
    while True:
        panels.sort(key=lambda panel: panel[3], reverse=True)
        total = sum(panel[2] for panel in panels)
        total_err = sum(panel[3] for panel in panels)
        tol = cfg.rel_tol * abs(total)
        if total_err <= tol:
            converged = True
            break
        # panels at their rounding floor are neither halved nor counted
        left = sum(panel[3] for panel in panels if panel[3] != panel[4])
        converged = bool(left <= tol)
        room = cfg.max_subdivisions - len(panels)
        kept, halves = [], []
        for panel in panels:
            a, b = panel[0], panel[1]
            mid = 0.5 * (a + b)
            if (panel[3] != panel[4] and left > tol and len(halves) < 2 * room
                    and mid - a >= _EPS * max(abs(a), abs(b), 1.0)):
                halves += [(a, mid), (mid, b)]
                left -= panel[3]
            else:
                kept.append(panel)
        if not halves:
            break
        panels = kept + gk_panels_rowwise(f, halves)
        evaluations += _NODES.size * len(halves)
    return QuadratureResult(total, float(total_err), evaluations, converged)
