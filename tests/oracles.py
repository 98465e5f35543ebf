"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's own evaluation paths:
occupations come from geometric series, Bose moments from zeta sums,
integrals from brute-force trapezoid rules, derivatives from central
differences, lorentzian scattering quantities from their explicit rational
closed forms, rational mirrors one polynomial at a time, and the kernels
a, b from the literal amplitude products instead of R and tau.  The
adaptive driver is kept twice, sharing only the rule's nodes and weights
with the package: as the per-panel loop (one integrand call per 15-node
panel), and as the batched driver that reduced its panels row by row,
which the package's stacked reduction must match bit for bit.
"""

import cmath
import heapq
import math

import numpy as np

from thermaldrag.quadrature import (_EPS, _GAUSS_IDX, _NODES, _WG, _WK,
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
    r_p, s_p = model.amplitudes(omega)
    r_m, s_m = model.amplitudes(-np.asarray(omega))
    dr_p, ds_p = model.amplitude_derivatives(omega)
    dr_m, ds_m = model.amplitude_derivatives(-np.asarray(omega))
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

    def amplitudes(self, omega):
        z = 1j * np.asarray(omega)
        return tuple(self._eval(num[0], z) / self._eval(den[0], z)
                     for num, den in (self._r_parts, self._s_parts))

    def amplitude_derivatives(self, omega, order=1):
        z = 1j * np.asarray(omega)
        first, second = [], []
        for num, den in (self._r_parts, self._s_parts):
            n, n1, *n2 = (self._eval(c, z) for c in num[:order + 1])
            d, d1, *d2 = (self._eval(c, z) for c in den[:order + 1])
            # d/domega = i d/dz for functions of z = i omega
            first.append(1j * (n1 * d - n * d1) / d**2)
            if order > 1:
                (n2,), (d2,) = n2, d2
                # (i)^2 d^2/dz^2 of n/d
                second.append(-(n2 / d - (n * d2 + 2.0 * n1 * d1) / d**2
                                + 2.0 * n * d1**2 / d**3))
        return (*first, *second)


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


# --- per-panel adaptive driver --------------------------------------------
# The adaptive Gauss-Kronrod driver as it was before panels were batched:
# one integrand call per 15-node panel, bisecting one worst panel at a time
# from a heap.  The batched driver must make the same evaluations and
# reach the same ``converged``; it sums the panels in another order, so
# value and error agree to roundoff (rel 1e-15), not with ==.

def gk_panel_per_call(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel on [a, b]; returns (value, error)."""
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
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def adaptive_per_panel(f, breakpoints, cfg) -> QuadratureResult:
    """Adaptive bisection over the initial panels given by ``breakpoints``."""
    heap = []  # (-error, insertion counter, a, b, value, error)
    counter = 0
    evals = 0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        value, err = gk_panel_per_call(f, a, b)
        evals += 15
        heap.append((-err, counter, a, b, value, err))
        counter += 1
    heapq.heapify(heap)
    finished = []  # intervals too narrow to split further

    converged = True
    while True:
        total = sum(item[4] for item in heap) + sum(item[4] for item in finished)
        total_err = sum(item[5] for item in heap) + sum(item[5] for item in finished)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        if not heap:
            converged = False
            break
        if len(heap) + len(finished) >= cfg.max_subdivisions:
            converged = False
            break
        item = heapq.heappop(heap)
        a, b = item[2], item[3]
        mid = 0.5 * (a + b)
        if mid - a < _EPS * max(abs(a), abs(b), 1.0):
            # interval at roundoff width; freeze it
            finished.append(item)
            continue
        for lo, hi in ((a, mid), (mid, b)):
            value, err = gk_panel_per_call(f, lo, hi)
            evals += 15
            heapq.heappush(heap, (-err, counter, lo, hi, value, err))
            counter += 1

    # deterministic final summation: left-to-right over the interval list
    segments = sorted(heap + finished, key=lambda item: item[2])
    total = sum(item[4] for item in segments)
    total_err = sum(item[5] for item in segments)
    return QuadratureResult(total, float(total_err), evals, converged)


# --- row-wise batched driver ----------------------------------------------
# The batched driver as it was before its panels were reduced as one stack:
# one integrand call per step, then each panel reduced on its own row with
# 1-D dot products.  The stacked reduction must reproduce it bit for bit:
# the same panels, values, errors, sums and evaluation counts.

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
        out.append((a, b, resk, max(err, 50.0 * _EPS * resabs)))
    return out


def adaptive_rowwise(f, breakpoints, cfg) -> QuadratureResult:
    """Worst-first bisection in rounds over ``gk_panels_rowwise``."""
    panels = gk_panels_rowwise(f, list(zip(breakpoints[:-1], breakpoints[1:])))
    evaluations = _NODES.size * len(panels)
    while True:
        panels.sort(key=lambda panel: panel[3], reverse=True)
        total = sum(panel[2] for panel in panels)
        total_err = sum(panel[3] for panel in panels)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        room = cfg.max_subdivisions - len(panels)
        left = total_err
        kept, halves = [], []
        for panel in panels:
            a, b = panel[0], panel[1]
            mid = 0.5 * (a + b)
            if (left > tol and len(halves) < 2 * room
                    and mid - a >= _EPS * max(abs(a), abs(b), 1.0)):
                halves += [(a, mid), (mid, b)]
                left -= panel[3]
            else:
                kept.append(panel)
        if not halves:
            break
        panels = kept + gk_panels_rowwise(f, halves)
        evaluations += _NODES.size * len(halves)
    return QuadratureResult(total, float(total_err), evaluations,
                            bool(total_err <= tol))
