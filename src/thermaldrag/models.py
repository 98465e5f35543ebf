"""Mirror scattering models and the kernels built from their amplitudes.

A mirror is described by frequency-domain reflection and transmission
amplitudes r[omega], s[omega] constrained by unitarity of the scattering
matrix (|r|^2 + |s|^2 = 1 and r s* + s r* = 0) and by reality of the
time-domain response (r[-omega] = r[omega]*, same for s).  Those two
constraints reduce the model to a reflection probability R[omega] = |r|^2
and a total phase shift Delta[omega] with exp(i Delta) = s^2 - r^2; the
scattering delay is tau = Delta'/2.

The kernels consumed by the susceptibility and coefficient integrals are

    alpha[w, w'] = 1 + r[w] r[w'] - s[w] s[w']
    a[w] = alpha[w, -w]          (= 2 R[w] by unitarity + reality)
    b[w] = i (r'[w] r[-w] + r[w] r'[-w] - s'[w] s[-w] - s[w] s'[-w])
                                 (= 2 (1 - 2 R[w]) tau[w])

A model declares two things: ``amplitudes(omega, order=0)``, which gives
r and s and, up to ``order`` 2, their analytic omega-derivatives from one
evaluation, and its reflection cutoff; a subclass without both cannot be
instantiated.  It may also override ``alpha``, the kernel alpha from one
stacked pair of frequencies, whose default multiplies the amplitudes; a
pole mirror whose r and s share their residues computes it from its poles
and residues.  It may declare ``exact_reality`` when reality holds bit for
bit by construction, as for every pole mirror; ``validate_model`` then
takes that check as passed.  Everything else, R0 and tau0 included, is
derived from the amplitudes.  Every method and kernel here is
array-only: an ndarray in gives an ndarray of the same shape out, and a
scalar in gives a numpy scalar (a ``complex`` or ``float`` instance)
out.  Models are immutable after construction and all operations here
are pure functions of their arguments.
"""

from __future__ import annotations

import abc
import copy
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationFailed


class MirrorModel(abc.ABC):
    """Unitary, causal, real scattering model of a point mirror."""

    # True when r[-omega] == conj r[omega], and the same for s, hold bit for
    # bit by construction: validate_model then takes reality as exact
    exact_reality = False

    @abc.abstractmethod
    def amplitudes(self, omega, order=0):
        """(r, s) at ``omega`` (scalar or ndarray; complex output), then their derivatives.

        At ``order`` 1 the tuple goes on with (r', s'), at ``order`` 2 with
        (r', s', r'', s''); r and s are the same at every order.
        """

    @property
    @abc.abstractmethod
    def cutoff_frequency(self):
        """Reflection cutoff, or None for a mirror that never turns transparent."""

    def alpha(self, pair):
        """alpha = 1 + r[w1] r[w2] - s[w1] s[w2] of ``pair = (w1, w2)``, stacked on axis 0.

        One ``amplitudes`` call for both frequencies; a model may override
        this with an equal value that it computes more cheaply.
        """
        (r1, r2), (s1, s2) = self.amplitudes(np.asarray(pair))
        return 1.0 + r1 * r2 - s1 * s2

    @property
    def low_frequency_reflection(self) -> float:
        """R0 = |r[0]|^2; NaN for a pole at omega = 0, which the callers' gates judge."""
        with np.errstate(all="ignore"):
            return float(reflection_probability(self, 0.0))

    @property
    def low_frequency_delay(self) -> float:
        """tau0, the scattering delay at omega = 0; it may overflow or be NaN, as R0."""
        # + 0.0 turns the -0.0 of a delay-free mirror into 0.0
        with np.errstate(all="ignore"):
            return float(reflection_and_delay(self, 0.0)[2]) + 0.0


class _PoleMirror(MirrorModel):
    """The one evaluator of every shipped mirror: a pole-residue sum in z = i omega.

    r = c_r + sum_k rho_r,k / (z - p_k), so r' = -i sum_k rho_r,k / (z -
    p_k)^2 and r'' = -2 sum_k rho_r,k / (z - p_k)^3; the same for s.  Real
    poles come alone, complex ones with their exact conjugate term, as the
    caller groups them.  A pair's two terms are added together before the
    running sum takes them, so r[-omega] == conj r[omega] holds bit for
    bit, as for s and alpha.  ``describe`` returns the mirror's repr,
    formatted only when it is asked for.
    """

    exact_reality = True

    def __init__(self, constants, groups, cutoff, describe):
        self._constants = tuple(constants)  # (c_r, c_s)
        # groups of (p_k, rho_r,k, rho_s,k), each a real pole or a conjugate
        # pair; a pole-free mirror gets one zero-residue term
        self._poles = tuple(groups) or (((1.0, 0.0, 0.0),),)
        self._cutoff = cutoff
        self._describe = describe

    def amplitudes(self, omega, order=0):
        z = 1j * np.asarray(omega)
        # r, s, then the sums of rho/(z - p)^2 and rho/(z - p)^3 for each
        totals = [*self._constants, *[0.0] * (2 * order)]
        for group in self._poles:
            parts = None
            for p, rho_r, rho_s in group:
                inv = np.reciprocal(z - p)
                terms = [rho_r * inv, rho_s * inv]
                for _ in range(order):  # ((rho inv) inv) inv: inv^2 alone may overflow
                    terms += [terms[-2] * inv, terms[-1] * inv]
                parts = terms if parts is None else [a + b for a, b in zip(parts, terms)]
            totals = [total + part for total, part in zip(totals, parts)]
        r, s, *sums = totals
        return (r, s, *(f * total for f, total in zip((-1j, -1j, -2.0, -2.0), sums)))

    def alpha(self, pair):
        """alpha = K + sum_k lam_k (I_k(w1) + I_k(w2)) if r and s share their residues.

        Here I_k = 1/(z - p_k), K = 1 + c_r^2 - c_s^2 and lam_k = c_r
        rho_r,k - c_s rho_s,k: 1 + r1 r2 - s1 s2 multiplied out, whose
        cross terms cancel exactly when every rho_r,k == rho_s,k.  Every
        Lorentzian qualifies (alpha = -g (I(w1) + I(w2)), free of the
        cancellation in 1 - s1 s2); other mirrors take the generic formula.
        K is skipped when zero, and a mirror without pole terms (the perfect
        mirror) returns K in the shape of w1.
        """
        if any(rho_r != rho_s for group in self._poles for _, rho_r, rho_s in group):
            return super().alpha(pair)
        z = 1j * np.asarray(pair)
        c_r, c_s = self._constants
        constant = 1.0 + c_r * c_r - c_s * c_s
        parts = []
        for group in self._poles:
            terms = []
            for p, rho_r, rho_s in group:
                lam = c_r * rho_r - c_s * rho_s
                if lam:
                    inv = np.reciprocal(z - p)
                    terms.append(lam * (inv[0] + inv[1]))
            if terms:
                parts.append(functools.reduce(operator.add, terms))
        if not parts:
            return np.full(z.shape[1:], complex(constant))[()]
        out = functools.reduce(operator.add, parts)
        return out + constant if constant else out

    @property
    def cutoff_frequency(self):
        return self._cutoff

    def _in_natural_units(self, units):
        """This mirror, built in the frequency unit of ``units``, in natural units."""
        to_natural = units.frequency_to_natural
        model = copy.copy(self)
        model._poles = tuple(tuple(tuple(map(to_natural, term)) for term in group)
                             for group in self._poles)
        model._cutoff = None if self._cutoff is None else to_natural(self._cutoff)
        model._describe = functools.partial("{!r}._in_natural_units({!r})".format,
                                            self, units)
        return model

    def __repr__(self):
        return self._describe()


class PerfectMirror(_PoleMirror):
    """Idealized mirror with r = -1, s = 0 at every frequency, and no poles.

    Never turns transparent (``cutoff_frequency`` is None); its delay is
    identically zero: the R0 = 1, tau0 = 0 member of the scattering family.
    """

    def __init__(self):
        super().__init__((-1.0, 0.0), (), None, "PerfectMirror()".format)


class LorentzianMirror(_PoleMirror):
    """Single-pole mirror: r = -1/(1 - i omega tau0), s = i omega tau0 r.

    R[omega] = 1/(1 + omega^2 tau0^2) and tau[omega] = tau0/(1 + omega^2
    tau0^2).  The pole is z = g = 1/tau0, the reflection cutoff: r = g/(z
    - g) and s = 1 + g/(z - g).
    """

    def __init__(self, tau0: float):
        if not (tau0 > 0 and math.isfinite(tau0) and math.isfinite(1.0 / tau0)):
            raise ValueError(f"tau0 must be finite and > 0 with 1/tau0 finite, got {tau0}")
        g = 1.0 / tau0
        super().__init__((0.0, 1.0), (((g, g, g),),), g,
                         functools.partial("LorentzianMirror(tau0={!r})".format, tau0))

    @property
    def tau0(self) -> float:
        """The delay parameter 1/cutoff."""
        return 1.0 / self._cutoff


# poles closer than this, relative to the larger modulus, are rejected: the
# partial-fraction error grows as about 1e2 eps / separation^2 (measured on
# random numerators), which reaches 2e-10 of the amplitude's peak here
_MIN_POLE_SEPARATION = 1e-2


def _coefficients(name, c):
    """``c`` as a list of floats, or ValueError unless a non-empty 1-D finite
    list, tuple or array."""
    c = c.tolist() if isinstance(c, np.ndarray) else c  # nested when not 1-D
    try:
        c = [float(v) for v in c] if isinstance(c, (list, tuple)) else []
    except TypeError:  # a sequence of sequences
        c = []
    if not c or not all(map(math.isfinite, c)):
        raise ValueError(f"{name} must be a non-empty 1-D finite coefficient list")
    return c


def _roots(den):
    """The roots of ascending ``den``, last coefficient nonzero, as ``np.roots`` gives them.

    They are the eigenvalues of the companion matrix that ``np.roots``
    forms, from one ``np.linalg.eigvals`` call: floats when every root is
    real, complex numbers otherwise, followed by one zero root per leading
    zero coefficient of ``den``.
    """
    zeros = next(k for k, c in enumerate(den) if c)
    row = [-c / den[-1] for c in reversed(den[zeros:-1])]
    companion = [row] + [[float(j == i) for j in range(len(row))] for i in range(len(row) - 1)]
    poles = np.linalg.eigvals(companion).tolist() if row else []
    return poles + [0j if poles and isinstance(poles[0], complex) else 0.0] * zeros


def _partial_fractions(name, num, den, poles=None):
    """(c, groups, poles) of num/den, ascending float lists in z, simple poles only.

    ``poles`` are den's roots, found and checked here when not given.  Each
    residue is n(p)/d'(p), both by Horner, with d' from the coefficients
    k c_k.  Each group is a real pole's (p, rho), as floats, or an
    upper-half-plane pole's (p, rho) with its conjugate term (p*, rho*):
    the eigenvalues of a real matrix come as exact conjugate pairs, upper
    root first, so the lower root is taken from the upper one.  The complex
    residues use CPython's complex arithmetic.
    """
    if any(num[len(den):]):
        raise ValueError(f"{name} is improper: numerator degree above denominator degree")
    num = num[:len(den)]
    if poles is None:
        poles = _roots(den)
        if any(abs(p - q) <= _MIN_POLE_SEPARATION * max(abs(p), abs(q))
               for i, p in enumerate(poles) for q in poles[:i]):
            raise ValueError(f"{name} has a repeated or nearly repeated pole (relative "
                             f"separation below {_MIN_POLE_SEPARATION:g}): {poles}")
    slope = [k * c for k, c in enumerate(den[1:], 1)]
    groups = []
    for p in [q for q in poles if q.imag >= 0]:
        z = p if p.imag else p.real
        n = d = 0.0  # n(z) and d'(z) by Horner from the top coefficient
        for c in reversed(num):
            n = n * z + c
        for c in reversed(slope):
            d = d * z + c
        rho = n / d
        groups.append(((z, rho), (z.conjugate(), rho.conjugate())) if p.imag else ((z, rho),))
    return num[-1] / den[-1] if len(num) == len(den) else 0.0, groups, poles


class RationalMirror(_PoleMirror):
    """Mirror with r and s given as rational functions of z = i omega.

    Coefficients ``r_num, r_den, s_num, s_den`` are real and ascending in z,
    which builds in reality, r[-omega] = r[omega]*; ``cutoff`` defaults to
    the largest pole modulus of r.  The poles are the roots of each
    denominator (shared when r_den == s_den), each residue is n(p)/d'(p),
    and the constant the ratio of the leading coefficients at equal degree;
    a conjugate pair is built from its upper root, exact by construction.
    Everything but the roots is Python float and complex arithmetic on
    the few coefficients.  An improper r or s, or a repeated or nearly
    repeated pole, raises ValueError.  Unitarity is *not* automatic: check
    it with :func:`validate_model`.
    """

    def __init__(self, r_num, r_den, s_num, s_den, cutoff: float | None = None):
        rn, rd, sn, sd = map(_coefficients, ("r_num", "r_den", "s_num", "s_den"),
                             (r_num, r_den, s_num, s_den))
        if rd[-1] == 0 or sd[-1] == 0:
            raise ValueError("denominator leading coefficients must be nonzero")
        shared = rd == sd  # then s takes r's poles, rooted once
        c_r, r_groups, r_poles = _partial_fractions("r", rn, rd)
        c_s, s_groups, _ = _partial_fractions("s", sn, sd, r_poles if shared else None)
        if shared:
            groups = [tuple((p, a, b) for (p, a), (_, b) in zip(r_group, s_group))
                      for r_group, s_group in zip(r_groups, s_groups)]
        else:
            groups = ([tuple((p, a, 0.0) for p, a in group) for group in r_groups]
                      + [tuple((p, 0.0, b) for p, b in group) for group in s_groups])
        if cutoff is None and r_groups:
            cutoff = max(abs(group[0][0]) for group in r_groups)
        if cutoff is not None and not (cutoff > 0 and math.isfinite(cutoff)):
            raise ValueError(f"cutoff must be finite and > 0, got {cutoff}")
        super().__init__((c_r, c_s), groups, cutoff, functools.partial(
            "RationalMirror(r_num={}, r_den={}, s_num={}, s_den={})".format, rn, rd, sn, sd))


# ---------------------------------------------------------------------------
# derived quantities

def reflection_probability(model: MirrorModel, omega):
    """Reflection probability R = |r|^2; even in omega."""
    r, _ = model.amplitudes(omega)
    return np.abs(r) ** 2


def reflection_and_delay(model: MirrorModel, omega, order: int = 1):
    """Return (R, dR/domega, tau, dtau/domega) from one ``amplitudes`` call.

    tau = Delta'/2 = Im[(s^2 - r^2)' / (s^2 - r^2)] / 2 from the analytic
    amplitude derivatives, exact for unimodular determinants; R and tau
    are even in omega, their slopes odd.  ``order`` is the highest
    amplitude derivative evaluated: at 1 the delay slope is None, at 2 the
    second derivatives supply it.  This is the one place the determinant
    and delay algebra is written.
    """
    r, s, dr, ds, *second = model.amplitudes(omega, order)
    det = s * s - r * r
    logslope = 2.0 * (s * ds - r * dr) / det
    d_tau = None
    if order > 1:
        d2r, d2s = second
        d2det = 2.0 * (ds * ds + s * d2s - dr * dr - r * d2r)
        d_tau = 0.5 * np.imag(d2det / det - logslope * logslope)
    return (np.abs(r) ** 2, 2.0 * np.real(np.conj(r) * dr),
            0.5 * np.imag(logslope), d_tau)


def b_function(model: MirrorModel, omega):
    """Inertia kernel b = 2 (1 - 2 R[omega]) tau[omega]; even, units of time."""
    return _b_kernel(reflection_and_delay(model, omega))


def _b_kernel(record):
    """b = 2 (1 - 2 R) tau of a :func:`reflection_and_delay` record."""
    big_r, _, tau, _ = record
    return 2.0 * (1.0 - 2.0 * big_r) * tau


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    max_violation: float
    worst_omega: float
    allowed: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.allowed


@dataclass(frozen=True)
class ModelValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def raise_for_failure(self):
        if not self.passed:
            raise ValidationFailed(self)


UNITARITY_TOL = 1e-12
TRANSPARENCY_TOL = 1e-3


def validate_model(model: MirrorModel, omegas) -> ModelValidationReport:
    """Check unitarity (both relations), reality, and high-frequency transparency.

    Unitarity and reality are held to ``UNITARITY_TOL``.  Reality compares
    the amplitudes at -omega with the conjugates of those at omega, unless
    the model declares ``exact_reality`` (every pole mirror does, as its
    conjugate terms are summed together): then it reads 0.0 at the grid's
    first frequency, which is what the comparison gives, and -omega is not
    evaluated.  Transparency (R -> 0 well above the cutoff, to
    ``TRANSPARENCY_TOL``) is only checked when the model declares a finite
    cutoff; the perfect mirror skips it.  Returns the per-check maximal
    violation and the frequency where it occurs; use
    ``report.raise_for_failure()`` to turn failures into
    :class:`ValidationFailed`.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size == 0 or not np.isfinite(omegas).all():
        raise ValueError("validation grid must be non-empty and finite")

    # omega, -omega unless reality is exact, and the transparency probe far
    # above the cutoff, in one call
    cutoff = model.cutoff_frequency
    high = [] if cutoff is None else [cutoff * k for k in (100.0, 316.0, 1000.0)]
    exact = model.exact_reality
    n = omegas.size
    m = n if exact else 2 * n  # where the probe starts

    def worst(violation):
        idx = violation.argmax()
        return float(violation[idx]), float(omegas[idx])

    checks = []
    # an amplitude near the float range may overflow: a non-finite
    # violation fails its check
    with np.errstate(all="ignore"):
        r_all, s_all = model.amplitudes(
            np.concatenate((omegas, high) if exact else (omegas, -omegas, high)))
        r, r_neg, r_high = r_all[:n], r_all[n:m], r_all[m:]
        s, s_neg = s_all[:n], s_all[n:m]
        v, w = worst(abs(abs(r) ** 2 + abs(s) ** 2 - 1.0))
        checks.append(CheckResult("unitarity_modulus", v, w, UNITARITY_TOL))
        v, w = worst(abs(s * r.conj() + r * s.conj()))
        checks.append(CheckResult("unitarity_orthogonality", v, w, UNITARITY_TOL))
        if exact:
            v, w = 0.0, float(omegas[0])
        else:
            v, w = worst(np.maximum(abs(r_neg - r.conj()), abs(s_neg - s.conj())))
        checks.append(CheckResult("reality", v, w, UNITARITY_TOL))

        if cutoff is not None:
            idx = (abs(r_high) ** 2).argmax()
            # np.abs as on the array: abs() of a numpy complex scalar rounds otherwise
            checks.append(CheckResult("transparency", float(np.abs(r_high[idx]) ** 2),
                                      high[idx], TRANSPARENCY_TOL))

    return ModelValidationReport(tuple(checks))
