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

A model declares three things: r and s, their analytic omega-derivatives
up to a requested order in one call, and its reflection cutoff; a
subclass without all three cannot be instantiated.  Everything else,
R0 and tau0 included, is derived from the amplitudes.  Every method and
kernel here is array-only: an ndarray in gives an ndarray of the same
shape out, and a scalar in gives a numpy scalar (a ``complex`` or
``float`` instance) out.  Models are immutable after construction and
all operations here are pure functions of their arguments.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationFailed


class MirrorModel(abc.ABC):
    """Unitary, causal, real scattering model of a point mirror."""

    @abc.abstractmethod
    def amplitudes(self, omega):
        """Return (r, s) at ``omega`` (scalar or ndarray; complex output)."""

    @abc.abstractmethod
    def amplitude_derivatives(self, omega, order=1):
        """Return (r', s') at ``order`` 1 and (r', s', r'', s'') at ``order`` 2."""

    @property
    @abc.abstractmethod
    def cutoff_frequency(self):
        """Reflection cutoff, or None for a mirror that never turns transparent."""

    @property
    def low_frequency_reflection(self) -> float:
        """R0 = |r[0]|^2."""
        return float(reflection_probability(self, 0.0))

    @property
    def low_frequency_delay(self) -> float:
        """tau0, the scattering delay at omega = 0."""
        # + 0.0 turns the -0.0 of a delay-free mirror into 0.0
        return float(scattering_delay(self, 0.0)) + 0.0


class PerfectMirror(MirrorModel):
    """Idealized mirror with r = -1, s = 0 at every frequency.

    Violates high-frequency transparency (``cutoff_frequency`` is None);
    its delay is identically zero, so it is the R0 = 1, tau0 = 0 member of
    the scattering family.
    """

    def amplitudes(self, omega):
        zero = np.zeros(np.shape(omega), dtype=complex)[()]  # [()] unwraps 0-d
        return zero - 1.0, zero

    def amplitude_derivatives(self, omega, order=1):
        return tuple(np.zeros(np.shape(omega), dtype=complex)[()]
                     for _ in range(2 * order))

    @property
    def cutoff_frequency(self):
        return None

    def __repr__(self):
        return "PerfectMirror()"


class LorentzianMirror(MirrorModel):
    """Single-pole mirror: r = -1/(1 - i omega tau0), s = -i omega tau0 r.

    R[omega] = 1/(1 + omega^2 tau0^2) and tau[omega] = tau0/(1 + omega^2
    tau0^2); the delay parameter tau0 is also the inverse of the
    reflection cutoff.
    """

    def __init__(self, tau0: float):
        if not (tau0 > 0 and math.isfinite(tau0)):
            raise ValueError(f"tau0 must be finite and > 0, got {tau0}")
        self._tau0 = float(tau0)

    @property
    def tau0(self) -> float:
        return self._tau0

    def amplitudes(self, omega):
        omega = np.asarray(omega)
        den = 1.0 - 1j * self._tau0 * omega
        return -1.0 / den, -1j * self._tau0 * omega / den

    def amplitude_derivatives(self, omega, order=1):
        den = 1.0 - 1j * self._tau0 * np.asarray(omega)
        d = -1j * self._tau0 / den**2  # r' and s' coincide for this model
        if order == 1:
            return d, d.copy()
        d2 = 2.0 * self._tau0**2 / den**3
        return d, d.copy(), d2, d2.copy()

    @property
    def cutoff_frequency(self):
        return 1.0 / self._tau0

    def __repr__(self):
        return f"LorentzianMirror(tau0={self._tau0!r})"


class RationalMirror(MirrorModel):
    """Mirror with r and s given as rational functions of z = i omega.

    Coefficients are real and ascending in z, which builds in the reality
    constraint r[-omega] = r[omega]*.  Unitarity is *not* automatic:
    validate with :func:`validate_model` before use.

    Parameters
    ----------
    r_num, r_den, s_num, s_den : sequence of float
        Ascending real coefficients of the numerators/denominators in z.
    cutoff : float, optional
        Reflection cutoff.  Defaults to the largest pole magnitude of r.
    """

    def __init__(self, r_num, r_den, s_num, s_den, cutoff: float | None = None):
        self._rn = np.asarray(r_num, dtype=float)
        self._rd = np.asarray(r_den, dtype=float)
        self._sn = np.asarray(s_num, dtype=float)
        self._sd = np.asarray(s_den, dtype=float)
        for name, coeffs in (("r_num", self._rn), ("r_den", self._rd),
                             ("s_num", self._sn), ("s_den", self._sd)):
            if coeffs.ndim != 1 or coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
                raise ValueError(f"{name} must be a non-empty 1-D finite coefficient list")
        if self._rd[-1] == 0 or self._sd[-1] == 0:
            raise ValueError("denominator leading coefficients must be nonzero")
        if cutoff is None:
            roots = np.roots(self._rd[::-1]) if self._rd.size > 1 else np.array([])
            cutoff = float(np.max(np.abs(roots))) if roots.size else None
        if cutoff is not None and not cutoff > 0:
            raise ValueError(f"cutoff must be > 0, got {cutoff}")
        self._cutoff = cutoff
        # rows r_num, r_den, s_num, s_den, then their first and second
        # z-derivatives; zeros pad the high-degree end, which leaves each
        # row's Horner value bit-identical to polyval on the unpadded row
        coeffs = (self._rn, self._rd, self._sn, self._sd)
        table = np.zeros((12, max(c.size for c in coeffs)))
        for row, c in zip(table, coeffs):
            row[:c.size] = c
        powers = np.arange(1.0, table.shape[1])
        for row in (4, 8):
            table[row:row + 4, :-1] = powers * table[row - 4:row, 1:]
        self._table = table

    def _horner(self, rows, omega):
        """Rows 0..rows-1 of the table at z = i omega, stacked on a leading axis.

        One Horner pass with numpy polyval's order of operations.
        """
        z = 1j * np.asarray(omega)
        columns = self._table[:rows].T.reshape(-1, rows, *(1,) * z.ndim)
        acc = columns[-1] + z * 0
        for c in columns[-2::-1]:
            acc = c + acc * z
        return acc

    def amplitudes(self, omega):
        values = self._horner(4, omega)
        return tuple(values[0::2] / values[1::2])

    def amplitude_derivatives(self, omega, order=1):
        # block k holds the k-th z-derivatives, as (numerators, denominators) of (r, s)
        blocks = self._horner(4 * (order + 1), omega).reshape(
            order + 1, 2, 2, *np.shape(omega)).swapaxes(1, 2)
        (n, d), (n1, d1) = blocks[:2]
        # d/domega = i d/dz for functions of z = i omega
        first = 1j * (n1 * d - n * d1) / d**2
        if order == 1:
            return tuple(first)
        n2, d2 = blocks[2]
        # (i)^2 d^2/dz^2 of n/d
        second = -(n2 / d - (n * d2 + 2.0 * n1 * d1) / d**2 + 2.0 * n * d1**2 / d**3)
        return (*first, *second)

    @property
    def cutoff_frequency(self):
        return self._cutoff

    def __repr__(self):
        return (f"RationalMirror(r_num={self._rn.tolist()}, r_den={self._rd.tolist()}, "
                f"s_num={self._sn.tolist()}, s_den={self._sd.tolist()})")


# ---------------------------------------------------------------------------
# derived quantities

def reflection_probability(model: MirrorModel, omega):
    """Reflection probability R = |r|^2; even in omega."""
    r, _ = model.amplitudes(omega)
    return np.abs(r) ** 2


def reflection_and_delay(model: MirrorModel, omega, order: int = 1):
    """Return (R, dR/domega, tau, dtau/domega), calling each amplitude method once.

    tau = Delta'/2 = Im[(s^2 - r^2)' / (s^2 - r^2)] / 2 from the analytic
    amplitude derivatives, exact for unimodular determinants; R and tau
    are even in omega, their slopes odd.  ``order`` is the highest
    amplitude derivative evaluated: at 1 the delay slope is None, at 2 the
    second derivatives supply it.  This is the one place the determinant
    and delay algebra is written.
    """
    r, s = model.amplitudes(omega)
    dr, ds, *second = model.amplitude_derivatives(omega, order)
    det = s * s - r * r
    logslope = 2.0 * (s * ds - r * dr) / det
    d_tau = None
    if order > 1:
        d2r, d2s = second
        d2det = 2.0 * (ds * ds + s * d2s - dr * dr - r * d2r)
        d_tau = 0.5 * np.imag(d2det / det - logslope * logslope)
    return (np.abs(r) ** 2, 2.0 * np.real(np.conj(r) * dr),
            0.5 * np.imag(logslope), d_tau)


def scattering_delay(model: MirrorModel, omega):
    """Scattering delay tau = Delta'/2, half the phase derivative of the determinant.

    Even in omega; see :func:`reflection_and_delay`.
    """
    return reflection_and_delay(model, omega)[2]


def alpha_kernel(model: MirrorModel, omega1, omega2):
    """Two-frequency kernel alpha = 1 + r[w1] r[w2] - s[w1] s[w2]; symmetric.

    ``omega1`` and ``omega2`` must have one shape: both reach the model in
    one ``amplitudes`` call.
    """
    (r1, r2), (s1, s2) = model.amplitudes(np.array((omega1, omega2)))
    return 1.0 + r1 * r2 - s1 * s2


def b_function(model: MirrorModel, omega):
    """Inertia kernel b = 2 (1 - 2 R[omega]) tau[omega]; even, units of time."""
    big_r, _, tau, _ = reflection_and_delay(model, omega)
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

    Unitarity and reality are held to ``UNITARITY_TOL``.  Transparency (R
    -> 0 well above the cutoff, to ``TRANSPARENCY_TOL``) is only checked
    when the model declares a finite cutoff; the perfect mirror skips it.
    Returns the per-check maximal violation and the frequency where it
    occurs; use ``report.raise_for_failure()`` to turn failures into
    :class:`ValidationFailed`.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.size == 0 or not np.all(np.isfinite(omegas)):
        raise ValueError("validation grid must be non-empty and finite")

    # +-omega and the transparency probe far above the cutoff, in one call
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
