"""Units convention, thermal occupation numbers and the smoothed sign function.

All numerical kernels in this package work in natural units hbar = c = 1
with k_B = 1, so temperatures are energies and angular frequencies are
energies too.  :class:`UnitSystem` holds the conversion factors applied at
the I/O boundary (the CLI); nothing below that layer ever sees a unit
other than the natural one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Guards for the Bose-Einstein occupation n(x) = 1/(e^x - 1), x = hbar*omega/T.
X_UNDERFLOW = 700.0  # beyond this the occupation underflows double precision
X_LAURENT = 1e-8     # below this, use the Laurent expansion 1/x - 1/2 + x/12


@dataclass(frozen=True)
class UnitSystem:
    """Values of hbar and c fixing the I/O unit convention.

    k_B is fixed to 1 and temperatures are energies in every system.  The
    natural and user systems share the energy unit, which makes the
    conversion factors below unique: frequencies scale with hbar so that
    hbar*omega stays an energy, times scale with 1/hbar so that omega*t is
    invariant, and lengths scale with 1/(hbar*c).
    """

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be finite and > 0, got {self.hbar}")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"c must be finite and > 0, got {self.c}")

    @property
    def is_natural(self) -> bool:
        return self.hbar == 1.0 and self.c == 1.0

    # --- user units -> natural units ---
    def frequency_to_natural(self, omega):
        return self.hbar * omega

    def time_to_natural(self, t):
        return t / self.hbar

    def displacement_to_natural(self, q):
        return q / (self.hbar * self.c)

    # --- natural units -> user units ---
    def frequency_from_natural(self, omega):
        return omega / self.hbar

    def time_from_natural(self, t):
        return t * self.hbar

    def force_from_natural(self, f):
        return f / (self.hbar * self.c)

    def viscosity_from_natural(self, lam):
        return lam / (self.hbar * self.c**2)

    def mass_from_natural(self, mu):
        return mu / self.c**2

    def power_from_natural(self, a):
        return a / self.hbar

    def susceptibility_from_natural(self, chi):
        return chi / (self.hbar**2 * self.c**2)


def occupation_from_ratio(x):
    """Bose-Einstein occupation as a function of x = hbar*omega/T.

    Accepts scalars or numpy arrays with x > 0.  Underflows to exactly 0
    above ``X_UNDERFLOW`` and switches to the Laurent expansion below
    ``X_LAURENT`` to preserve relative accuracy in the classical limit.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    tiny = x < X_LAURENT
    mid = ~tiny & (x <= X_UNDERFLOW)
    xm = x[mid]
    out[mid] = 1.0 / np.expm1(xm)
    xt = x[tiny]
    with np.errstate(divide="ignore"):
        out[tiny] = 1.0 / xt - 0.5 + xt / 12.0
    if out.ndim == 0:
        return float(out)
    return out


def occupation_plus_one_from_ratio(x):
    """1 + n(x) = 1/(1 - e^{-x}) with the same guard structure."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape)
    tiny = x < X_LAURENT
    mid = ~tiny & (x <= X_UNDERFLOW)
    xm = x[mid]
    out[mid] = -1.0 / np.expm1(-xm)
    xt = x[tiny]
    with np.errstate(divide="ignore"):
        out[tiny] = 1.0 / xt + 0.5 + xt / 12.0
    if out.ndim == 0:
        return float(out)
    return out


def bose_occupation(omega: float, temp: float) -> float:
    """Mean number of thermal quanta per mode, n = 1/(e^{hbar*omega/T} - 1).

    Parameters
    ----------
    omega : float
        Angular frequency, > 0 (natural units).
    temp : float
        Temperature as an energy, > 0.  Callers must take the T = 0 branch
        explicitly; this function refuses it.
    """
    if not omega > 0:
        raise ValueError(f"bose_occupation requires omega > 0, got {omega}")
    if not temp > 0:
        raise ValueError(f"bose_occupation requires temp > 0, got {temp}")
    return occupation_from_ratio(omega / temp)


def bose_occupation_temp_derivative(omega: float, temp: float) -> float:
    """Temperature derivative of the occupation, dn/dT (per unit energy).

    Closed form (hbar*omega/T^2) e^x / (e^x - 1)^2 with x = hbar*omega/T,
    evaluated as x/(4 T sinh^2(x/2)) for overflow safety; strictly positive.
    """
    if not omega > 0:
        raise ValueError(f"requires omega > 0, got {omega}")
    if not temp > 0:
        raise ValueError(f"requires temp > 0, got {temp}")
    x = omega / temp
    if x > X_UNDERFLOW:
        return 0.0
    if x < 1e-4:
        # series of x * (1/x^2 - 1/12 + x^2/240)
        return (1.0 / x - x / 12.0 + x**3 / 240.0) / temp
    s = math.sinh(0.5 * x)
    return x / (4.0 * temp * s * s)


def smoothed_sign(omega: float, temp: float) -> float:
    """sign(omega) at T = 0, otherwise coth(hbar*omega/2T).

    Evaluated through the identity coth(x/2) = sign(omega) (1 + 2 n(|x|)),
    which ties it to :func:`bose_occupation`.  The pole at omega = 0 is a
    domain error; every integrand using this factor vanishes there first.
    """
    if omega == 0:
        raise ValueError("smoothed_sign is singular at omega = 0")
    if temp < 0:
        raise ValueError(f"requires temp >= 0, got {temp}")
    sign = 1.0 if omega > 0 else -1.0
    if temp == 0:
        return sign
    return sign * (1.0 + 2.0 * occupation_from_ratio(abs(omega) / temp))
