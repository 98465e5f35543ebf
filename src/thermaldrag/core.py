"""Units convention and the thermal occupation numbers.

All numerical kernels in this package work in natural units hbar = c = 1
with k_B = 1, so temperatures are energies and angular frequencies are
energies too.  :class:`UnitSystem` holds the conversion factors applied at
the I/O boundary (the CLI); nothing below that layer ever sees a unit
other than the natural one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# End of the thermal domain x = hbar*omega/T in [0, X_UNDERFLOW]: n(700) =
# 9.9e-305 is still a normal double, so the cut drops a tail of about e^-700
# of the integrand's scale, unless the integrand grows (the quadrature's
# growth guard checks that)
X_UNDERFLOW = 700.0
UNIT_RANGE = (1e-75, 1e75)  # allowed hbar and c of a user unit system


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
        # the largest conversion factor is (hbar c)^2: within UNIT_RANGE every
        # factor, and its inverse, is a finite nonzero double
        for name, value in (("hbar", self.hbar), ("c", self.c)):
            if not UNIT_RANGE[0] <= value <= UNIT_RANGE[1]:
                raise ValueError(f"{name} must lie in [{UNIT_RANGE[0]:g}, "
                                 f"{UNIT_RANGE[1]:g}], got {value}")

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
    """Bose-Einstein occupation n = 1/(e^x - 1) as a function of x = hbar*omega/T.

    Array in, array out; a 0-d input gives a numpy scalar.  The one
    expression covers every x: it is inf at x = 0 and at subnormal x, 0
    once e^x overflows (x > 709.78), and NaN for a NaN.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.expm1(x)


def occupation_plus_one_from_ratio(x):
    """1 + n(x) = 1/(1 - e^{-x}), so that n(-x) = -(1 + n(x)) bit for bit.

    The same single expression as :func:`occupation_from_ratio`: 1 once
    e^{-x} underflows, inf at x = 0 and NaN for a NaN.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return -1.0 / np.expm1(-x)
