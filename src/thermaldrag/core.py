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

# Guards for the Bose-Einstein occupation n(x) = 1/(e^x - 1), x = hbar*omega/T.
X_UNDERFLOW = 700.0  # beyond this the occupation underflows double precision
X_LAURENT = 1e-8     # below this, use the Laurent expansion 1/x - 1/2 + x/12
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


def _guarded(x, underflowed, exact, laurent):
    """The one guard structure of n(x) and 1 + n(x) on x = hbar*omega/T > 0.

    ``underflowed`` (np.zeros or np.ones) fills x > ``X_UNDERFLOW``, where
    the value has reached its limit in double precision; ``laurent`` takes
    x < ``X_LAURENT``, preserving the relative accuracy in the classical
    limit; ``exact`` takes the rest.  Array in, array out; a 0-d input
    gives a numpy scalar.  When every x lies in the exact range, as the
    thermal quadrature's nodes do unless its first panel is bisected below
    a width of about 2e-6, ``exact`` takes the whole array without masks;
    a NaN fails both bounds and takes the masked path.
    """
    x = np.asarray(x, dtype=float)
    if x.size and X_LAURENT <= x.min() and x.max() <= X_UNDERFLOW:
        return exact(x)[()]
    out = underflowed(x.shape)
    tiny = x < X_LAURENT
    mid = ~tiny & (x <= X_UNDERFLOW)
    out[mid] = exact(x[mid])
    with np.errstate(divide="ignore"):
        out[tiny] = laurent(x[tiny])
    return out[()]


def occupation_from_ratio(x):
    """Bose-Einstein occupation n = 1/(e^x - 1) as a function of x = hbar*omega/T."""
    return _guarded(x, np.zeros, lambda xm: 1.0 / np.expm1(xm),
                    lambda xt: 1.0 / xt - 0.5 + xt / 12.0)


def occupation_plus_one_from_ratio(x):
    """1 + n(x) = 1/(1 - e^{-x}) with the same guard structure."""
    return _guarded(x, np.ones, lambda xm: -1.0 / np.expm1(-xm),
                    lambda xt: 1.0 / xt + 0.5 + xt / 12.0)
