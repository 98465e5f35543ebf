import math

import numpy as np
import pytest

from thermaldrag import LorentzianMirror, PerfectMirror, RationalMirror

# a rational mirror's pole-residue form against the per-polynomial quotient of
# tests/oracles.py, relative to the peak over the nodes (absolute below a peak
# of 1), on poles separated by at least 0.2 of the larger modulus
ORACLE_RTOL = 1e-11


@pytest.fixture(scope="session")
def lorentzian():
    return LorentzianMirror(1.0)


@pytest.fixture(scope="session")
def perfect():
    return PerfectMirror()


@pytest.fixture(scope="session")
def rational_lorentzian():
    """The lorentzian written as a rational model (exact coefficients)."""
    return RationalMirror(r_num=[-1.0], r_den=[1.0, -1.0],
                          s_num=[0.0, -1.0], s_den=[1.0, -1.0])


def weak_mirror(epsilon: float = 0.3, tau: float = 1.0) -> RationalMirror:
    """Unitary mirror with small reflection everywhere.

    r = eps z / D(z), s = (1 - tau^2 z^2) / D(z) with the stable spectral
    factor D(z) = 1 - sqrt(eps^2 + 4 tau^2) z + tau^2 z^2 of
    (1 - tau^2 z^2)^2 - eps^2 z^2; unitarity holds identically.
    """
    root = math.sqrt(epsilon**2 + 4.0 * tau**2)
    den = [1.0, -root, tau**2]
    return RationalMirror(r_num=[0.0, epsilon], r_den=den,
                          s_num=[1.0, 0.0, -tau**2], s_den=den)


@pytest.fixture(scope="session")
def weak():
    return weak_mirror()


@pytest.fixture(scope="session")
def transparent_model():
    """r identically 0, s identically 1: chi vanishes for every omega."""
    return RationalMirror(r_num=[0.0], r_den=[1.0],
                          s_num=[1.0], s_den=[1.0], cutoff=1.0)


def separated_denominator(rng, degree: int, separation: float = 0.2):
    """Ascending real coefficients of a random polynomial of ``degree`` with simple roots.

    The roots are real or complex-conjugate pairs with moduli in [0.1, 10],
    every two of them apart by at least ``separation`` times the larger
    modulus; the polynomial is scaled by a random factor.
    """
    while True:
        roots = []
        while len(roots) < degree:
            p = 10.0 ** rng.uniform(-1.0, 1.0) * rng.choice((-1.0, 1.0))
            if degree - len(roots) >= 2 and rng.random() < 0.5:
                p = p * np.exp(1j * rng.uniform(0.3, 1.3))
                roots.append(p.conjugate())
            roots.append(p)
        gaps = [abs(a - b) / max(abs(a), abs(b))
                for i, a in enumerate(roots) for b in roots[:i]]
        if min(gaps, default=1.0) >= separation:
            return np.real(np.atleast_1d(np.poly(roots)))[::-1] * rng.uniform(0.5, 2.0)
