"""Property tests over random rational mirrors, drawn by hypothesis."""

import numpy as np
import pytest

import oracles
from conftest import ORACLE_RTOL
from thermaldrag import RationalMirror

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_MODULI = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
_REAL_POLE = st.tuples(_MODULI, st.sampled_from((-1.0, 1.0))).map(
    lambda mp: [mp[0] * mp[1]])
# angles kept 0.3 away from the real axis, so a pair is never near-double
_COMPLEX_PAIR = st.tuples(_MODULI, st.floats(0.3, np.pi - 0.3)).map(
    lambda ma: [ma[0] * np.exp(1j * ma[1]), ma[0] * np.exp(-1j * ma[1])])
_OMEGA = np.geomspace(1e-2, 1e2, 9)
_OMEGA = np.concatenate((-_OMEGA[::-1], [0.0], _OMEGA))  # _OMEGA[::-1] is -_OMEGA


@st.composite
def proper_rationals(draw):
    """(r_num, den, s_num, den): up to 6 poles, real or in conjugate pairs,
    every two apart by at least 0.2 of the larger modulus."""
    poles = sum(draw(st.lists(st.one_of(_REAL_POLE, _COMPLEX_PAIR), max_size=3)), [])
    hypothesis.assume(all(abs(a - b) >= 0.2 * max(abs(a), abs(b))
                          for i, a in enumerate(poles) for b in poles[:i]))
    den = np.real(np.atleast_1d(np.poly(poles)))[::-1]
    r_num, s_num = (np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1,
                                           max_size=den.size))) for _ in "rs")
    return r_num, den, s_num, den


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(proper_rationals())
def test_pole_form_matches_oracle_and_is_real(coeffs):
    model = RationalMirror(*coeffs)
    oracle = oracles.PerPolynomialRational(*coeffs)
    ours, reference = model.amplitudes(_OMEGA, 2), oracle.amplitudes(_OMEGA, 2)
    for a, b in zip(ours, reference, strict=True):
        assert np.max(np.abs(a - b)) <= ORACLE_RTOL * max(np.max(np.abs(b)), 1.0)
    # r[-omega] = r[omega]*: the sums over a conjugate pair run in swapped
    # order, so equal up to rounding
    for a in model.amplitudes(_OMEGA):
        assert np.max(np.abs(a[::-1] - a.conj())) <= 1e-14 * max(np.max(np.abs(a)), 1.0)
