import math
import warnings

import numpy as np
import pytest

from oracles import (differentiate, occupation_series,
                     occupation_temp_derivative_series)
from thermaldrag import UnitSystem
from thermaldrag.core import occupation_from_ratio, occupation_plus_one_from_ratio


def occupation_temp_derivative(omega, temp):
    """dn/dT = x n (1 + n) / T with x = omega/T, the identity the entropic route uses."""
    x = omega / temp
    return x * occupation_from_ratio(x) * occupation_plus_one_from_ratio(x) / temp


class TestBoseOccupation:
    def test_ratio_log2_is_one(self):
        # e^{ln 2} - 1 = 1
        assert occupation_from_ratio(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_deep_quantum_tail(self):
        assert occupation_from_ratio(50.0) < 2e-22

    def test_unit_ratio_against_series(self):
        # 1/(e - 1), pinned and cross-checked against the geometric series
        value = occupation_from_ratio(1.0)
        assert value == pytest.approx(0.5819767068693265, rel=1e-12)
        assert value == pytest.approx(occupation_series(1.0), rel=1e-13)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 5.0, 20.0])
    def test_series_oracle(self, x):
        assert occupation_from_ratio(x) == pytest.approx(occupation_series(x), rel=1e-13)

    def test_scale_invariance(self):
        # n depends on omega and T only through their ratio
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega = rng.uniform(0.01, 10.0)
            temp = rng.uniform(0.01, 10.0)
            k = rng.uniform(0.1, 100.0)
            assert occupation_from_ratio(k * omega / (k * temp)) == pytest.approx(
                occupation_from_ratio(omega / temp), rel=1e-12)

    def test_monotone_decreasing_in_omega(self):
        values = occupation_from_ratio(np.linspace(0.1, 30.0, 40) / 2.0)
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_underflow_guard(self):
        # no cut: n(701) is still a normal double, and only once e^x
        # overflows (x > 709.78) do n and 1 + n reach their limits
        assert occupation_from_ratio(701.0) == pytest.approx(math.exp(-701.0),
                                                             rel=1e-14, abs=0.0)
        assert occupation_from_ratio(800.0) == 0.0
        assert occupation_plus_one_from_ratio(800.0) == 1.0

    def test_laurent_branch_accuracy(self):
        x = 5e-9
        exact = occupation_series(x) if x > 0.1 else 1.0 / math.expm1(x)
        assert occupation_from_ratio(x) == pytest.approx(exact, rel=1e-12)
        assert occupation_plus_one_from_ratio(x) == pytest.approx(1.0 + exact,
                                                                  rel=1e-12)

    def test_array_in_array_out(self):
        # from the classical limit past the domain end in one call; a float
        # gives a numpy scalar
        x = np.array([[5e-9, 1.0], [50.0, 701.0]])
        for f in (occupation_from_ratio, occupation_plus_one_from_ratio):
            out = f(x)
            assert out.shape == x.shape
            assert out.ravel().tolist() == [f(v) for v in x.ravel()]
            assert isinstance(f(1.0), np.float64)

    @pytest.mark.parametrize("f", [occupation_from_ratio, occupation_plus_one_from_ratio])
    def test_zero_d_and_empty_inputs(self, f):
        # a 0-d input gives a numpy scalar, an empty array a float64 array
        assert isinstance(f(np.array(1.0)), np.float64)
        empty = f(np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64

    @pytest.mark.parametrize("f", [occupation_from_ratio, occupation_plus_one_from_ratio])
    def test_nan_in_nan_out(self, f):
        assert math.isnan(f(math.nan))
        assert np.isnan(f(np.array([1.0, math.nan, 800.0]))).tolist() == [False, True, False]

    @pytest.mark.parametrize("f", [occupation_from_ratio, occupation_plus_one_from_ratio])
    def test_subnormal_ratio_is_inf_without_warning(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(1e-310) == math.inf

    def test_negative_ratio_is_minus_one_plus_n(self):
        # n(-x) = 1/(e^-x - 1) = -(1 + n(x)), bit for bit on both signs of x
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.floats(-1e3, 1e3, allow_nan=False))
        def check(x):
            assert (occupation_from_ratio(-x).tobytes()
                    == (-occupation_plus_one_from_ratio(x)).tobytes())

        check()
        assert occupation_from_ratio(-1.0) == pytest.approx(-1.5819767068693265, rel=1e-15)


class TestOccupationTempDerivative:
    def test_unit_ratio_value(self):
        # e/(e-1)^2, pinned and cross-checked against the series oracle
        value = occupation_temp_derivative(1.0, 1.0)
        assert value == pytest.approx(0.9206735942077924, rel=1e-12)
        assert value == pytest.approx(occupation_temp_derivative_series(1.0, 1.0),
                                      rel=1e-12)

    def test_scaling_identity(self):
        # -omega dn/domega = T dn/dT, with the omega derivative done numerically
        omega, temp = 1.0, 1.0
        lhs = -omega * differentiate(lambda w: occupation_from_ratio(w / temp),
                                     omega, 1.0)
        rhs = temp * occupation_temp_derivative(omega, temp)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_vanishes_in_quantum_limit(self):
        assert occupation_temp_derivative(800.0, 1.0) == 0.0
        assert occupation_temp_derivative(60.0, 1.0) < 1e-24

    def test_positive(self):
        for x in np.geomspace(1e-6, 100.0, 30):
            assert occupation_temp_derivative(x, 1.0) > 0.0

    def test_matches_finite_difference_in_temp(self):
        # relative 1e-6 across four decades of hbar*omega/T
        for x in np.geomspace(0.01, 30.0, 25):
            temp = 1.7
            omega = x * temp
            h = temp * 1e-5
            fd = (occupation_from_ratio(omega / (temp + h))
                  - occupation_from_ratio(omega / (temp - h))) / (2 * h)
            assert occupation_temp_derivative(omega, temp) == pytest.approx(
                fd, rel=1e-6)


class TestSmoothedSign:
    # coth(x/2) = n(x) + (1 + n(x)): the smoothed sign function the
    # susceptibility split keeps away from its pole, built from both factors
    def test_zero_temperature_is_sign(self):
        # T = 0 is x = inf: no thermal quanta, the plain sign is left
        assert occupation_from_ratio(math.inf) == 0.0
        assert occupation_plus_one_from_ratio(math.inf) == 1.0

    def test_large_ratio_asymptote(self):
        assert occupation_plus_one_from_ratio(80.0) == pytest.approx(1.0, abs=1e-12)
        assert occupation_plus_one_from_ratio(80.0) >= 1.0

    def test_coth_value(self):
        # coth(ln 2) = 5/3
        x = 2.0 * math.log(2.0)
        assert (occupation_from_ratio(x) + occupation_plus_one_from_ratio(x)
                == pytest.approx(5.0 / 3.0, rel=1e-12))

    def test_equals_one_plus_two_occupations(self):
        for x in np.geomspace(0.01, 50.0, 20):
            assert (occupation_from_ratio(x) + occupation_plus_one_from_ratio(x)
                    == pytest.approx(1.0 + 2.0 * occupation_from_ratio(x), rel=1e-12))


class TestUnitSystem:
    def test_defaults_are_natural(self):
        units = UnitSystem()
        assert units.hbar == 1.0 and units.c == 1.0 and units == UnitSystem()

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            UnitSystem(hbar=0.0)
        with pytest.raises(ValueError):
            UnitSystem(c=-1.0)

    def test_frequency_time_roundtrip(self):
        units = UnitSystem(hbar=3.0, c=2.0)
        assert units.frequency_from_natural(units.frequency_to_natural(1.7)) == 1.7
        assert units.time_from_natural(units.time_to_natural(0.3)) == 0.3

    def test_omega_t_product_invariant(self):
        units = UnitSystem(hbar=2.5, c=4.0)
        omega_u, t_u = 3.0, 7.0
        product = units.frequency_to_natural(omega_u) * units.time_to_natural(t_u)
        assert product == pytest.approx(omega_u * t_u, rel=1e-15)

    def test_viscosity_conversion_matches_closed_form(self):
        # perfect-mirror law: lambda = 2 pi T^2 / (3 hbar c^2) in user units
        units = UnitSystem(hbar=2.0, c=3.0)
        temp = 1.4
        lam_natural = 2.0 * math.pi * temp**2 / 3.0
        expected_user = 2.0 * math.pi * temp**2 / (3.0 * units.hbar * units.c**2)
        assert units.viscosity_from_natural(lam_natural) == pytest.approx(
            expected_user, rel=1e-15)

    def test_susceptibility_conversion_matches_closed_form(self):
        # chi_0 = i hbar omega^3 / (6 pi c^2) for the perfect mirror
        units = UnitSystem(hbar=2.0, c=3.0)
        omega_user = 0.7
        omega_nat = units.frequency_to_natural(omega_user)
        chi_nat = 1j * omega_nat**3 / (6.0 * math.pi)
        expected = 1j * units.hbar * omega_user**3 / (6.0 * math.pi * units.c**2)
        assert units.susceptibility_from_natural(chi_nat) == pytest.approx(
            expected, rel=1e-15)
