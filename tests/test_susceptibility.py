import math
import warnings

import numpy as np
import pytest

import oracles
from thermaldrag import (GridTooCoarse, GrowthBoundExceeded, LorentzianMirror,
                         QuadratureConfig, WindowTruncationWarning, chi_total,
                         correlation_spectrum, correlation_zero_frequency,
                         kramers_kronig_check, lambda_spectral,
                         vacuum_cubic_coefficient)
from thermaldrag import susceptibility
from thermaldrag.quadrature import DEFAULT_CONFIG


class TestChiVacuum:
    def test_perfect_mirror_cubic_law(self, perfect):
        # chi_0 = i omega^3 / 6 pi
        value = chi_total(perfect, 1.0, 0.0).chi_vacuum
        assert value.real == pytest.approx(0.0, abs=1e-15)
        assert value.imag == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-12)

    def test_zero_frequency(self, lorentzian, perfect):
        assert chi_total(lorentzian, 0.0, 0.0).chi_vacuum == 0.0
        assert chi_total(perfect, 0.0, 0.0).chi_vacuum == 0.0

    def test_closed_forms_report_no_evaluations(self, lorentzian, perfect):
        # branches that never call the integrand must not count evaluations
        vacuum = susceptibility._vacuum_quad(lorentzian, 0.0, DEFAULT_CONFIG)
        thermal = susceptibility._thermal_quad(perfect, 0.5, 1.0, DEFAULT_CONFIG)
        assert vacuum.evaluations == 0 and thermal.evaluations == 0

    def test_against_trapezoid_oracle(self, lorentzian):
        oracle = oracles.trapezoid_chi_vacuum(0.1)
        assert chi_total(lorentzian, 0.1, 0.0).chi_vacuum == pytest.approx(
            oracle, rel=1e-8)

    def test_conjugation_symmetry(self, lorentzian):
        for w in (0.3, 1.0, 8.0):
            assert chi_total(lorentzian, -w, 0.0).chi_vacuum == pytest.approx(
                chi_total(lorentzian, w, 0.0).chi_vacuum.conjugate(), rel=1e-12)

    def test_low_frequency_cubic_scaling(self, lorentzian):
        # |chi_0| / omega^3 constant to 1% over [1e-3, 1e-2]
        ratios = [abs(chi_total(lorentzian, w, 0.0).chi_vacuum) / w**3
                  for w in np.geomspace(1e-3, 1e-2, 7)]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=0.01)


class TestChiThermal:
    def test_zero_frequency_cancels(self, lorentzian):
        value = chi_total(lorentzian, 0.0, 1.0).chi_thermal
        assert abs(value) < 1e-14

    def test_perfect_mirror_linear_in_omega(self, perfect):
        # exact closed form i (2 pi/3) T^2 omega
        for temp, omega in ((1.0, 0.01), (2.5, 0.3)):
            value = chi_total(perfect, omega, temp).chi_thermal
            assert value == pytest.approx(
                1j * 2.0 * math.pi / 3.0 * temp**2 * omega, rel=1e-14)

    def test_against_trapezoid_oracle(self, lorentzian):
        for temp in (0.5, 1.0):
            oracle = oracles.trapezoid_chi_thermal(0.05, temp)
            assert chi_total(lorentzian, 0.05, temp).chi_thermal == pytest.approx(
                oracle, rel=1e-7)

    def test_conjugation_symmetry(self, lorentzian):
        for w in (0.2, 1.5):
            assert chi_total(lorentzian, -w, 0.7).chi_thermal == pytest.approx(
                chi_total(lorentzian, w, 0.7).chi_thermal.conjugate(), rel=1e-11)

    def test_nontransparent_model_rejected(self, transparent_model):
        # a model without a declared cutoff cannot take the generic path
        class NoCutoff(type(transparent_model)):
            pass

        model = NoCutoff(r_num=[0.0], r_den=[1.0], s_num=[1.0], s_den=[1.0])
        assert model.cutoff_frequency is None
        with pytest.raises(GrowthBoundExceeded):
            chi_total(model, 1.0, 1.0).chi_thermal

    def test_half_quantum_does_not_give_vacuum(self, lorentzian):
        # replacing the occupation by 1/2 in the thermal kernel must not
        # reproduce chi_0: compare on a wide truncated range
        omega = 1.0
        x = np.linspace(1e-9, 20.0, 200001)
        kernel = ((omega - x) * oracles.lorentzian_alpha(x, omega - x)
                  + (omega + x) * oracles.lorentzian_alpha(-x, omega + x))
        half_version = 1j / math.pi * np.trapezoid(x * kernel * 0.5, x)
        vacuum = chi_total(lorentzian, omega, 0.0).chi_vacuum
        quad_error = 1e-10
        assert abs(half_version - vacuum) > 10.0 * quad_error


class TestChiTotal:
    def test_zero_temperature_has_no_thermal_part(self, lorentzian):
        value = chi_total(lorentzian, 1.0, 0.0)
        assert value.chi_thermal == 0.0
        assert value.chi_total == value.chi_vacuum

    def test_decomposition_is_exact_sum(self, lorentzian):
        value = chi_total(lorentzian, 0.7, 2.0)
        assert value.chi_total == value.chi_vacuum + value.chi_thermal

    def test_vanishes_at_zero_frequency(self, lorentzian, perfect):
        for model in (lorentzian, perfect):
            for temp in (0.0, 1.0):
                value = chi_total(model, 0.0, temp)
                assert abs(value.chi_total) <= max(value.error_estimate, 1e-14)

    def test_perfect_quasistatic_imaginary_part(self, perfect):
        # Im chi ~ omega (2 pi/3) T^2 at small omega, to 1e-4 relative
        omega, temp = 0.01, 1.0
        value = chi_total(perfect, omega, temp).chi_total
        expected = omega * 2.0 * math.pi / 3.0 * temp**2
        assert value.imag == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("temp", [0.0, 0.3, 3.0])
    def test_conjugation_symmetry_random(self, lorentzian, perfect, temp):
        rng = np.random.default_rng(31)
        for model in (lorentzian, perfect):
            for w in rng.uniform(0.05, 5.0, 4):
                plus = chi_total(model, float(w), temp)
                minus = chi_total(model, -float(w), temp)
                combined = plus.error_estimate + minus.error_estimate + 1e-13
                assert abs(minus.chi_total - plus.chi_total.conjugate()) <= combined

    def test_thermal_part_fades_at_low_temperature(self, lorentzian):
        value = chi_total(lorentzian, 1.0, 1e-3)
        assert abs(value.chi_thermal) < 1e-4 * abs(value.chi_vacuum)

    @pytest.mark.parametrize("omega,temp", [(0.3, 1.0), (1.0, 0.5), (-0.7, 2.0)])
    def test_matches_raw_smoothed_sign_form(self, lorentzian, omega, temp):
        # the vacuum + thermal split must reproduce the un-split full-line
        # integral with the coth weight (independent midpoint-rule oracle)
        raw = oracles.trapezoid_chi_raw_smoothed_sign(omega, temp)
        split = chi_total(lorentzian, omega, temp).chi_total
        assert split == pytest.approx(raw, rel=1e-9)


class TestDissipativePart:
    def test_odd_and_zero_at_origin(self, lorentzian):
        assert chi_total(lorentzian, 0.0, 1.0).chi_total.imag == pytest.approx(
            0.0, abs=1e-14)
        for w in (0.4, 2.0):
            assert chi_total(lorentzian, -w, 1.0).chi_total.imag == pytest.approx(
                -chi_total(lorentzian, w, 1.0).chi_total.imag, rel=1e-11)

    def test_perfect_vacuum_value(self, perfect):
        assert chi_total(perfect, 1.0, 0.0).chi_total.imag == pytest.approx(
            1.0 / (6.0 * math.pi), rel=1e-12)

    def test_low_frequency_slope_is_viscosity(self, perfect):
        slope = chi_total(perfect, 1e-3, 1.0).chi_total.imag / 1e-3
        assert slope == pytest.approx(2.0 * math.pi / 3.0, rel=1e-4)


class TestCorrelationSpectrum:
    def test_fluctuation_dissipation_identity(self, lorentzian):
        # C / (2 xi) * (1 - e^{-omega/T}) = 1 by construction, and xi
        # recovered from C reproduces the dissipative part
        for omega, temp in ((0.3, 1.0), (2.0, 0.5), (-1.0, 2.0)):
            value = correlation_spectrum(lorentzian, omega, temp)
            assert value.c_spectrum * -math.expm1(-omega / temp) / (
                2.0 * value.xi) == pytest.approx(1.0, rel=1e-14)
            assert value.xi == pytest.approx(
                chi_total(lorentzian, omega, temp).chi_total.imag, rel=1e-12)

    def test_quantum_limit_prefactor(self, lorentzian):
        value = correlation_spectrum(lorentzian, 5.0, 0.01)
        assert value.c_spectrum == pytest.approx(2.0 * value.xi, rel=1e-12)

    def test_classical_limit_prefactor(self, lorentzian):
        omega, temp = 0.001, 10.0
        value = correlation_spectrum(lorentzian, omega, temp)
        assert value.c_spectrum == pytest.approx(2.0 * temp / omega * value.xi,
                                                 rel=1e-4)

    def test_positive_spectrum(self, lorentzian):
        for omega in (-3.0, -0.5, 0.5, 3.0):
            assert correlation_spectrum(lorentzian, omega, 1.0).c_spectrum > 0.0

    def test_deep_negative_frequencies_vanish(self, lorentzian):
        # absorption side dies out as e^{omega/T}; must not overflow
        value = correlation_spectrum(lorentzian, -800.0, 1.0)
        assert value.c_spectrum == pytest.approx(0.0, abs=1e-300)
        assert value.c_spectrum >= 0.0

    def test_perfect_low_frequency_value(self, perfect):
        # C -> 2 T lambda = 4 pi/3 at T = 1, within 1% at omega = 0.01
        value = correlation_spectrum(perfect, 0.01, 1.0)
        assert value.c_spectrum == pytest.approx(4.0 * math.pi / 3.0, rel=0.01)

    def test_zero_frequency_rejected(self, lorentzian):
        with pytest.raises(ValueError):
            correlation_spectrum(lorentzian, 0.0, 1.0)


class TestCorrelationZeroFrequency:
    def test_perfect_einstein_value(self, perfect):
        assert correlation_zero_frequency(perfect, 1.0) == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-6)

    def test_lorentzian_matches_viscosity_route(self, lorentzian):
        value = correlation_zero_frequency(lorentzian, 1.0)
        assert value == pytest.approx(2.0 * lambda_spectral(lorentzian, 1.0),
                                      rel=1e-4)

    def test_cold_limit_quadratic_scaling(self, lorentzian):
        # C_0/(2T) ~ lambda ~ T^2 over a decade
        low = correlation_zero_frequency(lorentzian, 1e-3) / 2e-3
        high = correlation_zero_frequency(lorentzian, 1e-2) / 2e-2
        assert high / low == pytest.approx(100.0, rel=0.01)


class TestVacuumCubicCoefficient:
    def test_perfect(self, perfect):
        assert vacuum_cubic_coefficient(perfect) == pytest.approx(
            1.0 / (6.0 * math.pi), rel=1e-6)

    def test_lorentzian_family_approaches_perfect(self):
        # R0 = 1 pins the cubic response to the perfect-mirror value;
        # shrinking tau0 only tightens the finite-window corrections
        for tau0 in (1.0, 0.1):
            assert vacuum_cubic_coefficient(LorentzianMirror(tau0)) == (
                pytest.approx(1.0 / (6.0 * math.pi), rel=1e-6))

    def test_transparent_model_is_zero(self, transparent_model):
        assert vacuum_cubic_coefficient(transparent_model) == pytest.approx(
            0.0, abs=1e-12)


class TestKramersKronig:
    def test_zero_susceptibility_model(self, transparent_model):
        grid = np.linspace(-10.0, 10.0, 128)
        assert kramers_kronig_check(transparent_model, 0.0, grid) == 0.0

    def test_symmetry_precheck(self, lorentzian):
        # sampled xi odd and Re chi even, each to 1e-8
        grid = np.linspace(-5.0, 5.0, 65)
        chi = np.array([chi_total(lorentzian, float(w), 1.0).chi_total
                        for w in grid])
        assert np.max(np.abs(chi.imag + chi.imag[::-1])) < 1e-8
        assert np.max(np.abs(chi.real - chi.real[::-1])) < 1e-8

    def test_truncation_warning_attached(self, lorentzian):
        grid = np.linspace(-20.0, 20.0, 128)
        with pytest.warns(WindowTruncationWarning):
            kramers_kronig_check(lorentzian, 1.0, grid)

    def test_discrepancy_shrinks_with_window(self, lorentzian):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WindowTruncationWarning)
            base = kramers_kronig_check(
                lorentzian, 1.0, np.linspace(-20.0, 20.0, 256))
            doubled = kramers_kronig_check(
                lorentzian, 1.0, np.linspace(-40.0, 40.0, 512))
        assert doubled < base

    def test_grid_requirements(self, lorentzian):
        with pytest.raises(GridTooCoarse):
            kramers_kronig_check(lorentzian, 1.0, np.linspace(-5, 5, 32))
        with pytest.raises(ValueError):
            kramers_kronig_check(lorentzian, 1.0, np.geomspace(1, 10, 100))


class TestErrorHandling:
    @pytest.mark.parametrize("name", ["perfect", "lorentzian"])
    def test_negative_temperature_rejected(self, name, request):
        # the perfect mirror's closed-form thermal branch must not square T = -1
        with pytest.raises(ValueError):
            chi_total(request.getfixturevalue(name), 0.5, -1.0)

    def test_tight_config_converges(self, lorentzian):
        cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=400)
        value = chi_total(lorentzian, 0.5, 1.0, cfg)
        loose = chi_total(lorentzian, 0.5, 1.0)
        assert value.chi_total == pytest.approx(loose.chi_total, rel=1e-9)
