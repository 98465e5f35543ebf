import math

import numpy as np
import pytest

import oracles
from thermaldrag import (DivergentBandwidth, GridTooCoarse, LorentzianMirror,
                         RegimeViolation, asymptotics, compute_coefficients,
                         einstein_check, lambda_from_chi_slope,
                         lambda_spectral, mass_bound_check,
                         mu_from_chi_curvature, mu_spectral, quasistatic_force)
from thermaldrag import coefficients
from thermaldrag.coefficients import ROUTE_TOLERANCE
from thermaldrag.models import MirrorModel


class TestEnergyFlux:
    def test_perfect_mirror_bose_moment(self, perfect):
        # R = 1 reduces A to the first Bose moment over pi
        assert compute_coefficients(perfect, 1.0).A == pytest.approx(
            math.pi / 6.0, rel=1e-10)

    def test_low_temperature_law(self, lorentzian):
        temp = 0.01
        assert compute_coefficients(lorentzian, temp).A == pytest.approx(
            math.pi * temp**2 / 6.0, rel=0.01)

    def test_high_temperature_law(self, lorentzian):
        temp = 100.0
        assert compute_coefficients(lorentzian, temp).A == pytest.approx(
            2.0 * temp * 0.25, rel=0.02)

    def test_increasing_in_temperature(self, lorentzian):
        values = [compute_coefficients(lorentzian, t).A
                  for t in np.geomspace(0.1, 10, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestViscosity:
    def test_perfect_mirror_closed_form(self, perfect):
        for temp in (0.1, 1.0, 10.0):
            law = 2.0 * math.pi * temp**2 / 3.0
            assert lambda_spectral(perfect, temp) == pytest.approx(law, rel=1e-8)
            assert compute_coefficients(perfect, temp).lambda_entropic == pytest.approx(
                law, rel=1e-8)

    def test_low_temperature_law(self, lorentzian):
        temp = 1e-4
        assert lambda_spectral(lorentzian, temp) == pytest.approx(
            2.0 * math.pi * temp**2 / 3.0, rel=0.01)

    def test_high_temperature_law(self, lorentzian):
        assert lambda_spectral(lorentzian, 100.0) == pytest.approx(100.0, rel=0.02)

    def test_routes_agree(self, lorentzian):
        for temp in (0.05, 1.0, 20.0):
            spectral = lambda_spectral(lorentzian, temp)
            entropic = compute_coefficients(lorentzian, temp).lambda_entropic
            assert abs(spectral - entropic) / spectral < 1e-6

    def test_against_trapezoid_oracle(self, lorentzian):
        lam, _, flux, _ = oracles.trapezoid_coefficients(1.0)
        assert lambda_spectral(lorentzian, 1.0) == pytest.approx(lam, rel=1e-7)
        assert compute_coefficients(lorentzian, 1.0).A == pytest.approx(
            flux, rel=1e-7)

    def test_positive_for_reflecting_models(self, lorentzian, weak, perfect):
        for model in (lorentzian, weak, perfect):
            for temp in (0.1, 1.0, 10.0):
                assert lambda_spectral(model, temp) > 0.0

    def test_quadratic_scaling_cold(self, lorentzian):
        # lambda / T^2 constant to 1% between T = 1e-3 and 5e-4
        a = lambda_spectral(lorentzian, 1e-3) / 1e-6
        b = lambda_spectral(lorentzian, 5e-4) / 25e-8
        assert a / b == pytest.approx(1.0, abs=0.01)

    def test_entropic_matches_finite_difference_in_temperature(self, lorentzian):
        # the production route differentiates under the integral; a crude
        # finite-difference dA/dT is kept here as the independent oracle
        temp, h = 1.0, 1e-5
        fd = (compute_coefficients(lorentzian, temp + h).A
              - compute_coefficients(lorentzian, temp - h).A) / (2.0 * h)
        assert compute_coefficients(lorentzian, temp).lambda_entropic == pytest.approx(
            2.0 * temp * fd, rel=1e-8)


class TestMassCorrection:
    def test_perfect_mirror_vanishes(self, perfect):
        for temp in (0.1, 1.0, 10.0):
            assert mu_spectral(perfect, temp) == 0.0
            assert compute_coefficients(perfect, temp).mu_entropic == 0.0

    def test_low_temperature_law(self, lorentzian):
        temp = 0.01
        assert mu_spectral(lorentzian, temp) == pytest.approx(
            -math.pi * temp**2 / 3.0, rel=0.02)

    def test_negative_at_low_temperature_for_full_reflection(self, lorentzian):
        assert mu_spectral(lorentzian, 0.01) < 0.0

    def test_high_temperature_stays_bounded(self, lorentzian):
        temp = 100.0
        assert abs(mu_spectral(lorentzian, temp)) < 0.01 * temp

    def test_routes_agree(self, lorentzian):
        for temp in (0.05, 1.0, 20.0):
            spectral = mu_spectral(lorentzian, temp)
            entropic = compute_coefficients(lorentzian, temp).mu_entropic
            assert abs(spectral - entropic) / abs(spectral) < 1e-6

    def test_against_trapezoid_oracle(self, lorentzian):
        _, mu, _, stocked = oracles.trapezoid_coefficients(1.0)
        assert mu_spectral(lorentzian, 1.0) == pytest.approx(mu, rel=1e-7)
        assert compute_coefficients(lorentzian, 1.0).B == pytest.approx(
            stocked, rel=1e-7)

    def test_low_temperature_scaling_with_delay(self):
        # mu ~ -pi tau0 T^2/3; halving T quarters mu
        model = LorentzianMirror(2.0)
        temp = 0.005
        assert mu_spectral(model, temp) == pytest.approx(
            -2.0 * math.pi * temp**2 / 3.0, rel=0.02)
        ratio = mu_spectral(model, temp) / mu_spectral(model, temp / 2.0)
        assert ratio == pytest.approx(4.0, rel=0.01)


class TestStockedQuantity:
    def test_perfect_mirror_zero(self, perfect):
        for temp in (0.3, 3.0):
            assert compute_coefficients(perfect, temp).B == 0.0

    def test_high_temperature_vanishes(self, lorentzian):
        temp = 100.0
        assert abs(compute_coefficients(lorentzian, temp).B) < 0.02 * temp

    def test_low_temperature_law(self, lorentzian):
        temp = 0.01
        assert compute_coefficients(lorentzian, temp).B == pytest.approx(
            -math.pi * temp**2 / 6.0, rel=0.02)


class TestCoefficientReport:
    def test_dual_route_discrepancies(self, lorentzian):
        for temp in (0.01, 0.1, 1.0, 10.0, 100.0):
            report = compute_coefficients(lorentzian, temp)
            assert report.route_discrepancy_lambda < ROUTE_TOLERANCE
            assert report.route_discrepancy_mu < ROUTE_TOLERANCE

    def test_error_estimates_cover_oracle_gap(self, lorentzian):
        report = compute_coefficients(lorentzian, 1.0)
        lam, mu, flux, stocked = oracles.trapezoid_coefficients(1.0)
        # trapezoid oracle itself is good to ~1e-9 relative
        assert abs(report.lambda_spectral - lam) < 1e-8 * lam
        assert abs(report.A - flux) < 1e-8 * flux
        assert set(report.error_estimates) == {
            "lambda_spectral", "lambda_entropic", "mu_spectral",
            "mu_entropic", "A", "B"}

    def test_rejects_zero_temperature(self, lorentzian):
        with pytest.raises(ValueError):
            compute_coefficients(lorentzian, 0.0)

    @pytest.mark.parametrize("name", ["perfect", "lorentzian", "weak"])
    @pytest.mark.parametrize("temp", [0.01, 1.0, 100.0])
    def test_spectral_functions_equal_report_fields(self, name, temp, request):
        model = request.getfixturevalue(name)
        report = compute_coefficients(model, temp)
        assert lambda_spectral(model, temp) == report.lambda_spectral
        assert mu_spectral(model, temp) == report.mu_spectral

    def test_six_thermal_integrals_per_report(self, lorentzian, monkeypatch):
        calls = []
        original = coefficients.integrate_thermal

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(coefficients, "integrate_thermal", counting)
        compute_coefficients(lorentzian, 1.0)
        assert calls == [1.0] * 6

    def test_one_model_call_per_node_array(self, lorentzian):
        # R, tau and their slopes at a node come from one call per amplitude order
        class Recording(MirrorModel):
            low_frequency_reflection = lorentzian.low_frequency_reflection
            low_frequency_delay = lorentzian.low_frequency_delay
            cutoff_frequency = lorentzian.cutoff_frequency
            received = {"amplitudes": [], "amplitude_derivatives": [],
                        "amplitude_second_derivatives": []}

            def _call(self, name, omega):
                self.received[name].append(omega)  # kept alive: ids stay unique
                return getattr(lorentzian, name)(omega)

            def amplitudes(self, omega):
                return self._call("amplitudes", omega)

            def amplitude_derivatives(self, omega):
                return self._call("amplitude_derivatives", omega)

            def amplitude_second_derivatives(self, omega):
                return self._call("amplitude_second_derivatives", omega)

        model = Recording()
        compute_coefficients(model, 1.0)
        asymptotics(model)
        for name, nodes in model.received.items():
            assert nodes, name
            assert len({id(w) for w in nodes}) == len(nodes), name


class TestAsymptotics:
    def test_lorentzian_bandwidth(self, lorentzian):
        report = asymptotics(lorentzian)
        assert report.omega_C_effective == pytest.approx(0.25, rel=1e-10)
        assert report.delta_S == pytest.approx(0.0, abs=1e-12)

    def test_scaling_with_tau0(self):
        report = asymptotics(LorentzianMirror(4.0))
        assert report.omega_C_effective == pytest.approx(1.0 / 16.0, rel=1e-10)

    def test_perfect_mirror_markers(self, perfect):
        report = asymptotics(perfect)
        assert math.isinf(report.omega_C_effective)
        assert report.delta_S == 0.0

    def test_nontransparent_rejected(self, transparent_model):
        class NoCutoff(type(transparent_model)):
            pass

        model = NoCutoff(r_num=[0.0], r_den=[1.0], s_num=[1.0], s_den=[1.0])
        with pytest.raises(DivergentBandwidth):
            asymptotics(model)

    def test_weak_mirror_stocked_energy_reading(self, weak):
        # R << 1 everywhere: Delta_S is close to the plain delay integral
        from thermaldrag.models import scattering_delay
        report = asymptotics(weak)
        x = np.linspace(0.0, 400.0, 400001)
        tau = scattering_delay(weak, x)
        plain = np.trapezoid(2.0 * tau, x) / (2.0 * math.pi)
        assert report.delta_S == pytest.approx(plain, rel=0.05)

    def test_limit_laws_evaluate(self, lorentzian):
        report = asymptotics(lorentzian)
        assert report.lambda_high_temperature(100.0) == pytest.approx(100.0)
        assert report.lambda_low_temperature(0.001) == pytest.approx(
            2.0 * math.pi * 1e-6 / 3.0)
        assert report.mu_low_temperature(0.001) == pytest.approx(
            -math.pi * 1e-6 / 3.0)
        assert report.mu_high_temperature(50.0) == pytest.approx(0.0, abs=1e-9)


class TestEinsteinRelation:
    def test_perfect(self, perfect):
        assert einstein_check(perfect, 1.0) < 1e-4

    @pytest.mark.parametrize("temp", [0.1, 1.0, 10.0])
    def test_lorentzian(self, lorentzian, temp):
        assert einstein_check(lorentzian, temp) < 1e-3

    def test_detects_injected_inconsistency(self, lorentzian):
        # halving lambda by hand must produce a discrepancy near 1
        from thermaldrag.susceptibility import correlation_zero_frequency
        temp = 1.0
        half_c0 = 0.5 * correlation_zero_frequency(lorentzian, temp)
        lam = 0.5 * lambda_spectral(lorentzian, temp)
        residual = abs(half_c0 - temp * lam) / (temp * lam)
        assert residual == pytest.approx(1.0, abs=0.01)


class TestMassBound:
    def test_safe_regime(self, lorentzian):
        report = mass_bound_check(lorentzian, 0.01, mirror_mass=1000.0)
        assert report.cutoff_condition_holds is True
        assert report.mass_condition_holds is True
        assert report.mass_ratio == pytest.approx(math.pi * 1e-4 / 3.0 / 1000.0,
                                                  rel=0.05)

    def test_light_mirror_flagged(self, lorentzian):
        report = mass_bound_check(lorentzian, 0.01, mirror_mass=1e-6)
        assert report.cutoff_condition_holds is False

    def test_perfect_mirror(self, perfect):
        report = mass_bound_check(perfect, 0.1, mirror_mass=1.0)
        assert report.cutoff_condition_holds is None
        assert report.mass_condition_holds is True
        assert report.mu == 0.0

    def test_hot_run_warns(self, lorentzian):
        with pytest.warns(RegimeViolation):
            mass_bound_check(lorentzian, 10.0, mirror_mass=1000.0)


class TestQuasistaticForce:
    def test_uniform_velocity(self, lorentzian):
        report = compute_coefficients(lorentzian, 1.0)
        t = np.linspace(0.0, 1000.0, 11)
        v = 1e-4
        times, force = quasistatic_force(report, t, v * t)
        assert times.shape == (9,)
        assert np.allclose(force, -report.lambda_spectral * v, rtol=1e-12)

    def test_uniform_acceleration(self, lorentzian):
        # central differences are exact on a quadratic
        report = compute_coefficients(lorentzian, 1.0)
        g = 1e-6
        t = np.linspace(0.0, 2000.0, 21)
        times, force = quasistatic_force(report, t, 0.5 * g * t**2)
        expected = -(report.lambda_spectral * g * times + report.mu_spectral * g)
        assert np.allclose(force, expected, rtol=1e-10)

    def test_zero_trajectory(self, lorentzian):
        report = compute_coefficients(lorentzian, 1.0)
        t = np.linspace(0.0, 10.0, 5)
        _, force = quasistatic_force(report, t, np.zeros_like(t))
        assert np.all(force == 0.0)

    def test_too_short_series(self, lorentzian):
        report = compute_coefficients(lorentzian, 1.0)
        with pytest.raises(GridTooCoarse):
            quasistatic_force(report, [0.0, 1.0], [0.0, 0.0])

    def test_nonuniform_grid_rejected(self, lorentzian):
        report = compute_coefficients(lorentzian, 1.0)
        with pytest.raises(ValueError):
            quasistatic_force(report, [0.0, 1.0, 2.5], [0.0, 0.0, 0.0])

    def test_fast_trajectory_warns(self, lorentzian):
        report = compute_coefficients(lorentzian, 1.0)
        t = np.linspace(0.0, 1.0, 101)
        with pytest.warns(RegimeViolation):
            quasistatic_force(report, t, np.sin(50.0 * t))


class TestSusceptibilityConsistency:
    def test_lambda_from_slope(self, lorentzian):
        assert lambda_from_chi_slope(lorentzian, 1.0) == pytest.approx(
            lambda_spectral(lorentzian, 1.0), rel=1e-3)

    def test_mu_from_curvature(self, lorentzian):
        assert mu_from_chi_curvature(lorentzian, 1.0) == pytest.approx(
            mu_spectral(lorentzian, 1.0), rel=1e-2)

    def test_perfect_mirror_curvature_is_zero(self, perfect):
        assert mu_from_chi_curvature(perfect, 1.0) == 0.0


class TestDopplerCrossover:
    def test_low_temperature_factor_four(self, lorentzian):
        temp = 1e-3
        ratio = (lambda_spectral(lorentzian, temp)
                 / compute_coefficients(lorentzian, temp).A)
        assert 3.96 <= ratio <= 4.04

    def test_high_temperature_factor_two(self, lorentzian):
        temp = 100.0
        ratio = (lambda_spectral(lorentzian, temp)
                 / compute_coefficients(lorentzian, temp).A)
        assert 1.96 <= ratio <= 2.04
