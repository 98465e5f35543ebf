import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
from test_cli import quartic_rational_config
from thermaldrag import (GridTooCoarse, LorentzianMirror, MirrorModel,
                         QuadratureConfig, RationalMirror, chi_total, cli,
                         compute_coefficients, correlation_spectrum,
                         correlation_zero_frequency, integrate_finite,
                         susceptibility, vacuum_cubic_coefficient)
from thermaldrag.config import parse_config


FOLD_MODELS = ["tau0=0.3", "tau0=1", "tau0=3", "weak", "perfect"]
# (tau0, omega tau0, T tau0) points of the chi-lorentzian benchmark box:
# tau0 in [10^-0.5, 10^0.5], |omega| up to 40 cutoffs, T in [0.1, 10] cutoffs
LORENTZIAN_BOX = list(itertools.product(
    (10**-0.5, 1.0, 10**0.5), (-40.0, -7.0, -2.0, -0.3, 0.3, 2.0, 7.0, 40.0),
    (0.1, 1.0, 10.0)))


def fold_model(request, name):
    if name.startswith("tau0="):
        return LorentzianMirror(float(name[len("tau0="):]))
    return request.getfixturevalue(name)


def record_runs(monkeypatch, name="integrate_finite"):
    """Patch chi_total's quadrature ``name``; return the list of (integrand calls, result)."""
    runs = []
    integrate = getattr(susceptibility, name)

    def recording(f, *args):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)

        result = integrate(counted, *args)
        runs.append((calls[0], result))
        return result

    monkeypatch.setattr(susceptibility, name, recording)
    return runs


class TestChiVacuum:
    def test_perfect_mirror_cubic_law(self, perfect):
        # chi_0 = i omega^3 / 6 pi
        value = chi_total(perfect, 1.0, 0.0).chi_vacuum
        assert value.real == pytest.approx(0.0, abs=1e-15)
        assert value.imag == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-12)

    def test_zero_frequency(self, monkeypatch, lorentzian, weak, perfect):
        # an empty range: 0 with no evaluation, also without a cutoff
        runs = record_runs(monkeypatch)
        for model in (lorentzian, weak, perfect):
            assert chi_total(model, 0.0, 0.0).chi_vacuum == 0.0
        assert [(calls, result.evaluations) for calls, result in runs] == [(0, 0)] * 3

    def test_against_trapezoid_oracle(self, lorentzian):
        oracle = oracles.trapezoid_chi_vacuum(0.1)
        assert chi_total(lorentzian, 0.1, 0.0).chi_vacuum == pytest.approx(
            oracle, rel=1e-8)

    def test_conjugation_symmetry(self, lorentzian, weak, perfect):
        # chi_0 is computed at |omega| and conjugated: exact, at every T
        for model in (lorentzian, LorentzianMirror(0.3), weak, perfect):
            for w in (1e-3, 0.3, 1.0, 8.0, 45.0):
                for temp in (0.0, 0.7):
                    assert chi_total(model, -w, temp).chi_vacuum == (
                        chi_total(model, w, temp).chi_vacuum.conjugate())

    def test_low_frequency_cubic_scaling(self, lorentzian):
        # |chi_0| / omega^3 constant to 1% over [1e-3, 1e-2]
        ratios = [abs(chi_total(lorentzian, w, 0.0).chi_vacuum) / w**3
                  for w in np.geomspace(1e-3, 1e-2, 7)]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=0.01)


class TestChiVacuumFold:
    # chi_0 is twice the integral over [0, |omega|/2], mapped by w' = g (e^u - 1)
    @pytest.mark.parametrize("name", FOLD_MODELS)
    def test_matches_unfolded_integral(self, request, name):
        model = fold_model(request, name)
        tight = QuadratureConfig(rel_tol=1e-13, max_subdivisions=2000)
        for omega in np.geomspace(1e-3, 80.0, 12) * (model.cutoff_frequency or 1.0):
            def unfolded(wp):
                return wp * (omega - wp) * model.alpha(np.array((wp, omega - wp)))

            reference = integrate_finite(unfolded, 0.0, omega, tight)
            assert reference.converged
            value = chi_total(model, omega, 0.0)
            # alpha = 1 + r r - s s carries a few eps of absolute rounding
            # (|r|, |s| <= 1) that no claimed error covers where alpha is
            # small, as for the weak mirror at small omega: 3 eps omega^3 /
            # 12 pi in chi_0 for each of the two routes
            kernel_rounding = 2.0 * 3.0 * np.finfo(float).eps * omega**3 / (12.0 * math.pi)
            allowed = (value.error_estimate + reference.error_estimate / (2.0 * math.pi)
                       + kernel_rounding)
            assert abs(value.chi_vacuum - 1j / (2.0 * math.pi) * reference.value) <= allowed

    @pytest.mark.parametrize("name", FOLD_MODELS)
    def test_zero_frequency_is_exactly_zero(self, request, monkeypatch, name):
        # both integrands vanish at omega = 0, the thermal one by the symmetry
        # of alpha; the weak mirror's rounding residue there once spent the
        # whole thermal budget and came out unconverged
        thermal = record_runs(monkeypatch, "integrate_thermal")
        for temp in (0.1, 1.0, 10.0):
            value = chi_total(fold_model(request, name), 0.0, temp)
            assert (value.chi_total, value.error_estimate) == (0.0, 0.0)
            assert all(value.converged.values())
        assert thermal == []

    @pytest.mark.parametrize("tau0", [0.3, 1.0, 3.0])
    def test_few_integrand_calls_far_above_the_cutoff(self, monkeypatch, tau0):
        runs = record_runs(monkeypatch)
        for omega in (32.0 / tau0, -32.0 / tau0):
            chi_total(LorentzianMirror(tau0), omega, 0.0)
        assert [calls for calls, _ in runs] and all(calls <= 3 for calls, _ in runs)

    def test_extreme_frequencies_give_values(self):
        # |omega| far above the cutoff: chi_0 -> -omega^2 / (2 pi tau0)
        for omega in (1e150, -1e150):
            value = chi_total(LorentzianMirror(1.0), omega, 0.0).chi_vacuum
            assert value.real == pytest.approx(-omega**2 / (2.0 * math.pi), rel=1e-10)
        huge = LorentzianMirror(1e-300)  # cutoff 1e300: a perfect mirror below it
        for omega in (1e-100, 1e20, 1e100):
            assert chi_total(huge, omega, 0.0).chi_vacuum.imag == pytest.approx(
                omega**3 / (6.0 * math.pi), rel=1e-12)
        # cutoff 1e-300: finite, though above |omega| ~ 1e8 the model's g / omega
        # underflows and alpha rounds to 0, so the value is not accurate there
        tiny = LorentzianMirror(1e300)
        for omega in (1e-300, 1.0, 1e150, -1e150):
            value = chi_total(tiny, omega, 0.0)
            assert np.isfinite(value.chi_vacuum) and np.isfinite(value.error_estimate)

    def test_one_integrand_call_in_the_benchmark_box(self, monkeypatch):
        # chi_0's four initial panels converge on the first call, and so do
        # the thermal integrals, whose panels break at the mirror's pole
        # near x = |omega|/T (138 calls in all when bisection found it)
        vacuum = record_runs(monkeypatch)
        thermal = record_runs(monkeypatch, "integrate_thermal")
        for tau0, omega_tau0, temp_tau0 in LORENTZIAN_BOX:
            chi_total(LorentzianMirror(tau0), omega_tau0 / tau0, temp_tau0 / tau0)
        assert [calls for calls, _ in vacuum] == [1] * len(LORENTZIAN_BOX)
        assert [calls for calls, _ in thermal] == [1] * len(LORENTZIAN_BOX)

    def test_one_thermal_call_across_the_benchmark_box(self):
        # drawn from the whole box, not only its grid, with |omega| from 1e-4
        # cutoffs up and omega = 0: below about 1e-5 cutoffs, at T near 10
        # cutoffs, the thermal integral is limited by its own rounding and
        # bisects with or without the breaks at the peak
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.floats(-0.5, 0.5),
                          st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-4.0, math.log10(40.0)),
                          st.floats(-1.0, 1.0))
        def check(log_tau0, sign, log_omega_tau0, log_temp_tau0):
            tau0 = 10.0**log_tau0
            with pytest.MonkeyPatch.context() as patch:
                thermal = record_runs(patch, "integrate_thermal")
                chi_total(LorentzianMirror(tau0), sign * 10.0**log_omega_tau0 / tau0,
                          10.0**log_temp_tau0 / tau0)
            # omega = 0 takes no thermal integral: its integrand vanishes
            assert [calls for calls, _ in thermal] == ([1] if sign else [])

        check()

    @pytest.mark.parametrize("model, code", [
        ("kind = lorentzian\ntau0 = 1.0", 0),
        # alpha rounds to 0 at |omega| = 1e150, and chi_0 misses its tolerance:
        # -1.6e-127 where the limit -omega^2/(2 pi tau0) is -0.159
        ("kind = lorentzian\ntau0 = 1e300", 3),
        ("kind = perfect", 3),  # chi_0 = i omega^3 / 6 pi overflows
    ])
    def test_extreme_frequencies_on_the_cli(self, tmp_path, capsys, model, code):
        path = tmp_path / "chi.cfg"
        path.write_text("temperature = 0\nomega_min = -1e150\nomega_max = 1e150\n"
                        f"omega_count = 3\n[model]\n{model}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["chi", "--config", str(path)]) == code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        if code == 0:
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


class TestChiVacuumLorentzianClosedForm:
    # the actual error of chi_0 against the Lorentzian's closed form must lie
    # within the claimed one.  The Lorentzian's alpha is the pole form -g
    # (I(w1) + I(w2)), free of the cancellation in 1 + r r - s s, whose
    # rounding put the error at 8-12 times the claim from omega tau0 ~ 1e8
    # to 1e12
    @pytest.mark.parametrize("omega_tau0", [
        1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14, 1e16,
    ])
    def test_within_claimed_error(self, lorentzian, omega_tau0):
        exact = oracles.lorentzian_chi_vacuum(omega_tau0)
        value = chi_total(lorentzian, omega_tau0, 0.0)
        # the closed form's own rounding: a few eps of its magnitude
        rounding = 4.0 * np.finfo(float).eps * abs(exact)
        assert abs(value.chi_vacuum - exact) <= value.error_estimate + rounding

    @pytest.mark.parametrize("tau0", [0.32, 1.0, 3.2])
    def test_within_claimed_error_in_the_band(self, tau0):
        # omega tau0 in [1, 40], both signs, where chi_0 converges on its
        # first call; below omega tau0 ~ 1 the closed form itself cancels
        model = LorentzianMirror(tau0)
        for omega_tau0 in np.geomspace(1.0, 40.0, 13):
            for omega in (omega_tau0 / tau0, -omega_tau0 / tau0):
                exact = oracles.lorentzian_chi_vacuum(omega, tau0)
                value = chi_total(model, omega, 0.0)
                assert abs(value.chi_vacuum - exact) <= value.error_estimate


class TestChiThermal:
    def test_zero_frequency_cancels(self, lorentzian):
        value = chi_total(lorentzian, 0.0, 1.0).chi_thermal
        assert abs(value) < 1e-14

    def test_perfect_mirror_linear_in_omega(self, perfect):
        # exact closed form i (2 pi/3) T^2 omega, also at large T / omega
        # where the w' terms of the kernel must cancel exactly
        for temp, omega in ((1.0, 0.01), (2.5, 0.3), (1e-3, 1.0), (1e3, 2.0),
                            (1.0, -0.7), (1e3, 1e-6), (1e4, 1e-3)):
            result = chi_total(perfect, omega, temp)
            exact = 1j * 2.0 * math.pi / 3.0 * temp**2 * omega
            assert result.chi_thermal == pytest.approx(exact, rel=1e-14)
            assert abs(result.chi_thermal - exact) <= result.error_estimate

    def test_against_trapezoid_oracle(self, lorentzian):
        for temp in (0.5, 1.0):
            oracle = oracles.trapezoid_chi_thermal(0.05, temp)
            assert chi_total(lorentzian, 0.05, temp).chi_thermal == pytest.approx(
                oracle, rel=1e-7)

    def test_conjugation_symmetry(self, lorentzian):
        for w in (0.2, 1.5):
            assert chi_total(lorentzian, -w, 0.7).chi_thermal == pytest.approx(
                chi_total(lorentzian, w, 0.7).chi_thermal.conjugate(), rel=1e-11)

    def test_model_without_cutoff(self, perfect):
        # n_T cuts the thermal integral off for every unitary mirror, so a
        # model without a reflection cutoff takes the same path
        transparent = RationalMirror(r_num=[0.0], r_den=[1.0],
                                     s_num=[1.0], s_den=[1.0])
        mirror = RationalMirror(r_num=[-1.0], r_den=[1.0],
                                s_num=[0.0], s_den=[1.0])
        assert transparent.cutoff_frequency is None
        assert mirror.cutoff_frequency is None
        assert chi_total(transparent, 1.0, 1.0).chi_thermal == 0.0
        for temp, omega in ((1.0, 0.01), (2.5, 0.3), (1.0, -0.7), (1e3, 1e-6)):
            assert chi_total(mirror, omega, temp).chi_thermal == pytest.approx(
                chi_total(perfect, omega, temp).chi_thermal, rel=1e-14)

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


class TestWithinClaimedError:
    # the default tolerance against a run at rel_tol 1e-13: the two differ
    # by no more than the default run's claimed error
    TIGHT = QuadratureConfig(rel_tol=1e-13)

    def check(self, model, omega, temp):
        value = chi_total(model, omega, temp)
        tight = chi_total(model, omega, temp, self.TIGHT)
        assert abs(value.chi_total - tight.chi_total) <= value.error_estimate

    @pytest.mark.parametrize("tau0, omega_tau0, temp_tau0", LORENTZIAN_BOX)
    def test_lorentzian_benchmark_box(self, tau0, omega_tau0, temp_tau0):
        self.check(LorentzianMirror(tau0), omega_tau0 / tau0, temp_tau0 / tau0)

    def test_quartic_rational_golden_grid(self, tmp_path):
        # the grid of test_cli's quartic chi golden, in natural units
        config = parse_config(quartic_rational_config(tmp_path))
        for omega in np.linspace(-2.0, 3.0, 6):
            self.check(config.model, config.units.frequency_to_natural(omega),
                       config.get_float("temperature"))


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

    def test_conjugation_exact_for_any_model(self, lorentzian):
        # amplitudes that are not exactly conjugate under omega -> -omega:
        # chi is evaluated at |omega| and conjugated once, so chi(-omega) ==
        # conj chi(omega) holds bit for bit all the same
        class Skewed(MirrorModel):
            def amplitudes(self, omega):
                r, s = lorentzian.amplitudes(omega)
                return r * (1 + 1e-9j), s * (1 + 1e-9j)

            @property
            def cutoff_frequency(self):
                return lorentzian.cutoff_frequency

        model = Skewed()
        for omega in (0.3, 1.7, 5.0):
            plus, minus = chi_total(model, omega, 1.0), chi_total(model, -omega, 1.0)
            assert minus.chi_vacuum == plus.chi_vacuum.conjugate()
            assert minus.chi_thermal == plus.chi_thermal.conjugate()
            assert minus.chi_total == plus.chi_total.conjugate()
            assert minus.error_estimate == plus.error_estimate

    @pytest.mark.parametrize("name", ["lorentzian", "weak"])
    def test_one_alpha_call_per_integrand_call(self, monkeypatch, request, name):
        model = request.getfixturevalue(name)
        model_calls, per_integrand_call = [], []

        class Recording(MirrorModel):
            def amplitudes(self, omega):
                model_calls.append("amplitudes")
                return model.amplitudes(omega)

            def alpha(self, pair):
                model_calls.append("alpha")
                return model.alpha(pair)

            @property
            def cutoff_frequency(self):
                return model.cutoff_frequency

        def counted(integrate):
            def run(f, *args):
                def g(x):
                    before = len(model_calls)
                    y = f(x)
                    per_integrand_call.append(model_calls[before:])
                    return y
                return integrate(g, *args)
            return run

        for integrate in ("integrate_finite", "integrate_thermal"):
            monkeypatch.setattr(susceptibility, integrate,
                                counted(getattr(susceptibility, integrate)))
        value = chi_total(Recording(), 0.7, 1.0)
        # one call of chi_0's four panels, one of the 19 thermal panels
        assert len(per_integrand_call) == 2
        assert all(calls == ["alpha"] for calls in per_integrand_call)
        assert len(model_calls) == len(per_integrand_call)
        assert value == chi_total(model, 0.7, 1.0)

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


class TestHighTemperatureRange:
    # chi_T is computed up to 1e4 x cutoff; above it the thermal part and
    # the error estimate are NaN.  Without the limit the thermal integral
    # spends its budget from 1e7 x cutoff on, and its claimed error stops
    # covering the truth by 1e10 x cutoff
    @pytest.mark.parametrize("ratio", [1e5, 1e6])
    def test_nan_above_the_range(self, ratio):
        model = LorentzianMirror(0.5)
        value = chi_total(model, 1.0, ratio * model.cutoff_frequency)
        assert np.isnan(value.chi_thermal.real) and np.isnan(value.chi_thermal.imag)
        assert np.isnan(value.chi_total.imag) and np.isnan(value.error_estimate)
        assert value.chi_vacuum == chi_total(model, 1.0, 0.0).chi_vacuum
        assert value.converged == {"chi_vacuum": True, "chi_thermal": False}

    def test_inside_the_range_within_claimed_error(self):
        quad = pytest.importorskip("scipy.integrate").quad
        model = LorentzianMirror(0.5)
        temp = 1e3 * model.cutoff_frequency
        value = chi_total(model, 1.0, temp)

        def xi_integrand(wp):
            # Im delta chi_T = (1/pi) Re int dw' w' n_T (kernel) at omega = 1,
            # with the Lorentzian's alpha[w1, w2] = (2 - i tau0 (w1 + w2)) /
            # (1 - i tau0 (w1 + w2) - tau0^2 w1 w2), which does not cancel
            # at large w'
            d = 1.0 - 0.5j
            kernel = (2.0 - 0.5j) * ((1.0 - wp) / (d - 0.25 * wp * (1.0 - wp))
                                     + (1.0 + wp) / (d + 0.25 * wp * (1.0 + wp)))
            return (wp * kernel).real / math.expm1(wp / temp) / math.pi

        edges = [0.0, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 60.0 * temp]
        reference = sum(quad(xi_integrand, lo, hi, limit=200, epsabs=1e-12,
                             epsrel=1e-12)[0] for lo, hi in zip(edges, edges[1:]))
        assert np.isfinite(value.chi_thermal) and np.isfinite(value.error_estimate)
        assert abs(value.chi_thermal.imag - reference) <= value.error_estimate

    @pytest.mark.parametrize("temp", [1e6, 1e12, 1e100])
    def test_perfect_mirror_exact_at_every_temperature(self, perfect, temp):
        # no cutoff, so no upper end: chi_T = i (2 pi/3) T^2 omega
        value = chi_total(perfect, 0.5, temp)
        assert value.chi_thermal.imag == pytest.approx(
            math.pi / 3.0 * temp**2, rel=1e-12)


class TestConvergedFlags:
    def test_benchmark_box_converges(self):
        for tau0, omega_tau0, temp_tau0 in LORENTZIAN_BOX:
            value = chi_total(LorentzianMirror(tau0), omega_tau0 / tau0, temp_tau0 / tau0)
            assert value.converged == {"chi_vacuum": True, "chi_thermal": True}

    def test_vacuum_alone_converges(self, lorentzian):
        # at T = 0 the thermal part is exactly 0, without a quadrature
        assert chi_total(lorentzian, 0.7, 0.0).converged == {"chi_vacuum": True,
                                                             "chi_thermal": True}

    def test_near_zero_frequency_on_a_hot_mirror_reports_its_spent_budget(self, lorentzian):
        # the thermal integrand cancels as omega -> 0, so its rounding floor
        # stays above rel_tol |chi|: the budget runs out and the flag says so
        value = chi_total(lorentzian, 1e-7, 10.0)
        assert value.converged == {"chi_vacuum": True, "chi_thermal": False}


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

    @pytest.mark.parametrize("temp", [0.0, -1.0])
    def test_non_positive_temperature_rejected(self, lorentzian, temp):
        # chi_total accepts T = 0, but the spectrum's Bose prefactor needs T > 0
        with pytest.raises(ValueError, match="requires temp > 0"):
            correlation_spectrum(lorentzian, 0.5, temp)


class TestCorrelationZeroFrequency:
    def test_perfect_einstein_value(self, perfect):
        assert correlation_zero_frequency(perfect, 1.0) == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-6)

    def test_lorentzian_matches_viscosity_route(self, lorentzian):
        value = correlation_zero_frequency(lorentzian, 1.0)
        lam = compute_coefficients(lorentzian, 1.0).lambda_spectral
        assert value == pytest.approx(2.0 * lam, rel=1e-4)

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
        assert susceptibility.kramers_kronig_window_doubling(
            transparent_model, 0.0, 10.0, 128) == (0.0, 0.0)

    def test_symmetry_precheck(self, lorentzian):
        # sampled xi odd and Re chi even, each to 1e-8
        grid = np.linspace(-5.0, 5.0, 65)
        chi = np.array([chi_total(lorentzian, float(w), 1.0).chi_total
                        for w in grid])
        assert np.max(np.abs(chi.imag + chi.imag[::-1])) < 1e-8
        assert np.max(np.abs(chi.real - chi.real[::-1])) < 1e-8

    def test_discrepancy_shrinks_with_window(self, lorentzian):
        base, doubled = susceptibility.kramers_kronig_window_doubling(
            lorentzian, 1.0, 20.0, 256)
        assert doubled < base

    def test_window_doubling_base_is_the_check_on_the_middle_samples(
            self, lorentzian, monkeypatch):
        # one sweep of 2 x 256 samples at the base spacing 2 x 20/255, of
        # which chi is computed on the non-negative 256; the base gap is the
        # gap of chi recomputed at both signs on the middle 256, bit for bit
        omegas = []

        def recorded(model, omega, temp, cfg):
            omegas.append(omega)
            return chi_total(model, omega, temp, cfg)

        monkeypatch.setattr(susceptibility, "chi_total", recorded)
        base, _ = susceptibility.kramers_kronig_window_doubling(
            lorentzian, 1.0, 20.0, 256)
        monkeypatch.undo()
        upper = np.array(omegas)
        assert upper.size == 256 and upper[0] > 0.0
        grid = np.concatenate((-upper[::-1], upper))
        middle = grid[128:384]
        chi = np.array([chi_total(lorentzian, w, 1.0).chi_total for w in middle])
        assert base == susceptibility._dispersion_gap(chi)
        assert np.allclose(np.diff(grid), 40.0 / 255, rtol=1e-12, atol=0.0)
        assert middle[0] == pytest.approx(-20.0, rel=1e-14)
        assert middle[-1] == pytest.approx(20.0, rel=1e-14)

    @pytest.mark.parametrize("points", [64, 65])
    def test_half_sweep_gives_the_gaps_of_the_full_sweep(self, lorentzian, points):
        # the grid of an even and an odd point count (which holds omega = 0),
        # rebuilt and swept whole: both gaps agree bit for bit
        k, h = points // 2, 40.0 / (points - 1)
        grid = (np.arange(points + 2 * k) - k - 0.5 * (points - 1)) * h
        chi = np.array([chi_total(lorentzian, w, 1.0).chi_total for w in grid])
        full = (susceptibility._dispersion_gap(chi[k:k + points]),
                susceptibility._dispersion_gap(chi))
        assert susceptibility.kramers_kronig_window_doubling(
            lorentzian, 1.0, 20.0, points) == full

    def test_grid_requirements(self, lorentzian):
        with pytest.raises(GridTooCoarse):
            susceptibility.kramers_kronig_window_doubling(lorentzian, 1.0, 5.0, 32)
        # a window <= 0 would sample a constant or a decreasing grid
        for window in (0.0, -20.0, math.nan):
            with pytest.raises(ValueError, match="window must be > 0"):
                susceptibility.kramers_kronig_window_doubling(lorentzian, 1.0, window, 64)


class TestErrorHandling:
    @pytest.mark.parametrize("name", ["perfect", "lorentzian"])
    def test_negative_temperature_rejected(self, name, request):
        # a negative T is rejected before any quadrature, for every model
        with pytest.raises(ValueError):
            chi_total(request.getfixturevalue(name), 0.5, -1.0)

    def test_tight_config_converges(self, lorentzian):
        cfg = QuadratureConfig(rel_tol=1e-12, max_subdivisions=400)
        value = chi_total(lorentzian, 0.5, 1.0, cfg)
        loose = chi_total(lorentzian, 0.5, 1.0)
        assert value.chi_total == pytest.approx(loose.chi_total, rel=1e-9)
