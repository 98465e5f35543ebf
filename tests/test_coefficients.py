import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import weak_mirror
from thermaldrag import (DivergentBandwidth, GridTooCoarse, LorentzianMirror,
                         RegimeViolation, asymptotics, chi_total,
                         compute_coefficients, einstein_check,
                         integrate_thermal, quasistatic_force)
from thermaldrag import cli, coefficients, models, quadrature
from thermaldrag.coefficients import ROUTE_TOLERANCE
from thermaldrag.core import X_UNDERFLOW
from thermaldrag.models import MirrorModel, RationalMirror, _PoleMirror
from thermaldrag.susceptibility import _ladder_limit


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
            assert compute_coefficients(perfect, temp).lambda_spectral == pytest.approx(
                law, rel=1e-8)
            assert compute_coefficients(perfect, temp).lambda_entropic == pytest.approx(
                law, rel=1e-8)

    def test_low_temperature_law(self, lorentzian):
        temp = 1e-4
        assert compute_coefficients(lorentzian, temp).lambda_spectral == pytest.approx(
            2.0 * math.pi * temp**2 / 3.0, rel=0.01)

    def test_high_temperature_law(self, lorentzian):
        assert compute_coefficients(lorentzian, 100.0).lambda_spectral == pytest.approx(
            100.0, rel=0.02)

    def test_routes_agree(self, lorentzian):
        for temp in (0.05, 1.0, 20.0):
            spectral = compute_coefficients(lorentzian, temp).lambda_spectral
            entropic = compute_coefficients(lorentzian, temp).lambda_entropic
            assert abs(spectral - entropic) / spectral < 1e-6

    def test_against_trapezoid_oracle(self, lorentzian):
        lam, _, flux, _ = oracles.trapezoid_coefficients(1.0)
        assert compute_coefficients(lorentzian, 1.0).lambda_spectral == pytest.approx(
            lam, rel=1e-7)
        assert compute_coefficients(lorentzian, 1.0).A == pytest.approx(
            flux, rel=1e-7)

    def test_positive_for_reflecting_models(self, lorentzian, weak, perfect):
        for model in (lorentzian, weak, perfect):
            for temp in (0.1, 1.0, 10.0):
                assert compute_coefficients(model, temp).lambda_spectral > 0.0

    def test_quadratic_scaling_cold(self, lorentzian):
        # lambda / T^2 constant to 1% between T = 1e-3 and 5e-4
        a = compute_coefficients(lorentzian, 1e-3).lambda_spectral / 1e-6
        b = compute_coefficients(lorentzian, 5e-4).lambda_spectral / 25e-8
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
            assert compute_coefficients(perfect, temp).mu_spectral == 0.0
            assert compute_coefficients(perfect, temp).mu_entropic == 0.0

    def test_low_temperature_law(self, lorentzian):
        temp = 0.01
        assert compute_coefficients(lorentzian, temp).mu_spectral == pytest.approx(
            -math.pi * temp**2 / 3.0, rel=0.02)

    def test_negative_at_low_temperature_for_full_reflection(self, lorentzian):
        assert compute_coefficients(lorentzian, 0.01).mu_spectral < 0.0

    def test_high_temperature_stays_bounded(self, lorentzian):
        temp = 100.0
        assert abs(compute_coefficients(lorentzian, temp).mu_spectral) < 0.01 * temp

    def test_routes_agree(self, lorentzian):
        for temp in (0.05, 1.0, 20.0):
            spectral = compute_coefficients(lorentzian, temp).mu_spectral
            entropic = compute_coefficients(lorentzian, temp).mu_entropic
            assert abs(spectral - entropic) / abs(spectral) < 1e-6

    def test_against_trapezoid_oracle(self, lorentzian):
        _, mu, _, stocked = oracles.trapezoid_coefficients(1.0)
        assert compute_coefficients(lorentzian, 1.0).mu_spectral == pytest.approx(
            mu, rel=1e-7)
        assert compute_coefficients(lorentzian, 1.0).B == pytest.approx(
            stocked, rel=1e-7)

    def test_low_temperature_scaling_with_delay(self):
        # mu ~ -pi tau0 T^2/3; halving T quarters mu
        model = LorentzianMirror(2.0)
        temp = 0.005
        assert compute_coefficients(model, temp).mu_spectral == pytest.approx(
            -2.0 * math.pi * temp**2 / 3.0, rel=0.02)
        ratio = (compute_coefficients(model, temp).mu_spectral
                 / compute_coefficients(model, temp / 2.0).mu_spectral)
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
        # a spectral value is a report field; a second report repeats it bit
        # for bit, as the kernel memo lives for one call
        model = request.getfixturevalue(name)
        report, again = (compute_coefficients(model, temp) for _ in range(2))
        assert again.lambda_spectral == report.lambda_spectral
        assert again.mu_spectral == report.mu_spectral

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
        # R, tau and their slopes at a node come from one amplitudes call
        class Recording(MirrorModel):
            low_frequency_reflection = lorentzian.low_frequency_reflection
            low_frequency_delay = lorentzian.low_frequency_delay
            cutoff_frequency = lorentzian.cutoff_frequency
            received = []

            def amplitudes(self, omega, order=0):
                self.received.append(omega)  # kept alive: ids stay unique
                return lorentzian.amplitudes(omega, order)

        model = Recording()
        compute_coefficients(model, 1.0)
        asymptotics(model)
        assert model.received
        assert len({id(w) for w in model.received}) == len(model.received)


def resonant_mirror(a: float = 0.5, b: float = 1.0) -> RationalMirror:
    """Unitary mirror with complex poles: r = a z / D(z), s = (1 + b z^2) / D(z).

    D(z) = 1 - a z + b z^2 has complex roots for a^2 < 4 b; on z = i omega,
    |a z|^2 + |1 + b z^2|^2 = |D|^2 and r s* is imaginary, so the mirror is
    unitary.  R peaks at 1 on omega = 1/sqrt(b) and falls off on both sides.
    """
    den = [1.0, -a, b]
    return RationalMirror(r_num=[0.0, a], r_den=den, s_num=[1.0, 0.0, b], s_den=den)


SHARING_MODELS = ["perfect", "tau0=0.3", "tau0=1", "tau0=3", "weak", "resonant"]


def sharing_model(request, name):
    if name.startswith("tau0="):
        return LorentzianMirror(float(name[len("tau0="):]))
    if name == "resonant":
        return resonant_mirror()
    return request.getfixturevalue(name)


def counting_kernel_calls(monkeypatch):
    """Record the bytes of every node array that reaches the model or the kernel pass."""
    seen = {"amplitudes": [], "reflection_and_delay": []}
    for owner, name in ((_PoleMirror, "amplitudes"), (models, "reflection_and_delay")):
        function, calls = getattr(owner, name), seen[name]

        def counted(first, omega, *args, function=function, calls=calls):
            calls.append(np.asarray(omega).tobytes())
            return function(first, omega, *args)

        monkeypatch.setattr(owner, name, counted)
    return seen


def counting_memo_terms(monkeypatch):
    """Record every 1 + n and every b that the coefficient layer forms."""
    seen = {"occupation_plus_one_from_ratio": [], "_b_kernel": []}
    for owner, name in ((coefficients, "occupation_plus_one_from_ratio"),
                        (models, "_b_kernel")):
        function, calls = getattr(owner, name), seen[name]

        def counted(arg, function=function, calls=calls):
            calls.append(arg)
            return function(arg)

        monkeypatch.setattr(owner, name, counted)
    return seen


def recording_memo_nodes(monkeypatch):
    """Record the bytes of every node array that an integrand asks the memo for."""
    nodes = []
    memoised = coefficients._memoised

    def recording(evaluate):
        integrand = memoised(evaluate)

        def recorded(name, w):
            nodes.append(np.asarray(w).tobytes())
            return integrand(name, w)
        return recorded

    monkeypatch.setattr(coefficients, "_memoised", recording)
    return nodes


def non_caching_memo(evaluate):
    """The memo's contract without the memo: one evaluation per integrand call."""
    return lambda name, w: evaluate(np.asarray(w))[name]


def float_bits(report):
    """Every float of a report as exact hex (so -0.0 != 0.0), error estimates included."""
    values = [*vars(report).values(), *getattr(report, "error_estimates", {}).values()]
    return [float(v).hex() for v in values if isinstance(v, float)]


def recording_gk_panels(monkeypatch):
    """Record the panel list of every ``_gk_panels`` call."""
    calls = []
    gk_panels = quadrature._gk_panels

    def recorded(y, a, b):
        calls.append(list(zip(a.tolist(), b.tolist())))
        return gk_panels(y, a, b)

    monkeypatch.setattr(quadrature, "_gk_panels", recorded)
    return calls


def bench_workloads(monkeypatch):
    """bench/workloads.py, the benchmark's request generator (read only)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("workloads")


# from just above the cutoff, where the band at x = cutoff/T enters the
# first Bose panel [0, 0.25], in half-decades to 1e4 x cutoff
ABOVE_THE_CUTOFF = (1.1, 2.0, *(10.0 ** (k / 2) for k in range(1, 9)))


class TestPanelCalls:
    # coeffs-rational's weak mirrors (epsilon in [0.1, 0.5], tau in [0.5, 2]):
    # up to T = cutoff each of a report's six thermal integrals converges on
    # the first call, over its 19 initial panels
    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_six_calls_per_report_up_to_the_cutoff(self, monkeypatch, epsilon, tau):
        calls = recording_gk_panels(monkeypatch)
        model = weak_mirror(epsilon, tau)
        for temp_per_cutoff in (1e-3, 1e-2, 0.1, 1.0):
            calls.clear()
            compute_coefficients(model, temp_per_cutoff * model.cutoff_frequency)
            assert [len(panels) for panels in calls] == [19] * 6

    # above it the first panel is split in octaves down to the band, so the
    # six integrals still converge on one shared first call, whose last
    # panel (and with it the growth guard's nodes) is unchanged
    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_six_calls_per_report_above_the_cutoff(self, monkeypatch, epsilon, tau):
        calls = recording_gk_panels(monkeypatch)
        model = weak_mirror(epsilon, tau)
        for temp_per_cutoff in ABOVE_THE_CUTOFF:
            calls.clear()
            compute_coefficients(model, temp_per_cutoff * model.cutoff_frequency)
            assert len(calls) == 6, temp_per_cutoff
            assert all(panels == calls[0] for panels in calls)
            assert len(calls[0]) > 19 and calls[0][-1] == (256.0, X_UNDERFLOW)

    def test_seed_one_coeffs_rational_makes_six_calls_per_report(self, tmp_path,
                                                                 monkeypatch, capsys):
        # the floor under the benchmark's six integrals per report: 100
        # requests, 600 calls (1180 when the band was found by bisection)
        workloads = bench_workloads(monkeypatch)
        requests = workloads.generate("coeffs-rational", 1)
        calls = recording_gk_panels(monkeypatch)
        for argv in workloads.write_requests(requests, tmp_path):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(requests) == 100 and len(calls) == 600


class TestLorentzianClosedForms:
    def test_binet_sums_at_half_and_one(self):
        # psi(1) = -gamma, psi'(1) = pi^2/6; psi(1/2) = -gamma - 2 ln 2, psi'(1/2) = pi^2/2
        gamma = 0.57721566490153286
        for z, psi, dpsi in ((1.0, -gamma, math.pi**2 / 6),
                             (0.5, -gamma - 2 * math.log(2), math.pi**2 / 2)):
            flux, viscosity = oracles.binet_sums(z)
            assert flux == pytest.approx(math.log(z) - 0.5 / z - psi, rel=1e-14)
            assert viscosity == pytest.approx(2 * z * dpsi - 2 - 1 / z, rel=1e-14)

    @pytest.mark.parametrize("z", [10.0, 37.5, 1e3])
    def test_binet_series_keeps_the_recurrences(self, z):
        # the Bernoulli series on both sides of one step of the recurrences
        (flux, viscosity), (flux_up, viscosity_up) = map(oracles.binet_sums, (z, z + 1))
        assert flux - flux_up == pytest.approx(oracles._flux_step(z), rel=1e-12)
        assert viscosity == pytest.approx(
            z / (z + 1) * viscosity_up + 1 / (z * (z + 1) ** 2), rel=1e-15)

    # A and lambda by both routes against Binet's closed forms, within each
    # one's claimed error plus 1e-14 relative for the oracle's own rounding
    @pytest.mark.parametrize("tau0", [0.3, 1.0, 3.0])
    def test_within_the_claimed_error(self, tau0):
        model = LorentzianMirror(tau0)
        for k in range(-6, 9):
            temp = 10.0 ** (k / 2) * model.cutoff_frequency
            report = compute_coefficients(model, temp)
            flux, viscosity = oracles.lorentzian_flux_and_viscosity(temp, tau0)
            for name, exact in (("A", flux), ("lambda_spectral", viscosity),
                                ("lambda_entropic", viscosity)):
                gap = abs(getattr(report, name) - exact)
                assert gap <= report.error_estimates[name] + 1e-14 * abs(exact), (temp, name)


class TestConvergedFlags:
    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_weak_mirrors_converge_at_every_temperature(self, epsilon, tau):
        model = weak_mirror(epsilon, tau)
        for temp_per_cutoff in (1e-3, 1e-2, 0.1, 1.0, *ABOVE_THE_CUTOFF):
            report = compute_coefficients(model, temp_per_cutoff * model.cutoff_frequency)
            assert report.converged == dict.fromkeys(report.error_estimates, True)

    # the advertised low-temperature end, 1e-6 x cutoff, and the decades up to
    # the grid above
    @pytest.mark.parametrize("temp_per_cutoff", [1e-6, 1e-5, 1e-4])
    @pytest.mark.parametrize("weak", [(e, t) for e in (0.1, 0.3, 0.5) for t in (0.5, 1.0, 2.0)]
                             + [None], ids=lambda w: "lorentzian" if w is None else f"weak{w}")
    def test_converge_and_agree_at_the_low_temperature_end(self, weak, temp_per_cutoff):
        model = LorentzianMirror(1.0) if weak is None else weak_mirror(*weak)
        report = compute_coefficients(model, temp_per_cutoff * model.cutoff_frequency)
        assert report.converged == dict.fromkeys(report.error_estimates, True)
        assert report.route_discrepancy_lambda <= ROUTE_TOLERANCE
        assert report.route_discrepancy_mu <= ROUTE_TOLERANCE

    # lambda is 1.4e-9 to 1.4e-13 here: an absolute quadrature tolerance of
    # 1e-14 once stopped the routes 2e-6 to 5e-6 apart, each inside its
    # claim, and more than ROUTE_TOLERANCE
    @pytest.mark.parametrize("a", [0.01, 1e-3, 1e-4])
    def test_resonant_routes_agree_where_lambda_is_tiny(self, a):
        report = compute_coefficients(resonant_mirror(a), 0.03)
        assert report.converged == dict.fromkeys(report.error_estimates, True)
        assert report.route_discrepancy_lambda <= ROUTE_TOLERANCE

    def test_lorentzian_mu_spectral_at_1e4_stops_on_its_floor(self, monkeypatch,
                                                              lorentzian):
        # the spectral mu integrand cancels at T >> cutoff, and its panels
        # reach their rounding floor: bisection stops there instead of
        # spending the budget of 200 panels, from 33 initial ones on the
        # band's octaves: 15 (33 + 2 (200 - 33)) = 5505 evaluations
        results = []

        def recorded(*args, **kwargs):
            results.append(integrate_thermal(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(coefficients, "integrate_thermal", recorded)
        report = compute_coefficients(lorentzian, 1e4)
        assert report.converged == dict.fromkeys(report.error_estimates, True)
        mu_spectral = results[list(report.error_estimates).index("mu_spectral")]
        assert mu_spectral.evaluations < 5505
        # 40-digit reference of the Lorentzian's mu at T = 1e4 (ROADMAP item 3)
        exact = -0.15914661004931502
        assert abs(report.mu_spectral - exact) <= report.error_estimates["mu_spectral"]


class TestKernelMemo:
    # the integrands of one report, or of asymptotics, are one function of
    # the node array, memoised for the call, which must not change a bit of
    # any value or error
    @pytest.mark.parametrize("name", SHARING_MODELS)
    @pytest.mark.parametrize("temp_per_cutoff", [1e-3, 1.0, 1e2])
    def test_bit_identical_to_a_non_caching_memo(self, request, monkeypatch,
                                                 name, temp_per_cutoff):
        model = sharing_model(request, name)
        temp = temp_per_cutoff * (model.cutoff_frequency or 1.0)
        memoized = compute_coefficients(model, temp)
        monkeypatch.setattr(coefficients, "_memoised", non_caching_memo)
        bare = compute_coefficients(model, temp)
        assert float_bits(memoized) == float_bits(bare)

    @pytest.mark.parametrize("name", [n for n in SHARING_MODELS if n != "perfect"])
    def test_asymptotics_bit_identical_to_a_non_caching_memo(self, request, monkeypatch,
                                                             name):
        model = sharing_model(request, name)
        memoized = asymptotics(model)
        monkeypatch.setattr(coefficients, "_memoised", non_caching_memo)
        assert float_bits(memoized) == float_bits(asymptotics(model))

    def test_each_node_array_takes_one_kernel_pass(self, monkeypatch):
        model = resonant_mirror()
        seen = counting_kernel_calls(monkeypatch)
        terms = counting_memo_terms(monkeypatch)
        nodes = recording_memo_nodes(monkeypatch)
        counts = []
        for _ in range(2):
            for calls in (nodes, *seen.values(), *terms.values()):
                calls.clear()
            compute_coefficients(model, 1.0)
            distinct = sorted(set(nodes))
            assert len(distinct) < len(nodes)  # the integrals do share
            for name, calls in seen.items():
                assert sorted(calls) == distinct, name
            # and one b and one 1 + n per node array, however many integrands read them
            for name, calls in terms.items():
                assert len(calls) == len(distinct), name
            counts.append([len(calls) for calls in (*seen.values(), *terms.values())])
        # a second report evaluates as much again: nothing outlives a report
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("name", ["tau0=1", "weak", "resonant"])
    def test_asymptotics_take_one_kernel_pass_per_node_array(self, request, monkeypatch,
                                                             name):
        # the Omega_C and Delta_S integrals start on the same nodes
        model = sharing_model(request, name)
        seen = counting_kernel_calls(monkeypatch)
        nodes = recording_memo_nodes(monkeypatch)
        asymptotics(model)
        distinct = sorted(set(nodes))
        assert len(distinct) < len(nodes)
        scalar = np.asarray(0.0).tobytes()  # R0 and tau0 are read at omega = 0
        for name, calls in seen.items():
            assert sorted(c for c in calls if c != scalar) == distinct, name


class TestRuleCache:
    # a thermal integral's first-call nodes and Bose weights are cached per
    # process (quadrature._cached_rule), the only state that outlives a
    # request: a report must not depend on whether the cache was cold
    @staticmethod
    def cold_and_warm(model, temp):
        quadrature._cached_rule.cache_clear()
        cold = compute_coefficients(model, temp)
        assert quadrature._cached_rule.cache_info().currsize == 1
        return float_bits(cold), float_bits(compute_coefficients(model, temp))

    @pytest.mark.parametrize("name", SHARING_MODELS)
    @pytest.mark.parametrize("temp_per_cutoff", [1e-3, 1.0, 1e2])
    def test_sharing_models_bit_identical_cold_and_warm(self, request, name,
                                                        temp_per_cutoff):
        model = sharing_model(request, name)
        cold, warm = self.cold_and_warm(
            model, temp_per_cutoff * (model.cutoff_frequency or 1.0))
        assert cold == warm

    # the corners of coeffs-rational's box: epsilon in [0.1, 0.5], tau in
    # [0.5, 2] and T in [1e-3, 1e2] x cutoff
    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    @pytest.mark.parametrize("tau", [0.5, 2.0])
    @pytest.mark.parametrize("temp_per_cutoff", [1e-3, 1.0, 1e2])
    def test_benchmark_box_bit_identical_cold_and_warm(self, epsilon, tau,
                                                       temp_per_cutoff):
        model = weak_mirror(epsilon, tau)
        cold, warm = self.cold_and_warm(model, temp_per_cutoff * model.cutoff_frequency)
        assert cold == warm


class TestAsymptotics:
    def test_lorentzian_bandwidth(self, lorentzian):
        report = asymptotics(lorentzian)
        assert report.omega_C_effective == pytest.approx(0.25, rel=1e-10)
        assert report.delta_S == pytest.approx(0.0, abs=1e-12)

    def test_scaling_with_tau0(self):
        report = asymptotics(LorentzianMirror(4.0))
        assert report.omega_C_effective == pytest.approx(1.0 / 16.0, rel=1e-10)

    def test_perfect_mirror_markers(self, perfect):
        # the perfect mirror has no cutoff: no finite bandwidth to report
        with pytest.raises(DivergentBandwidth):
            asymptotics(perfect)

    def test_nontransparent_rejected(self, transparent_model):
        class NoCutoff(type(transparent_model)):
            pass

        model = NoCutoff(r_num=[0.0], r_den=[1.0], s_num=[1.0], s_den=[1.0])
        with pytest.raises(DivergentBandwidth):
            asymptotics(model)

    def test_weak_mirror_stocked_energy_reading(self, weak):
        # R << 1 everywhere: Delta_S is close to the plain delay integral
        from thermaldrag.models import reflection_and_delay
        report = asymptotics(weak)
        x = np.linspace(0.0, 400.0, 400001)
        tau = reflection_and_delay(weak, x)[2]
        plain = np.trapezoid(2.0 * tau, x) / (2.0 * math.pi)
        assert report.delta_S == pytest.approx(plain, rel=0.05)

    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    def test_weak_mirror_reports_both_integrals_converged(self, epsilon):
        report = asymptotics(weak_mirror(epsilon, 1.0))
        assert report.converged == {"omega_C_effective": True, "delta_S": True}
        assert report.error_estimates.keys() == report.converged.keys()
        assert all(0.0 < err < 1e-13 for err in report.error_estimates.values())

    def test_lorentzian_bandwidth_converges_within_its_claim(self, lorentzian):
        report = asymptotics(lorentzian)
        assert report.converged["omega_C_effective"]
        assert abs(report.omega_C_effective - 0.25) <= report.error_estimates[
            "omega_C_effective"]

    def test_lorentzian_delay_sum_converges(self, lorentzian):
        # Delta_S is exactly 0 for every Lorentzian: its panels stop on
        # their rounding floor, which is also all of its claimed error
        report = asymptotics(lorentzian)
        assert report.converged["delta_S"]
        assert abs(report.delta_S) <= report.error_estimates["delta_S"]

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
        assert einstein_check(perfect, compute_coefficients(perfect, 1.0)) < 1e-4

    @pytest.mark.parametrize("temp", [0.1, 1.0, 10.0])
    def test_lorentzian(self, lorentzian, temp):
        report = compute_coefficients(lorentzian, temp)
        assert einstein_check(lorentzian, report) < 1e-3

    def test_nan_when_a_ladder_chi_is_unconverged(self, weak):
        # at T = 100 x cutoff every chi of the weak mirror's ladder is
        # unconverged: a residual from them would pass on values it cannot vouch for
        report = compute_coefficients(weak, 100.0 * weak.cutoff_frequency)
        assert math.isnan(einstein_check(weak, report))

    def test_detects_injected_inconsistency(self, lorentzian):
        # halving lambda by hand must produce a discrepancy near 1
        from thermaldrag.susceptibility import correlation_zero_frequency
        temp = 1.0
        half_c0 = 0.5 * correlation_zero_frequency(lorentzian, temp)
        lam = 0.5 * compute_coefficients(lorentzian, temp).lambda_spectral
        residual = abs(half_c0 - temp * lam) / (temp * lam)
        assert residual == pytest.approx(1.0, abs=0.01)


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


def chi_limit(model, temp, part):
    """omega -> 0 limit of part(chi_T[omega], omega) on the ladder of ``temp``.

    xi_T is odd and Re chi_T even in omega, so xi_T/omega and Re chi_T/omega^2
    have only even corrections (error powers 2, 4, 6, ...).
    """
    return _ladder_limit(lambda w: part(chi_total(model, w, temp).chi_total, w),
                         temp, 2)


class TestSusceptibilityConsistency:
    # the coefficient integrals against the full chi_T: the slope of xi_T
    # is lambda_T and the curvature of Re chi_T is mu_T
    def test_lambda_from_slope(self, lorentzian):
        slope = chi_limit(lorentzian, 1.0, lambda chi, w: chi.imag / w)
        assert slope == pytest.approx(
            compute_coefficients(lorentzian, 1.0).lambda_spectral, rel=1e-3)

    def test_mu_from_curvature(self, lorentzian):
        curvature = chi_limit(lorentzian, 1.0, lambda chi, w: chi.real / w**2)
        assert curvature == pytest.approx(
            compute_coefficients(lorentzian, 1.0).mu_spectral, rel=1e-2)

    def test_perfect_mirror_curvature_is_zero(self, perfect):
        assert chi_limit(perfect, 1.0, lambda chi, w: chi.real / w**2) == 0.0


class TestDopplerCrossover:
    def test_low_temperature_factor_four(self, lorentzian):
        temp = 1e-3
        ratio = (compute_coefficients(lorentzian, temp).lambda_spectral
                 / compute_coefficients(lorentzian, temp).A)
        assert 3.96 <= ratio <= 4.04

    def test_high_temperature_factor_two(self, lorentzian):
        temp = 100.0
        ratio = (compute_coefficients(lorentzian, temp).lambda_spectral
                 / compute_coefficients(lorentzian, temp).A)
        assert 1.96 <= ratio <= 2.04
