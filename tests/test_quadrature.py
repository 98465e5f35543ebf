import math

import numpy as np
import pytest

from oracles import (adaptive_per_panel, bose_moment, differentiate,
                     lorentzian_alpha)
from thermaldrag import (ExtrapolationUnstable, GridTooCoarse,
                         GrowthBoundExceeded, QuadratureConfig,
                         hilbert_transform_pv, integrate_finite,
                         integrate_thermal, richardson_extrapolate)
from thermaldrag.quadrature import (_EPS, _THERMAL_BREAKS, DEFAULT_CONFIG,
                                   _adaptive)


class TestIntegrateFinite:
    def test_polynomial_exact(self):
        # omega'(omega - omega') over [0, omega] -> omega^3/6, exact for the pair
        omega = 1.3
        res = integrate_finite(lambda w: w * (omega - w), 0.0, omega)
        assert res.value == pytest.approx(omega**3 / 6.0, rel=1e-14)
        assert res.converged and res.evaluations == 15

    def test_constant(self):
        res = integrate_finite(lambda w: np.full_like(w, 2.0), 0.0, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-15)

    def test_high_degree_polynomial_exact(self):
        # degree 22 is still within the Kronrod rule's exactness
        res = integrate_finite(lambda x: x**22, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 23.0, rel=1e-13)

    def test_lorentzian_kernel_against_trapezoid(self):
        # vacuum integrand at omega = 1, tau0 = 1
        omega = 1.0
        res = integrate_finite(
            lambda w: w * (omega - w) * lorentzian_alpha(w, omega - w), 0.0, omega)
        wp = np.linspace(0.0, omega, 1_000_001)
        oracle = np.trapezoid(wp * (omega - wp) * lorentzian_alpha(wp, omega - wp), wp)
        assert res.value == pytest.approx(oracle, rel=1e-8)

    def test_complex_integrand(self):
        res = integrate_finite(lambda x: np.exp(1j * x), 0.0, math.pi)
        assert res.value == pytest.approx(2j, rel=1e-12)

    def test_additivity(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        whole = integrate_finite(f, 0.0, 2.0)
        left = integrate_finite(f, 0.0, 0.7)
        right = integrate_finite(f, 0.7, 2.0)
        assert abs(whole.value - left.value - right.value) <= (
            whole.error_estimate + left.error_estimate + right.error_estimate
            + 1e-14)

    def test_empty_range(self):
        res = integrate_finite(lambda x: x, 1.0, 1.0)
        assert res.value == 0.0
        assert res.evaluations == 0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)

    def test_tolerance_not_reached_flag(self):
        cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=4)
        res = integrate_finite(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, cfg)
        assert not res.converged
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_error_estimate_covers_true_error(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x**2)
        exact = 2.0 * math.atan(5.0) / 5.0
        res = integrate_finite(f, -1.0, 1.0)
        assert abs(res.value - exact) <= res.error_estimate + 1e-15


class TestIntegrateThermal:
    def test_first_bose_moment(self):
        res = integrate_thermal(lambda w: w, 1.0)
        assert res.value == pytest.approx(math.pi**2 / 6.0, rel=1e-10)
        assert res.value == pytest.approx(bose_moment(1), rel=1e-10)

    def test_third_bose_moment(self):
        res = integrate_thermal(lambda w: w**3, 1.0)
        assert res.value == pytest.approx(math.pi**4 / 15.0, rel=1e-10)
        assert res.value == pytest.approx(bose_moment(3), rel=1e-10)

    def test_zero_integrand(self):
        res = integrate_thermal(lambda w: np.zeros_like(w), 1.0)
        assert res.value == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_temperature_scale_law(self, k):
        base = integrate_thermal(lambda w: w**k, 1.0).value
        for temp in (0.01, 0.37, 5.0, 120.0):
            res = integrate_thermal(lambda w: w**k, temp)
            assert res.value == pytest.approx(temp ** (k + 1) * base, rel=1e-9)

    def test_growth_bound_guard(self):
        with pytest.raises(GrowthBoundExceeded):
            integrate_thermal(lambda w: np.exp(0.9 * w), 1.0)

    def test_error_bound_statistics(self):
        # the claimed bound must cover the true error in >= 99% of random
        # tolerance settings on the moment oracles
        rng = np.random.default_rng(42)
        exact = {1: bose_moment(1), 3: bose_moment(3)}
        hits = trials = 0
        for _ in range(100):
            rel = 10.0 ** rng.uniform(-12, -4)
            abs_tol = 10.0 ** rng.uniform(-16, -8)
            cfg = QuadratureConfig(rel_tol=rel, abs_tol=abs_tol)
            for k in (1, 3):
                res = integrate_thermal(lambda w, k=k: w**k, 1.0, cfg)
                trials += 1
                hits += abs(res.value - exact[k]) <= max(res.error_estimate, 1e-15)
        assert hits / trials >= 0.99

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            integrate_thermal(lambda w: w, 0.0)


# (integrand, breakpoints, config) on which the batched driver must match
# the per-panel one bit for bit
_DRIVER_CASES = {
    "smooth_real": (lambda x: np.exp(-x) * np.cos(3.0 * x), [0.0, 5.0],
                    DEFAULT_CONFIG),
    "complex": (lambda x: np.exp(7j * x) / (1.0 + x * x), [-2.0, 0.5, 3.0],
                DEFAULT_CONFIG),
    "sharp_peak": (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-8), [0.0, 0.25, 1.0],
                   DEFAULT_CONFIG),
    "budget_exhausted": (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), [0.0, 1.0],
                         QuadratureConfig(max_subdivisions=3)),
    # a tolerance below the roundoff floor: both halves of the first split
    # are too narrow to split again, so they freeze and the heap empties
    "roundoff_frozen": (np.exp, [1.0, 1.0 + 4.0 * _EPS],
                        QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300)),
}


class TestBatchedDriver:
    @pytest.mark.parametrize("case", _DRIVER_CASES)
    def test_matches_per_panel_driver(self, case):
        f, breakpoints, cfg = _DRIVER_CASES[case]
        batched = _adaptive(f, breakpoints, cfg)
        reference = adaptive_per_panel(f, breakpoints, cfg)
        assert batched.value == reference.value
        assert batched.error_estimate == reference.error_estimate
        assert batched.evaluations == reference.evaluations
        assert batched.converged == reference.converged

    def test_cases_reach_their_branches(self):
        assert not _adaptive(*_DRIVER_CASES["budget_exhausted"]).converged
        frozen = _adaptive(*_DRIVER_CASES["roundoff_frozen"])
        assert not frozen.converged and frozen.evaluations == 45

    @staticmethod
    def recording(f):
        sizes = []

        def g(x):
            sizes.append(np.asarray(x).size)
            return f(x)
        return g, sizes

    def test_finite_one_call_per_step(self):
        g, sizes = self.recording(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4))
        res = integrate_finite(g, 0.0, 1.0)
        assert sum(sizes) == res.evaluations
        assert sizes[0] == 15 and len(sizes) > 2
        assert set(sizes[1:]) == {30}

    def test_thermal_one_call_per_step(self):
        g, sizes = self.recording(lambda w: w**3 / (1.0 + (w - 2.0) ** 2))
        res = integrate_thermal(g, 0.7)
        assert sum(sizes) == res.evaluations
        # majorant fit (48 nodes), growth probe (3), then every initial
        # panel in one call and each bisection's two halves in one call
        assert sizes[:2] == [48, 3]
        assert sizes[2] == 15 * len(_THERMAL_BREAKS)
        assert len(sizes) > 3 and set(sizes[3:]) == {30}


class TestDifferentiate:
    """The central-difference oracle that test_core checks dn/domega with."""

    def test_square(self):
        assert differentiate(lambda x: x * x, 3.0, 1.0) == pytest.approx(6.0, abs=1e-9)

    def test_sine_at_zero(self):
        assert differentiate(math.sin, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_lorentzian_determinant_phase_slope(self):
        # phase of s^2 - r^2 at omega = 0 has slope 2 tau0; the determinant
        # sits at -1 there, so take the branch continuous across pi
        tau0 = 1.0

        def phase(w):
            den = 1.0 - 1j * tau0 * w
            det = ((-1j * tau0 * w) ** 2 - 1.0) / den**2
            return math.atan2(det.imag, det.real) % (2.0 * math.pi)

        assert differentiate(phase, 0.0, 1.0) == pytest.approx(2.0 * tau0, abs=1e-6)

    def test_fourth_order_convergence(self):
        f = math.exp
        errors = [abs(differentiate(f, 0.0, scale) - 1.0) for scale in (1e4, 1e3)]
        # one decade of step refinement gains roughly four orders
        assert errors[1] < errors[0] * 1e-2


class TestHilbertTransform:
    def test_even_lorentzian_at_center_is_zero(self):
        grid = np.linspace(-60.0, 60.0, 4097)
        g = 1.0 / (1.0 + grid**2)
        assert hilbert_transform_pv(g, 2048) == pytest.approx(0.0, abs=1e-12)

    def test_odd_lorentzian_pair(self):
        # residue oracle: (1/pi) PV int [w'/(1+w'^2)]/w' dw' = 1
        grid = np.linspace(-200.0, 200.0, 8193)
        g = grid / (1.0 + grid**2)
        assert hilbert_transform_pv(g, 4096) == pytest.approx(1.0, rel=2e-2)

    def test_pair_value_off_center(self):
        # analytic pair: H[w'/(1+w'^2)](w) = 1/(1+w^2) under this sign convention
        grid = np.linspace(-400.0, 400.0, 16385)
        g = grid / (1.0 + grid**2)
        at = 8192 + 41  # omega = 2.0024...
        omega = grid[at]
        assert hilbert_transform_pv(g, at) == pytest.approx(
            1.0 / (1.0 + omega**2), rel=3e-2)

    def test_zero_input(self):
        assert hilbert_transform_pv(np.zeros(128), 64) == 0.0

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            hilbert_transform_pv(np.zeros(63), 10)


class TestRichardson:
    def test_first_order_sequence(self):
        h = 1.0 / 2.0 ** np.arange(6)
        values = 3.0 + 2.0 * h + 0.5 * h**2 + 0.1 * h**3
        limit, err = richardson_extrapolate(values, 1)
        assert limit == pytest.approx(3.0, abs=1e-10)
        assert err < 1e-6

    def test_even_order_sequence(self):
        h = 1.0 / 2.0 ** np.arange(6)
        values = -1.5 + 0.3 * h**2 + 0.7 * h**4
        limit, _ = richardson_extrapolate(values, 2)
        assert limit == pytest.approx(-1.5, abs=1e-12)

    def test_unstable_sequence_raises(self):
        # settles for a few rungs, then the differences blow up
        values = [2.0, 1.5, 1.49, 1.488, 1.6, 4.0, -20.0]
        with pytest.raises(ExtrapolationUnstable):
            richardson_extrapolate(values, 1)

    def test_noise_floor_is_not_flagged(self):
        # a clean first-order ladder sitting on 1e-12 relative noise
        h = 1.0 / 2.0 ** np.arange(7)
        noise = np.array([3.0, -2.0, 1.5, -1.0, 2.0, -1.5, 1.0]) * 1e-12
        values = 4.0 + 1e-4 * h + noise
        limit, _ = richardson_extrapolate(values, 1)
        assert limit == pytest.approx(4.0, rel=1e-10)
