import math

import numpy as np
import pytest

import oracles
from conftest import weak_mirror
from oracles import (adaptive_per_panel, bose_moment, differentiate,
                     lorentzian_alpha)
from test_coefficients import float_bits, resonant_mirror
from thermaldrag import (ExtrapolationUnstable, GridTooCoarse,
                         GrowthBoundExceeded, LorentzianMirror,
                         QuadratureConfig, chi_total, compute_coefficients,
                         hilbert_transform_pv, integrate_finite,
                         integrate_thermal, quadrature, richardson_extrapolate)
from thermaldrag.quadrature import (_EPS, _GAUSS_IDX, _THERMAL_BREAKS, _WG, _WK,
                                   DEFAULT_CONFIG, _adaptive, _gk_panels)


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


# (integrand, breakpoints, config) on which the batched driver must make
# the per-panel driver's evaluations
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
    # are too narrow to split again, so they freeze and nothing is left
    "roundoff_frozen": (np.exp, [1.0, 1.0 + 4.0 * _EPS],
                        QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300)),
    # the worst panels are frozen, and the others must still be halved
    # until the budget runs out
    "frozen_worst": (lambda x: np.where(x < 1.0 + 4.0 * _EPS, 1e40, np.exp(x)),
                     [1.0, 1.0 + 4.0 * _EPS, 2.0],
                     QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300,
                                      max_subdivisions=20)),
}


def _nan(x):
    return np.full_like(x, np.nan)


class TestBatchedDriver:
    @pytest.mark.parametrize("case", _DRIVER_CASES)
    def test_matches_per_panel_driver(self, case):
        # the panels are summed in another order, so value and error may
        # differ from the per-panel driver's by roundoff
        f, breakpoints, cfg = _DRIVER_CASES[case]
        batched = _adaptive(f, breakpoints, cfg)
        reference = adaptive_per_panel(f, breakpoints, cfg)
        assert batched.evaluations == reference.evaluations
        assert batched.converged == reference.converged
        assert batched.value == pytest.approx(reference.value, rel=1e-15, abs=0)
        assert batched.error_estimate == pytest.approx(
            reference.error_estimate, rel=1e-15, abs=0)

    def test_cases_reach_their_branches(self):
        assert not _adaptive(*_DRIVER_CASES["budget_exhausted"]).converged
        frozen = _adaptive(*_DRIVER_CASES["roundoff_frozen"])
        assert not frozen.converged and frozen.evaluations == 45
        # 2 initial panels, then 18 halvings up to the budget of 20 panels;
        # stopping at the first frozen worst panel would make 60
        frozen = _adaptive(*_DRIVER_CASES["frozen_worst"])
        assert not frozen.converged and frozen.evaluations == 570

    @staticmethod
    def recording(f):
        sizes = []

        def g(x):
            sizes.append(np.asarray(x).size)
            return f(x)
        return g, sizes

    @staticmethod
    def assert_one_call_per_round(sizes, initial_panels, evaluations):
        # every initial panel in the first call, then each round's halves
        # (two per halved panel) in one call
        assert sizes[0] == 15 * initial_panels and len(sizes) > 1
        assert all(size > 0 and size % 30 == 0 for size in sizes[1:])
        assert sum(sizes) == evaluations

    def test_finite_one_call_per_step(self):
        g, sizes = self.recording(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4))
        res = integrate_finite(g, 0.0, 1.0)
        self.assert_one_call_per_round(sizes, 1, res.evaluations)

    def test_thermal_one_call_per_step(self):
        g, sizes = self.recording(lambda w: w**3 / (1.0 + (w - 2.0) ** 2))
        res = integrate_thermal(g, 0.7)
        # majorant fit (48 nodes) and growth probe (3) come first
        assert sizes[:2] == [48, 3]
        self.assert_one_call_per_round(sizes[2:], len(_THERMAL_BREAKS),
                                       res.evaluations - 51)

    def test_peak_halves_several_panels_per_call(self):
        g, sizes = self.recording(_DRIVER_CASES["sharp_peak"][0])
        res = _adaptive(g, [0.0, 1.0], DEFAULT_CONFIG)
        halvings = (res.evaluations - 15) // 30
        assert res.converged and len(sizes) - 1 < halvings

    def test_nan_integrand_finite(self):
        g, sizes = self.recording(_nan)
        res = integrate_finite(g, 0.0, 1.0)
        assert math.isnan(res.value) and not res.converged
        assert sizes == [15] and res.evaluations == 15

    def test_nan_integrand_thermal(self):
        g, sizes = self.recording(_nan)
        res = integrate_thermal(g, 1.0)
        assert math.isnan(res.value) and not res.converged
        assert sizes == [48, 3, 15 * len(_THERMAL_BREAKS)]
        assert res.evaluations == sum(sizes)


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


class TestQuadratureConfig:
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-10])
    def test_rejects_non_positive_tolerance(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 200.0, True, False, "200", None])
    def test_rejects_budget_that_is_not_an_int(self, value):
        with pytest.raises(ValueError, match="max_subdivisions must be an int"):
            QuadratureConfig(max_subdivisions=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_budget_below_one(self, value):
        with pytest.raises(ValueError, match="max_subdivisions must be >= 1"):
            QuadratureConfig(max_subdivisions=value)

    def test_accepts_the_smallest_budget(self):
        assert QuadratureConfig(max_subdivisions=1).max_subdivisions == 1

    def test_infinite_tolerance_cannot_claim_a_peak(self):
        # an infinite rel_tol once let one panel of a narrow peak pass as
        # converged with an error of 1.8 times its value
        peak = lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6)  # noqa: E731
        res = integrate_finite(peak, 0.0, 1.0)
        assert res.converged and res.evaluations > 15
        exact = 1e3 * (math.atan(700.0) + math.atan(300.0))
        assert res.value == pytest.approx(exact, rel=1e-9)
        with pytest.raises(ValueError):
            integrate_finite(peak, 0.0, 1.0, QuadratureConfig(rel_tol=math.inf))


class TestRichardsonPower:
    @pytest.mark.parametrize("power", [0, -1, -2.5, math.nan, math.inf, -math.inf])
    def test_rejects_power_that_is_not_positive_and_finite(self, power):
        with pytest.raises(ValueError, match="power"):
            richardson_extrapolate([1.0, 0.5, 0.25], power)

    def test_halving_ladder_extrapolates_to_zero(self):
        # power 1 on 1, 1/2, 1/4 is exact: the limit is 0 (power -1 gave 1.75)
        limit, _ = richardson_extrapolate([1.0, 0.5, 0.25], 1)
        assert limit == 0.0


def _same(x, y):
    """x == y part by part, with NaN equal to NaN."""
    x, y = complex(x), complex(y)
    return all(p == q or (p != p and q != q)
               for p, q in ((x.real, y.real), (x.imag, y.imag)))


# integrands for the panel-by-panel comparison: each leaves its mark on a
# different branch of the error formula (or on none, for NaN and inf)
_PANEL_INTEGRANDS = {
    "real": lambda x: np.exp(-x) * np.cos(9.0 * x),
    "complex": lambda x: np.exp(7j * x) / (1.0 + x * x),
    "nan": lambda x: np.where(x > 0.45, np.nan, np.sin(x)),
    "inf": lambda x: np.where(x > 0.45, np.inf, np.sin(x)),
    "complex_inf": lambda x: np.where(x > 0.45, np.inf, 1.0) * np.exp(3j * x),
    "zero": np.zeros_like,
    "constant": lambda x: np.full_like(x, 2.5),
}


class TestStackedReduction:
    # _gk_panels reduces all its panels as one stack of dots; every panel
    # must come out bit for bit as a lone panel's reduction

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("count", [1, 2, 5, 8, 16])
    @pytest.mark.parametrize("name", _PANEL_INTEGRANDS)
    def test_each_panel_equals_a_lone_panel(self, name, count):
        f = _PANEL_INTEGRANDS[name]
        ends = np.linspace(0.0, 1.0, count + 1) ** 1.5
        panels = list(zip(ends[:-1].tolist(), ends[1:].tolist()))
        stacked = _gk_panels(f, panels)
        assert [panel[:2] for panel in stacked] == panels
        for a, b, value, err in stacked:
            lone_value, lone_err = oracles.gk_panel_per_call(f, a, b)
            assert _same(value, lone_value), (name, a, b, value, lone_value)
            assert _same(err, lone_err), (name, a, b, err, lone_err)

    def test_stacked_dots_are_lone_dots(self):
        # canary for numpy's matmul dispatch: the stacked reduction relies on
        # matmul sending each (1, 15) @ (15, 1) stack entry to the same BLAS
        # dot as a 1-D product of one row
        rng = np.random.default_rng(14)
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (2000, 1))
        real = rng.standard_normal((2000, 15)) * scale
        for rows in (real, real + 1j * rng.standard_normal((2000, 15)) * scale):
            column = rows[:, :, None]
            pairs = [
                ((_WK @ column)[:, 0], [_WK @ row for row in rows]),
                ((_WG @ np.take(column, _GAUSS_IDX, axis=1))[:, 0],
                 [_WG @ row[_GAUSS_IDX] for row in rows]),
                ((_WK @ np.abs(column))[:, 0], [_WK @ np.abs(row) for row in rows]),
            ]
            for stacked, lone in pairs:
                assert np.array_equal(stacked, np.array(lone)), (
                    "numpy's matmul no longer reduces a stack of (1, 15) @ (15, 1) "
                    "products with the dot of a lone 1-D product; the stacked "
                    "reduction in quadrature._gk_panels would move output bits")


def _compensated_sum(items, start=0):
    """The built-in sum of Python >= 3.12: compensated (Neumaier) when every
    item is an exact float, plain left-to-right additions otherwise."""
    items = list(items)
    if not items or not all(type(v) is float for v in items):
        total = start
        for v in items:
            total = total + v
        return total
    total, comp = float(start), 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_compensated_sum_emulates_python_312():
    assert _compensated_sum([1e16, 1.0, -1e16, 1.0]) == 2.0
    assert _compensated_sum(np.array([1e16, 1.0, -1e16, 1.0])) == 1.0


_SUMS = {"builtin": sum, "compensated": _compensated_sum}


def _bits(value):
    """Exact hex of every part of a float or complex value (so -0.0 != 0.0)."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _result_bits(res):
    return (_bits(res.value), _bits(res.error_estimate), res.evaluations, res.converged)


def _chi_bits(value):
    return [_bits(v) for v in (value.chi_vacuum, value.chi_thermal,
                               value.chi_total, value.error_estimate)]


class TestWholeDriver:
    # the stacked driver against the row-wise one it replaced, frozen in
    # tests/oracles.py: every value and error of a computation must keep its
    # bits, also under Python 3.12's compensated built-in sum

    @staticmethod
    def both_drivers(compute, summation):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "sum", _SUMS[summation], raising=False)
            stacked = compute()
            patch.setattr(quadrature, "_adaptive", oracles.adaptive_rowwise)
            rowwise = compute()
        return stacked, rowwise

    @pytest.mark.parametrize("summation", _SUMS)
    @pytest.mark.parametrize("temp_per_cutoff", [1e-2, 1.0, 30.0])
    @pytest.mark.parametrize("name", ["weak", "resonant"])
    def test_coefficients_bit_identical(self, name, temp_per_cutoff, summation):
        model = weak_mirror() if name == "weak" else resonant_mirror()
        temp = temp_per_cutoff * model.cutoff_frequency
        stacked, rowwise = self.both_drivers(
            lambda: compute_coefficients(model, temp), summation)
        assert float_bits(stacked) == float_bits(rowwise)

    @pytest.mark.parametrize("summation", _SUMS)
    @pytest.mark.parametrize("name", ["lorentzian", "resonant"])
    def test_chi_bit_identical(self, name, summation):
        model = LorentzianMirror(0.7) if name == "lorentzian" else resonant_mirror()
        points = [(omega, temp) for omega in (-3.0, 1e-3, 0.4, 2.5, 40.0)
                  for temp in (0.0, 0.05, 1.0, 20.0)]
        stacked, rowwise = self.both_drivers(
            lambda: [_chi_bits(chi_total(model, w, t)) for w, t in points], summation)
        assert stacked == rowwise

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("summation", _SUMS)
    def test_adaptive_bit_identical_on_drawn_integrands(self, summation):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        term = st.tuples(st.floats(-3.0, 3.0), st.floats(-8.0, -0.5),
                         st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                            allow_infinity=False))
        breaks = st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=6,
                          unique=True).map(sorted)

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.lists(term, min_size=1, max_size=4), breaks,
                          st.floats(-14.0, -3.0), st.integers(1, 80),
                          st.booleans())
        def check(terms, breakpoints, log_tol, budget, real):
            def f(x):
                # peaks of width 10^log_width at centre, weighted by c
                y = sum(c / ((x - centre) ** 2 + 10.0 ** (2 * log_width))
                        for centre, log_width, c in terms)
                return y.real if real else y
            cfg = QuadratureConfig(rel_tol=10.0 ** log_tol, max_subdivisions=budget)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quadrature, "sum", _SUMS[summation], raising=False)
                stacked = _adaptive(f, breakpoints, cfg)
            assert _result_bits(stacked) == _result_bits(
                oracles.adaptive_rowwise(f, breakpoints, cfg))

        check()
