import bisect
import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import weak_mirror
from oracles import (adaptive_per_panel, bose_moment, differentiate,
                     lorentzian_alpha)
from test_coefficients import recording_gk_panels, resonant_mirror
from thermaldrag import (ExtrapolationUnstable, GridTooCoarse,
                         GrowthBoundExceeded, LorentzianMirror,
                         QuadratureConfig, chi_total, compute_coefficients,
                         hilbert_transform_pv, integrate_finite,
                         integrate_thermal, quadrature, richardson_extrapolate)
from thermaldrag.core import X_UNDERFLOW
from thermaldrag.quadrature import (_EPS, _GAUSS_IDX, _THERMAL_BREAKS, _WG, _WK,
                                   DEFAULT_CONFIG, _adaptive, _gk_nodes, _gk_panels)


class TestIntegrateFinite:
    def test_polynomial_exact(self):
        # omega'(omega - omega') over [0, omega] -> omega^3/6, exact for the pair
        omega = 1.3
        res = integrate_finite(lambda w: w * (omega - w), 0.0, omega)
        assert res.value == pytest.approx(omega**3 / 6.0, rel=1e-14)
        # the four initial panels, converged on the first call
        assert res.converged and res.evaluations == 60

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

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 5e-324), (0.0, 1.5e-323), (1.0, 1.0 + 2.2e-16),
        (1e300, float(np.nextafter(1e300, np.inf))),
    ])
    def test_roundoff_wide_range_stays_one_panel(self, lo, hi):
        # quarters of such a range round onto each other, and a zero-width
        # panel would divide by its width; the range is one panel instead
        f = lambda x: 2.0 + np.cos(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_finite(f, lo, hi)
            one_panel = _adaptive(f, [lo, hi], DEFAULT_CONFIG)
        assert _result_bits(res) == _result_bits(one_panel)
        assert res.evaluations == 15

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0)

    def test_tolerance_not_reached_flag(self):
        cfg = QuadratureConfig(rel_tol=1e-15, max_subdivisions=4)
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

    # |f| rises faster than e^(0.45 x) across each gap between the four
    # outermost nodes of the first call
    @pytest.mark.parametrize("f", [
        lambda w: np.exp(0.6 * w),
        lambda w: w * np.exp(0.5 * w),
    ], ids=["exp(0.6w)", "w exp(0.5w)"])
    def test_growth_bound_guard_on_slower_exponentials(self, f):
        with pytest.raises(GrowthBoundExceeded):
            integrate_thermal(f, 1.0)

    @pytest.mark.parametrize("rate, trips", [(0.46, True), (0.44, False)])
    def test_growth_guard_threshold_is_045(self, rate, trips):
        # w e^(rate w) grows at rate + 1/x near x = 700: the guard's documented
        # threshold lies between these two, and not at 0.4 or 0.5
        f = lambda w: w * np.exp(rate * w)
        if trips:
            with pytest.raises(GrowthBoundExceeded):
                integrate_thermal(f, 1.0)
        else:
            res = integrate_thermal(f, 1.0)
            assert res.converged and math.isfinite(res.value)

    @pytest.mark.parametrize("temp", [1e-3, 1.0, 1e3])
    def test_polynomial_growth_passes_the_guard(self, temp):
        # a power grows at the rate 12/x, about 0.02 near x = 700, far below 0.45
        res = integrate_thermal(lambda w: w**12, temp)
        assert res.converged
        assert abs(res.value - bose_moment(12) * temp**13) <= res.error_estimate

    def test_error_bound_statistics(self):
        # the claimed bound must cover the true error in >= 99% of random
        # tolerance settings on the moment oracles
        rng = np.random.default_rng(42)
        exact = {1: bose_moment(1), 3: bose_moment(3)}
        hits = trials = 0
        for _ in range(100):
            rel = 10.0 ** rng.uniform(-12, -4)
            cfg = QuadratureConfig(rel_tol=rel)
            for k in (1, 3):
                res = integrate_thermal(lambda w, k=k: w**k, 1.0, cfg)
                trials += 1
                hits += abs(res.value - exact[k]) <= max(res.error_estimate, 1e-15)
        assert hits / trials >= 0.99

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            integrate_thermal(lambda w: w, 0.0)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_cutoff_not_finite_and_positive(self, cutoff):
        with pytest.raises(ValueError):
            integrate_thermal(lambda w: w, 1.0, cutoff=cutoff)


def _band(w):
    """A reflection band of width 1 at omega = 0, weighted by omega."""
    return w / (1.0 + w * w)


def _breaks(band, x0=None):
    """The first call's breaks for a band at x = cutoff/T and a peak at x0 in
    (2^-20, 32), as ``integrate_thermal`` builds them."""
    breaks = quadrature._split_breaks(quadrature._split_count(band))
    if x0 is None:
        return breaks
    return quadrature._thermal_breaks(breaks, x0, max(band, 2.0**-20))


class TestThermalBreaks:
    # a band at x = cutoff/T below 1 splits the first panel [0, 0.25] in
    # octaves until it ends in (band/8, band/4], never below 2^-20
    @pytest.mark.parametrize("band", [0.99, 0.5, 0.3, 0.25, 1e-2, 1e-4, 2.0**-17])
    def test_first_panel_ends_between_an_eighth_and_a_quarter_of_the_band(self, band):
        breaks = _breaks(band)
        added = len(breaks) - len(_THERMAL_BREAKS)
        assert breaks[added + 1:] == _THERMAL_BREAKS[1:]
        assert breaks[1:added + 2] == tuple(0.25 * 0.5**k for k in range(added, -1, -1))
        assert band / 8 < breaks[1] <= band / 4

    @pytest.mark.parametrize("band", [2.0**-18, 1e-7, 0.0])
    def test_at_most_18_panels_are_added(self, band):
        breaks = _breaks(band)
        assert breaks[1] == 2.0**-20 and len(breaks) - len(_THERMAL_BREAKS) == 18

    @pytest.mark.parametrize("band", [1.0, 3.0, math.inf])
    def test_a_band_at_x_from_1_splits_nothing(self, band):
        assert _breaks(band) == _THERMAL_BREAKS

    def test_a_narrow_band_converges_on_the_first_call(self):
        # the band at x = 1e-3 sits in [0, 0.25], split 10 times to end at 2^-12
        plain = integrate_thermal(_band, 1e3)
        split = integrate_thermal(_band, 1e3, cutoff=1.0)
        assert split.converged and split.evaluations == 15 * (19 + 10)
        assert plain.evaluations > split.evaluations
        assert abs(split.value - plain.value) <= split.error_estimate + plain.error_estimate

    def test_growth_guard_reads_the_same_outermost_nodes(self):
        with pytest.raises(GrowthBoundExceeded):
            integrate_thermal(lambda w: np.exp(0.9 * w), 1.0, cutoff=1e-3)
        with pytest.raises(GrowthBoundExceeded):
            integrate_thermal(lambda w: np.exp(0.9 * w), 1.0, cutoff=1e-3, peak=20.0)


# a peak at x0 = peak/T in (2^-20, 32) adds x0 and the ladder x0 -+ s 2^k, s =
# max(band, 2^-20), each side while its step is narrower than the panel it
# lands in: at most 1 + 23 + 24 = 48 breaks, since steps stay below 8 left of
# 32 and below 16 right of it, so with the first panel's 18 at most 85 panels
_MAX_PEAK_BREAKS = 48


def _peak_ladder(band, x0):
    """Every point the peak at x0 may add, x0 and x0 -+ s 2^k, mapped to its step."""
    step = max(band, 2.0**-20)
    ladder = {x0 + sign * step * 2.0**k: step * 2.0**k
              for sign in (-1.0, 1.0) for k in range(40)}
    return {**ladder, x0: 0.0}


class TestPeakBreaks:
    def check_breaks(self, band, x0):
        base = _breaks(band)
        breaks = _breaks(band, x0)
        # strictly increasing from 0 to X_UNDERFLOW: no panel of zero width
        assert breaks[0] == 0.0 and breaks[-2:] == (256.0, X_UNDERFLOW)
        assert all(b > a for a, b in zip(breaks, breaks[1:]))
        added = set(breaks) - set(base)
        ladder = _peak_ladder(band, x0)
        assert set(base) <= set(breaks) and added <= ladder.keys()
        assert x0 in breaks and len(added) <= _MAX_PEAK_BREAKS
        # each added step is narrower than the base panel its point lands in
        for x in added:
            i = bisect.bisect_right(base, x)
            assert ladder[x] < base[i] - base[i - 1]
        return breaks, added

    def test_drawn_bands_and_peaks(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.floats(-24.0, 10.0), st.floats(2.0**-20, 32.0, exclude_min=True,
                                                           exclude_max=True))
        def check(log2_band, x0):
            self.check_breaks(2.0**log2_band, x0)

        check()

    @pytest.mark.parametrize("band, x0, shared", [
        (1.0, 2.0, {2.0}),        # the peak is a break
        (1.0, 5.0, {4.0, 6.0}),   # so are x0 -+ 1
        (0.5, 24.5, {24.0}),      # and x0 - 0.5
        (0.25, 1.25, {1.0, 1.5}),
    ])
    def test_points_on_existing_breaks_add_no_empty_panel(self, band, x0, shared):
        breaks, _ = self.check_breaks(band, x0)
        assert shared <= _peak_ladder(band, x0).keys() & set(_breaks(band))

    @pytest.mark.parametrize("band", [20.0, 40.0, 250.0, 300.0, 1e3])
    def test_a_wide_band_leaves_the_last_panel_whole(self, band):
        # T far below the cutoff: x0 + band may land in [256, X_UNDERFLOW],
        # which stays one panel, so the growth guard reads the same nodes
        for x0 in (0.5, 10.0, 31.0):
            self.check_breaks(band, x0)

    def test_the_bound_is_reached(self):
        # below 2^-20 the ladder starts at 2^-20: 23 steps left of 24.1, 24 right
        breaks, added = self.check_breaks(2.0**-21, 24.1)
        assert len(added) == _MAX_PEAK_BREAKS
        assert len(breaks) - 1 == 19 + 18 + _MAX_PEAK_BREAKS

    def test_the_bump_falls_on_its_own_panels(self):
        # x0 = 5 with band 0.1: steps of 0.1 to 0.8 below it (1.6 is not
        # narrower than [3, 4]) and 0.1 to 3.2 above it, where the panels
        # widen (6.4 is not narrower than [8, 12])
        breaks, added = self.check_breaks(0.1, 5.0)
        assert sorted(added) == pytest.approx(
            [4.2, 4.6, 4.8, 4.9, 5.0, 5.1, 5.2, 5.4, 5.8, 6.6, 8.2], abs=1e-15)

    @pytest.mark.parametrize("peak", [None, -3.0, 0.0, -0.0, 5e-324, 2.0**-20,
                                      32.0, 33.0, 1e300])
    @pytest.mark.parametrize("cutoff", [0.01, 0.5, 3.0])
    def test_no_peak_in_range_keeps_the_cutoff_breaks(self, monkeypatch, cutoff, peak):
        # peak <= 2^-20 T, where the first panel's own split covers it and
        # x0 itself could end a panel of roundoff width at 0, or peak >= 32
        # T: the first call's panels are those of the cutoff alone
        calls = recording_gk_panels(monkeypatch)
        temp = 2.0
        integrate_thermal(_band, temp, cutoff=cutoff,
                          peak=None if peak is None else peak * temp)
        with_peak = calls[0]
        calls.clear()
        integrate_thermal(_band, temp, cutoff=cutoff)
        assert with_peak == calls[0]

    @pytest.mark.parametrize("peak", [0.5, 5.0, 31.0])
    def test_no_cutoff_adds_nothing(self, monkeypatch, peak):
        calls = recording_gk_panels(monkeypatch)
        integrate_thermal(_band, 1.0, peak=peak)
        assert calls[0] == list(zip(_THERMAL_BREAKS, _THERMAL_BREAKS[1:]))

    @pytest.mark.parametrize("peak", [math.nan, math.inf, -math.inf])
    def test_rejects_a_peak_that_is_not_finite(self, peak):
        with pytest.raises(ValueError):
            integrate_thermal(lambda w: w, 1.0, cutoff=1.0, peak=peak)

    def test_a_bump_at_the_peak_converges_on_the_first_call(self, monkeypatch):
        # a Lorentzian bump of width 0.05 at omega = 3 (x0 = 3 at T = 1),
        # which the cutoff's breaks alone leave to bisection
        def bump(w):
            return w / ((w - 3.0) ** 2 + 0.0025)

        calls = recording_gk_panels(monkeypatch)
        plain = integrate_thermal(bump, 1.0, cutoff=0.05)
        assert len(calls) > 1
        calls.clear()
        split = integrate_thermal(bump, 1.0, cutoff=0.05, peak=3.0)
        assert split.converged and len(calls) == 1
        assert abs(split.value - plain.value) <= split.error_estimate + plain.error_estimate


def _halving_loop_breaks(band):
    """The first panel's split as the halving loop that built it before the ladder."""
    ends = [0.25]
    while ends[-1] > 0.25 * band and ends[-1] > 2.0**-20:
        ends.append(0.5 * ends[-1])
    return (0.0, *ends[:0:-1], *_THERMAL_BREAKS[1:])


class TestSplitCount:
    # the split count k comes from the band's exponent in O(1), not from a
    # loop of halvings; the breaks must be the loop's, bit for bit
    @pytest.mark.parametrize("band", [
        0.0, 5e-324, float(np.nextafter(2.0**-18, 0.0)), 2.0**-18,
        float(np.nextafter(2.0**-18, 1.0)), 2.0**-17, 0.5,
        float(np.nextafter(1.0, 0.0)), 1.0, math.inf, 1e300])
    def test_edges_match_the_halving_loop(self, band):
        assert _breaks(band) == _halving_loop_breaks(band)
        assert 0 <= quadrature._split_count(band) <= 18

    def test_drawn_bands_match_the_halving_loop(self):
        # log-uniform over 2^-30 to 2^10, every split count from 0 to 18
        rng = np.random.default_rng(28)
        bands = 2.0 ** rng.uniform(-30.0, 10.0, 10**5)
        counts = set()
        for band in bands.tolist():
            breaks = _breaks(band)
            assert breaks == _halving_loop_breaks(band), band
            counts.add(len(breaks) - len(_THERMAL_BREAKS))
        assert counts == set(range(19))


_ULP_BANDS = (0.0, 5e-324, float(np.nextafter(2.0**-18, 0.0)), 2.0**-18,
              float(np.nextafter(2.0**-18, 1.0)), 1.0, math.inf)


class TestOneLadder:
    # the split and the peak's breaks come from one ladder rule; they must be
    # the floats, in order, that the two rules before it gave (the oracle)

    def test_drawn_bands_and_peaks_match_the_two_rules(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.floats(-30.0, 12.0), st.floats(2.0**-20, 32.0, exclude_min=True,
                                                           exclude_max=True))
        def check(log2_band, x0):
            band = 2.0**log2_band
            assert _breaks(band) == oracles.thermal_breaks_two_rules(band)
            assert _breaks(band, x0) == oracles.thermal_breaks_two_rules(band, x0)

        check()

    @pytest.mark.parametrize("x0", [
        float(np.nextafter(2.0**-20, 1.0)), float(np.nextafter(32.0, 0.0)),
        0.25, 2.0, 24.0, 2.0**-16])  # next to the range's ends, or on a break
    @pytest.mark.parametrize("band", _ULP_BANDS)
    def test_edges_match_the_two_rules(self, band, x0):
        assert _breaks(band) == oracles.thermal_breaks_two_rules(band)
        assert _breaks(band, x0) == oracles.thermal_breaks_two_rules(band, x0)

    @pytest.mark.parametrize("peak", [None, 0.0, 2.0**-20, 1e-3, 3.0, 24.0,
                                      float(np.nextafter(32.0, 0.0)), 32.0, 1e3])
    @pytest.mark.parametrize("cutoff", [1e-7, 0.01, 1.0, 1e3])
    def test_first_call_panels_match_the_two_rules(self, monkeypatch, cutoff, peak):
        # through integrate_thermal itself, so its gate on the peak is checked too
        calls = recording_gk_panels(monkeypatch)
        integrate_thermal(_band, 1.0, cutoff=cutoff, peak=peak)
        breaks = oracles.thermal_breaks_two_rules(cutoff, peak)
        assert calls[0] == list(zip(breaks, breaks[1:]))


class TestThermalRules:
    # without a peak, a thermal integral starts on one of 19 breakpoint sets;
    # each one's nodes and Bose weights are built once per process

    @pytest.mark.parametrize("k", [0, 7, 18])
    def test_cached_arrays_are_read_only(self, k):
        for array in quadrature._cached_rule(k):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_at_most_19_rules(self):
        quadrature._cached_rule.cache_clear()
        model = weak_mirror()
        for k in range(-12, 9):
            compute_coefficients(model, 10.0 ** (k / 2) * model.cutoff_frequency)
        assert 0 < quadrature._cached_rule.cache_info().currsize <= 19
        # every band lands on one of the 19, from the least double to one
        # that overflows to inf
        for band in (*(2.0 ** -k for k in range(-4, 40)), 5e-324):
            integrate_thermal(_band, 1.0, cutoff=band)
        integrate_thermal(_band, 1e-10, cutoff=1e300)
        integrate_thermal(_band, 1.0)
        assert quadrature._cached_rule.cache_info().currsize == 19

    def test_chi_with_a_peak_adds_no_rule(self):
        quadrature._cached_rule.cache_clear()
        model = LorentzianMirror(1.0)
        # |omega|/T in (2^-20, 32): the peak's breaks are built per call
        for omega, temp in ((1e-3, 1.0), (0.4, 0.05), (2.5, 1.0), (-3.0, 20.0)):
            chi_total(model, omega, temp)
        assert quadrature._cached_rule.cache_info().currsize == 0
        # beyond 32 T the peak adds nothing, and the call takes a cached rule
        chi_total(model, 40.0, 1.0)
        assert quadrature._cached_rule.cache_info().currsize == 1

    def test_hoisted_growth_factors_equal_the_per_call_ones(self):
        # the last panel is [256, X_UNDERFLOW] in every rule, with a peak too
        rules = [quadrature._cached_rule(k) for k in range(19)]
        rules.append(quadrature._thermal_rule(_breaks(0.1, 5.0),
                                              quadrature.occupation_from_ratio))
        for _, x, _ in rules:
            fall = np.exp(-quadrature._GROWTH_RATE * np.diff(x[-quadrature._GROWTH_NODES:]))
            assert fall.tobytes() == quadrature._GROWTH_FALL.tobytes()

    @pytest.mark.parametrize("peak", [None, 20.0], ids=["cached", "peak"])
    def test_growth_guard_fires_on_both_paths(self, peak):
        quadrature._cached_rule.cache_clear()
        for _ in range(2):  # a cold cache, then a warm one
            with pytest.raises(GrowthBoundExceeded):
                integrate_thermal(lambda w: np.exp(0.9 * w), 1.0, cutoff=1e-3, peak=peak)
        assert quadrature._cached_rule.cache_info().currsize == (1 if peak is None else 0)



class TestGrowthGuard:
    # the guard on the four edge values as Python numbers gives the verdict
    # of oracles.growth_guard_on_arrays, the same test on numpy arrays
    SPECIALS = (0.0, -0.0, 5e-324, 1e-310, 1e308, math.inf, -math.inf, math.nan,
                complex(math.inf, 1.0), complex(1.0, -math.inf), complex(math.nan, 0.0),
                complex(0.0, math.nan), complex(math.inf, math.nan))

    @staticmethod
    def check(edge):
        verdict = oracles.growth_guard_on_arrays(edge)
        assert quadrature._grows_at_edge(np.array(edge).tolist()) is verdict
        return verdict

    def test_drawn_edges(self):
        # values growing at rates around the guard's 0.45 over the edge nodes,
        # from subnormal to near overflow, real or complex; every fourth draw
        # puts a special value in a random position
        rng = np.random.default_rng(53)
        x = quadrature._cached_rule(0)[1][-quadrature._GROWTH_NODES:]
        verdicts = []
        for draw in range(4000):
            scale = 10.0 ** rng.uniform(-323.0, 290.0)
            edge = scale * np.exp(rng.uniform(0.3, 0.6) * (x - x[0]))
            edge = edge * rng.choice((-1.0, 1.0), edge.size)
            if draw % 2:
                edge = edge * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, edge.size))
            edge = edge.tolist()
            if draw % 4 == 0:
                edge[rng.integers(4)] = self.SPECIALS[rng.integers(len(self.SPECIALS))]
            verdicts.append(self.check(edge))
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("position", range(4))
    def test_special_values_in_each_position(self, position):
        x = quadrature._cached_rule(0)[1][-quadrature._GROWTH_NODES:]
        for rate in (0.0, 0.9):  # a flat edge and one the guard rejects
            for special in self.SPECIALS:
                edge = np.exp(rate * (x - x[0])).tolist()
                edge[position] = special
                self.check(edge)
                self.check([1j * value for value in edge])


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
    # a jump inside a panel four ulps wide: both halves of the first split
    # are too narrow to split again, so they freeze and nothing is left,
    # while the half with the jump keeps an error above its rounding floor
    "roundoff_frozen": (lambda x: np.where(x < 1.0 + 2.0 * _EPS, 1.0, 2.0),
                        [1.0, 1.0 + 4.0 * _EPS], DEFAULT_CONFIG),
    # the worst panels are frozen above their floor, and the others must
    # still be halved until the budget runs out
    "frozen_worst": (lambda x: np.where(x < 1.0 + 2.0 * _EPS, 1e40,
                                        np.sqrt(np.abs(x - 1.0))),
                     [1.0, 1.0 + 4.0 * _EPS, 2.0],
                     QuadratureConfig(rel_tol=1e-16, max_subdivisions=20)),
    # a tolerance below the rounding floor: the peak is halved until every
    # panel that is left misses the tolerance only by its floor
    "floor_stop": (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), [0.0, 1.0],
                   QuadratureConfig(rel_tol=1e-16)),
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
        # stopped on the floor: the claimed error misses the tolerance, the
        # budget of 200 panels is not spent
        f, breakpoints, cfg = _DRIVER_CASES["floor_stop"]
        floored = _adaptive(f, breakpoints, cfg)
        assert floored.converged and floored.evaluations == 795
        assert floored.error_estimate > cfg.rel_tol * abs(floored.value)

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
        self.assert_one_call_per_round(sizes, 4, res.evaluations)
        assert sizes == [60, 60, 90, 60, 90, 60]

    def test_thermal_one_call_per_step(self):
        g, sizes = self.recording(lambda w: w**3 / (1.0 + (w - 2.0) ** 2))
        res = integrate_thermal(g, 0.7)
        # one call of the 19 initial panels, which this peak needs no more than
        assert sizes == [285] == [15 * (len(_THERMAL_BREAKS) - 1)]
        assert res.converged and res.evaluations == sum(sizes)

    def test_thermal_rounds_one_call_each(self):
        g, sizes = self.recording(lambda w: w**3 / (1e-2 + (w - 2.0) ** 2))
        res = integrate_thermal(g, 0.7)
        # a narrower peak: then each round's halves share one call
        assert sizes == [285, 90, 60, 30]
        assert res.converged and res.evaluations == sum(sizes)

    def test_peak_halves_several_panels_per_call(self):
        g, sizes = self.recording(_DRIVER_CASES["sharp_peak"][0])
        res = _adaptive(g, [0.0, 1.0], DEFAULT_CONFIG)
        halvings = (res.evaluations - 15) // 30
        assert res.converged and len(sizes) - 1 < halvings

    def test_nan_integrand_finite(self):
        g, sizes = self.recording(_nan)
        res = integrate_finite(g, 0.0, 1.0)
        assert math.isnan(res.value) and not res.converged
        assert sizes == [60] and res.evaluations == 60

    def test_growth_guard_stops_at_the_first_panel_call(self):
        g, sizes = self.recording(lambda w: np.exp(0.9 * w))
        with pytest.raises(GrowthBoundExceeded):
            integrate_thermal(g, 1.0)
        assert sizes == [285]

    def test_nan_integrand_thermal(self):
        g, sizes = self.recording(_nan)
        res = integrate_thermal(g, 1.0)
        assert math.isnan(res.value) and not res.converged
        assert sizes == [285] and res.evaluations == 285


def test_a_panel_at_its_floor_is_never_halved():
    # once bisection has shrunk the sqrt panels, the constant panel at its
    # rounding floor is the worst while the tolerance is still missed; it
    # stays whole, as in the per-panel driver (halving it made 2220
    # evaluations instead of 330)
    f = lambda x: np.where(x < 1.0, 1e6, 1e-4 * np.sqrt(np.abs(x - 1.0)))  # noqa: E731
    cfg = QuadratureConfig(rel_tol=1e-16)
    res = _adaptive(f, [0.0, 1.0, 2.0], cfg)
    assert res.converged and res.evaluations == 330
    assert res.evaluations == adaptive_per_panel(f, [0.0, 1.0, 2.0], cfg).evaluations


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
        assert hilbert_transform_pv(g)[2048] == pytest.approx(0.0, abs=1e-12)

    def test_odd_lorentzian_pair(self):
        # residue oracle: (1/pi) PV int [w'/(1+w'^2)]/w' dw' = 1
        grid = np.linspace(-200.0, 200.0, 8193)
        g = grid / (1.0 + grid**2)
        assert hilbert_transform_pv(g)[4096] == pytest.approx(1.0, rel=2e-2)

    def test_pair_value_off_center(self):
        # analytic pair: H[w'/(1+w'^2)](w) = 1/(1+w^2) under this sign convention
        grid = np.linspace(-400.0, 400.0, 16385)
        g = grid / (1.0 + grid**2)
        at = 8192 + 41  # omega = 2.0024...
        omega = grid[at]
        assert hilbert_transform_pv(g)[at] == pytest.approx(
            1.0 / (1.0 + omega**2), rel=3e-2)

    def test_zero_input(self):
        assert hilbert_transform_pv(np.zeros(128))[64] == 0.0

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            hilbert_transform_pv(np.zeros(63))[10]

    @pytest.mark.parametrize("n", [64, 1024, 4097])
    @pytest.mark.parametrize("samples", ["random", "lorentzian-pair"])
    def test_whole_grid_matches_per_point_sums(self, n, samples):
        if samples == "random":
            g = np.random.default_rng(n).standard_normal(n)
        else:
            grid = np.linspace(-40.0, 40.0, n)
            g = grid / (1.0 + grid**2)
        reference = np.array([oracles.hilbert_transform_pv_at(g, at) for at in range(n)])
        gap = np.max(np.abs(hilbert_transform_pv(g) - reference))
        assert gap <= 1e-15 * np.max(np.abs(reference))


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
    @pytest.mark.parametrize("name", ["rel_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerance(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize("name", ["rel_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-10])
    def test_rejects_non_positive_tolerance(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            QuadratureConfig(**{name: value})

    def test_absolute_tolerance_is_retired(self):
        # the tolerance is relative only; a roundoff stop replaces the floor
        with pytest.raises(TypeError, match="abs_tol"):
            QuadratureConfig(abs_tol=1e-14)

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

    def test_budget_below_the_initial_panels_only_stops_bisection(self):
        # the initial 4 (finite) or 19 (thermal) panels are always evaluated;
        # a budget below them leaves no room to halve any panel
        cfg = QuadratureConfig(max_subdivisions=1)
        res = integrate_finite(lambda x: np.exp(-50.0 * x**2), -3.0, 3.0, cfg)
        assert (res.evaluations, res.converged) == (4 * 15, False)
        # 19 panels of 15 nodes, the integrand's only nodes
        res = integrate_thermal(lambda w: w**3, 1.0, cfg)
        assert (res.evaluations, res.converged) == (19 * 15, True)

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

    @pytest.mark.parametrize("values", [[], [1.0], [1.0, 0.5]])
    def test_rejects_fewer_than_three_values(self, values):
        with pytest.raises(ValueError, match="at least three samples"):
            richardson_extrapolate(values, 1)

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
    # the sums overflow: an error of inf - inf, which min(1.0, nan) turns
    # into resasc = inf, not NaN
    "overflow": lambda x: np.full_like(x, 1e308),
}


def _within_two_ulps(x, y):
    """x == y as _same does, or |x - y| at most two ulps of the larger."""
    return _same(x, y) or abs(x - y) <= 2.0 * np.spacing(max(abs(x), abs(y)))


class TestStackedReduction:
    # _gk_panels reduces all its panels as one stack of dots; every panel's
    # value and floor must come out bit for bit as a lone panel's reduction;
    # its error takes r ** 1.5 as r sqrt(r), two roundings where pow has one,
    # so it may move by up to two ulps after the product with resasc

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("count", [1, 2, 5, 8, 16])
    @pytest.mark.parametrize("name", _PANEL_INTEGRANDS)
    def test_each_panel_equals_a_lone_panel(self, name, count):
        f = _PANEL_INTEGRANDS[name]
        ends = np.linspace(0.0, 1.0, count + 1) ** 1.5
        stacked = _gk_panels(f(_gk_nodes(ends[:-1], ends[1:])), ends[:-1], ends[1:])
        assert all(part.shape == (count,) for part in stacked)
        for a, b, value, err, floor in zip(ends[:-1], ends[1:], *stacked):
            lone_value, lone_err, lone_floor = oracles.gk_panel_per_call(f, a, b)
            assert _same(value, lone_value), (name, a, b, value, lone_value)
            assert _within_two_ulps(err, lone_err), (name, a, b, err, lone_err)
            assert _same(floor, lone_floor), (name, a, b, floor, lone_floor)

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


def _bits(value):
    """Exact hex of every part of a float or complex value (so -0.0 != 0.0)."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _result_bits(res):
    return (_bits(res.value), _bits(res.error_estimate), res.evaluations, res.converged)


class TestWholeDriver:
    # the array driver against the row-wise one it replaced, frozen in
    # tests/oracles.py: it sums its panels pairwise in interval order, not
    # left to right in error order, so every quadrature must make the same
    # evaluations and reach the same converged flag, and its value and error
    # must stay within the error that the row-wise driver claims

    @staticmethod
    def assert_close(result, reference):
        assert result.evaluations == reference.evaluations
        assert result.converged == reference.converged
        claim = reference.error_estimate
        assert abs(result.value - reference.value) <= claim, (result, reference)
        assert abs(result.error_estimate - claim) <= claim, (result, reference)

    @classmethod
    def compare_drivers(cls, compute):
        """Run compute() on each driver and compare every quadrature it makes."""
        def rowwise(f, breakpoints, cfg, first=None):
            # the row-wise driver makes the first call itself, on the same nodes
            return oracles.adaptive_rowwise(f, breakpoints, cfg)

        runs = []
        for driver in (quadrature._adaptive, rowwise):
            results = []

            def recorded(*args, driver=driver, results=results):
                results.append(driver(*args))
                return results[-1]

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quadrature, "_adaptive", recorded)
                compute()
            runs.append(results)
        array, rowwise = runs
        assert len(array) == len(rowwise) > 0
        for result, reference in zip(array, rowwise):
            cls.assert_close(result, reference)

    @pytest.mark.parametrize("temp_per_cutoff", [1e-2, 1.0, 30.0])
    @pytest.mark.parametrize("name", ["weak", "resonant"])
    def test_coefficients_match_the_rowwise_driver(self, name, temp_per_cutoff):
        model = weak_mirror() if name == "weak" else resonant_mirror()
        temp = temp_per_cutoff * model.cutoff_frequency
        self.compare_drivers(lambda: compute_coefficients(model, temp))

    @pytest.mark.parametrize("name", ["lorentzian", "resonant"])
    def test_chi_matches_the_rowwise_driver(self, name):
        model = LorentzianMirror(0.7) if name == "lorentzian" else resonant_mirror()
        points = [(omega, temp) for omega in (-3.0, 1e-3, 0.4, 2.5, 40.0)
                  for temp in (0.0, 0.05, 1.0, 20.0)]
        self.compare_drivers(lambda: [chi_total(model, w, t) for w, t in points])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_adaptive_matches_the_rowwise_driver_on_drawn_integrands(self):
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
            self.assert_close(_adaptive(f, breakpoints, cfg),
                              oracles.adaptive_rowwise(f, breakpoints, cfg))

        check()
