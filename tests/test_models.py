import struct

import numpy as np
import pytest

import oracles
from conftest import ORACLE_RTOL, separated_denominator, weak_mirror
from test_coefficients import SHARING_MODELS, resonant_mirror, sharing_model
from thermaldrag import (LorentzianMirror, MirrorModel, RationalMirror, UnitSystem,
                         ValidationFailed, b_function, compute_coefficients,
                         reflection_probability, validate_model)
from thermaldrag.config import _VALIDATION_GRID, build_model
from thermaldrag.models import reflection_and_delay


def b_function_derivative(model, omega):
    """db/domega = 2 (-2 R' tau + (1 - 2 R) tau') from the one kernel pass."""
    big_r, d_big_r, tau, d_tau = reflection_and_delay(model, omega, order=2)
    return 2.0 * (-2.0 * d_big_r * tau + (1.0 - 2.0 * big_r) * d_tau)


class TestReflectionProbability:
    def test_lorentzian_at_cutoff(self, lorentzian):
        assert reflection_probability(lorentzian, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_perfect_everywhere(self, perfect):
        for w in (-3.0, 0.0, 42.0):
            assert reflection_probability(perfect, w) == 1.0

    def test_lorentzian_closed_form_point(self):
        # tau0 = 2, omega = 3: R = 1/(1 + 36) = 1/37
        model = LorentzianMirror(2.0)
        assert reflection_probability(model, 3.0) == pytest.approx(1.0 / 37.0,
                                                                   rel=1e-14)

    def test_even(self, lorentzian):
        rng = np.random.default_rng(3)
        for w in rng.uniform(0.01, 20.0, 20):
            assert reflection_probability(lorentzian, -w) == pytest.approx(
                reflection_probability(lorentzian, w), rel=1e-14)

    def test_lorentzian_rational_identity(self, lorentzian):
        # R (1 + w^2 tau0^2) = 1 to 1e-12
        for w in np.geomspace(1e-3, 1e3, 50):
            assert reflection_probability(lorentzian, w) * (1 + w**2) == (
                pytest.approx(1.0, rel=1e-12))

    def test_derivative_matches_closed_form(self, lorentzian):
        for w in (0.1, 1.0, 7.0):
            assert reflection_and_delay(lorentzian, w)[1] == (
                pytest.approx(float(oracles.lorentzian_dR(w)), rel=1e-12))


class TestScatteringDelay:
    def test_lorentzian_at_zero(self):
        model = LorentzianMirror(0.7)
        assert reflection_and_delay(model, 0.0)[2] == pytest.approx(0.7, rel=1e-13)

    def test_perfect_is_zero(self, perfect):
        for w in (0.0, 1.0, -5.0):
            assert reflection_and_delay(perfect, w)[2] == 0.0

    def test_lorentzian_closed_form(self, lorentzian):
        assert reflection_and_delay(lorentzian, 1.0)[2] == pytest.approx(0.5, rel=1e-13)
        for w in np.geomspace(1e-3, 1e3, 30):
            assert reflection_and_delay(lorentzian, w)[2] * (1 + w**2) == pytest.approx(
                1.0, rel=1e-12)

    def test_even(self, lorentzian):
        for w in (0.2, 1.7, 9.0):
            assert reflection_and_delay(lorentzian, -w)[2] == pytest.approx(
                reflection_and_delay(lorentzian, w)[2], rel=1e-13)

    def test_delay_derivative_closed_form(self, lorentzian):
        for w in (0.1, 0.9, 3.0):
            assert reflection_and_delay(lorentzian, w, order=2)[3] == pytest.approx(
                float(oracles.lorentzian_dtau(w)), rel=1e-11)


class TestAlphaKernel:
    def test_perfect_is_two(self, perfect):
        assert perfect.alpha(np.array((0.4, -7.0))) == pytest.approx(2.0 + 0.0j)

    def test_swap_symmetric_exactly(self, lorentzian):
        rng = np.random.default_rng(5)
        for _ in range(25):
            w1, w2 = rng.uniform(-10, 10, 2)
            assert (lorentzian.alpha(np.array((w1, w2)))
                    == lorentzian.alpha(np.array((w2, w1))))

    def test_value_at_unit_frequencies(self, lorentzian):
        # direct complex arithmetic vs the independent rational closed form
        value = lorentzian.alpha(np.array((1.0, 1.0)))
        assert value == pytest.approx(1.0 + 1.0j, rel=1e-14)
        # alpha(w, w') = (2 - i(w + w')) / (1 - i(w + w') - w w') for tau0 = 1
        closed = (2.0 - 2.0j) / (1.0 - 2.0j - 1.0)
        assert value == pytest.approx(closed, rel=1e-14)

    def test_opposite_arguments_give_2R(self, lorentzian):
        for w in (0.25, 1.0, 6.0):
            value = lorentzian.alpha(np.array((w, -w)))
            assert value.imag == pytest.approx(0.0, abs=1e-14)
            assert value.real == pytest.approx(
                2.0 * reflection_probability(lorentzian, w), rel=1e-13)


_QUARTIC_DEN = "1, -2.846039006404553, 3.0049690129881075, -1.4159747548929151, 0.25"
# configs in user units with hbar = 1.5: their poles and residues scale into
# natural units, their constants do not
CONFIG_MODELS = {
    "lorentzian_hbar=1.5": {"kind": "lorentzian", "tau0": "0.7"},
    "quartic_hbar=1.5": {"kind": "rational", "r_numerator": "0, 0.3, 0, 0.05",
                         "r_denominator": _QUARTIC_DEN,
                         "s_numerator": "1, 0, -1, 0, 0.25", "s_denominator": _QUARTIC_DEN},
}


def alpha_model(request, name):
    if name in CONFIG_MODELS:
        return build_model(CONFIG_MODELS[name], UnitSystem(hbar=1.5, c=2.0))[0]
    return sharing_model(request, name)


ALPHA_MODELS = [*SHARING_MODELS, *CONFIG_MODELS]
# r and s share their residues, so alpha takes the pole form
SHARED_RESIDUE_MODELS = ["perfect", "tau0=0.3", "tau0=1", "tau0=3", "lorentzian_hbar=1.5"]


def alpha_pairs():
    """(2, 2, n) frequency pairs like the thermal chi integrand's, both signs, 1e-4 to 1e4."""
    rng = np.random.default_rng(17)
    return 10.0 ** rng.uniform(-4.0, 4.0, (2, 2, 64)) * rng.choice((-1.0, 1.0), (2, 2, 64))


class TestPoleAlpha:
    # the pole-residue alpha of the mirrors whose r and s share their
    # residues against the generic 1 + r1 r2 - s1 s2 of MirrorModel, which
    # every other mirror uses as it is
    @pytest.mark.parametrize("name", SHARED_RESIDUE_MODELS)
    def test_matches_generic_formula(self, request, name):
        model = alpha_model(request, name)
        pair = alpha_pairs()
        (r1, r2), (s1, s2) = model.amplitudes(pair)
        generic = MirrorModel.alpha(model, pair)
        value = model.alpha(pair)
        assert value.shape == generic.shape == pair.shape[1:]
        scale = 1.0 + np.abs(r1 * r2) + np.abs(s1 * s2)
        assert np.all(np.abs(value - generic) <= 8.0 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("name", sorted(set(ALPHA_MODELS) - set(SHARED_RESIDUE_MODELS)))
    def test_other_mirrors_take_generic_formula(self, request, name):
        model = alpha_model(request, name)
        pair = alpha_pairs()
        assert np.array_equal(model.alpha(pair), MirrorModel.alpha(model, pair))

    @pytest.mark.parametrize("name", ALPHA_MODELS)
    def test_swap_symmetric_exactly(self, request, name):
        model = alpha_model(request, name)
        pair = alpha_pairs()
        for w1, w2 in zip(pair[0].ravel()[:40], pair[1].ravel()):
            assert model.alpha(np.array((w1, w2))) == model.alpha(np.array((w2, w1)))
        # numpy's vectorized complex product may round a * b and b * a
        # differently (fused multiply-adds), so only the product-free pole
        # form is symmetric bit for bit on arrays
        if name in SHARED_RESIDUE_MODELS:
            assert np.array_equal(model.alpha(pair), model.alpha(pair[::-1]))

    # complex poles too: each conjugate pair is summed before the running sum
    @pytest.mark.parametrize("name", ALPHA_MODELS)
    def test_conjugate_under_reflection_exactly(self, request, name):
        model = alpha_model(request, name)
        pair = alpha_pairs()
        assert np.array_equal(model.alpha(-pair), np.conj(model.alpha(pair)))

    def test_perfect_is_two_exactly(self, perfect):
        assert np.all(perfect.alpha(alpha_pairs()) == 2.0)
        assert perfect.alpha(np.array((0.4, -7.0))) == 2.0

    @pytest.mark.parametrize("name", ALPHA_MODELS)
    def test_scalar_pair_gives_scalar(self, request, name):
        value = alpha_model(request, name).alpha(np.array((0.4, -7.0)))
        assert np.ndim(value) == 0 and isinstance(value, complex)


class TestKernelFunctions:
    # the viscosity kernel a = alpha[w, -w] reduces to 2 R, which is how
    # the integrals evaluate it
    def test_a_perfect(self, perfect):
        assert 2.0 * reflection_probability(perfect, 3.0) == pytest.approx(2.0)

    def test_a_lorentzian_at_cutoff(self, lorentzian):
        assert 2.0 * reflection_probability(lorentzian, 1.0) == pytest.approx(
            1.0, rel=1e-13)

    def test_a_amplitude_form_identity(self, lorentzian):
        rng = np.random.default_rng(17)
        for w in rng.uniform(-20, 20, 50):
            direct = oracles.a_function_from_amplitudes(lorentzian, w)
            assert abs(direct - 2.0 * reflection_probability(lorentzian, w)) < 1e-12
            assert abs(direct.imag) < 1e-12

    def test_b_perfect_is_zero(self, perfect):
        for w in (0.0, 1.0, 10.0):
            assert b_function(perfect, w) == 0.0

    def test_b_lorentzian_values(self, lorentzian):
        assert b_function(lorentzian, 0.0) == pytest.approx(-2.0, rel=1e-13)
        assert b_function(lorentzian, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_b_amplitude_form_identity(self, lorentzian):
        rng = np.random.default_rng(23)
        for w in rng.uniform(-20, 20, 50):
            direct = oracles.b_function_from_amplitudes(lorentzian, w)
            assert abs(direct - b_function(lorentzian, w)) < 1e-12
            assert abs(direct.imag) < 1e-12

    def test_b_even_and_derivative_odd(self, lorentzian):
        for w in (0.3, 2.0):
            assert b_function(lorentzian, -w) == pytest.approx(
                b_function(lorentzian, w), rel=1e-12)
            assert b_function_derivative(lorentzian, -w) == pytest.approx(
                -b_function_derivative(lorentzian, w), rel=1e-11)


class TestModelContract:
    def test_repr_names_the_construction(self, perfect):
        assert repr(perfect) == "PerfectMirror()"
        assert repr(LorentzianMirror(2.0)) == "LorentzianMirror(tau0=2.0)"
        assert repr(RationalMirror([-1.0], [1.0, -1.0], [0.0, -1.0], [1.0, -1.0])) == (
            "RationalMirror(r_num=[-1.0], r_den=[1.0, -1.0], "
            "s_num=[0.0, -1.0], s_den=[1.0, -1.0])")
        model, _ = build_model({"kind": "lorentzian", "tau0": "2.0"}, UnitSystem(hbar=0.5))
        assert repr(model) == ("LorentzianMirror(tau0=2.0)._in_natural_units("
                               "UnitSystem(hbar=0.5, c=1.0))")

    def test_model_without_amplitudes_rejected(self):
        class NoAmplitudes(MirrorModel):
            low_frequency_reflection = 1.0
            low_frequency_delay = 1.0
            cutoff_frequency = 1.0

        with pytest.raises(TypeError, match="amplitudes"):
            NoAmplitudes()

    def test_two_declared_members_suffice(self):
        # R0 and tau0 are derived from the amplitudes, not declared
        class InlineLorentzian(MirrorModel):
            # r = g/(z - g) and s = 1 + g/(z - g) with g = 1/tau0, z = i omega,
            # in the shipped models' order of operations
            tau0 = 0.8
            cutoff_frequency = 1.0 / tau0

            def amplitudes(self, omega, order=0):
                g = self.cutoff_frequency
                inv = np.reciprocal(1j * np.asarray(omega) - g)
                d = -1j * (0.0 + g * inv * inv)
                d2 = -2.0 * (0.0 + g * inv * inv * inv)
                return (0.0 + g * inv, 1.0 + g * inv, d, d, d2, d2)[:2 * order + 2]

        model = InlineLorentzian()
        assert compute_coefficients(model, 1.0) == compute_coefficients(
            LorentzianMirror(0.8), 1.0)
        assert model.low_frequency_reflection == 1.0
        assert model.low_frequency_delay == 0.8

    def test_delay_free_mirror_prints_zero_delay(self, perfect):
        # the delay algebra gives -0.0 here, which model-info would print as -0
        rational_perfect = RationalMirror(r_num=[-1.0], r_den=[1.0],
                                          s_num=[0.0], s_den=[1.0])
        for model in (perfect, rational_perfect):
            assert str(model.low_frequency_delay) == "0.0"

    @pytest.mark.parametrize("name", SHARING_MODELS)
    def test_r_and_s_bit_identical_at_every_order(self, request, name):
        model = sharing_model(request, name)
        omega = np.random.default_rng(37).uniform(-50.0, 50.0, 64)
        r, s = model.amplitudes(omega)
        for order in (1, 2):
            values = model.amplitudes(omega, order)
            assert len(values) == 2 * order + 2
            # bytes, not ==, so that a zero's sign counts too
            assert [a.tobytes() for a in values[:2]] == [r.tobytes(), s.tobytes()]

    @pytest.mark.parametrize("fixture", ["perfect", "lorentzian", "weak"])
    def test_scalar_in_scalar_out_array_in_array_out(self, fixture, request):
        # the .17g CLI output relies on scalars staying complex/float instances
        model = request.getfixturevalue(fixture)
        pairs = [lambda w, order=order: model.amplitudes(w, order) for order in range(3)]
        kernels = (reflection_probability, b_function)
        grid = np.array([[0.0, 0.5, 2.0], [-1.0, 3.0, 40.0]])
        cases = [(complex, m(0.5), m(grid)) for m in pairs]
        cases += [(float, (k(model, 0.5),), (k(model, grid),)) for k in kernels]
        cases.append((float, reflection_and_delay(model, 0.5, order=2),
                      reflection_and_delay(model, grid, order=2)))
        for kind, scalars, arrays in cases:
            for scalar, array in zip(scalars, arrays, strict=True):
                assert isinstance(scalar, kind), type(scalar)
                assert isinstance(array, np.ndarray) and array.shape == grid.shape


class TestReality:
    @pytest.mark.parametrize("fixture", ["lorentzian", "perfect", "weak"])
    def test_negative_frequency_conjugation(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(29)
        for w in rng.uniform(0.01, 50.0, 40):
            r_p, s_p = model.amplitudes(w)
            r_m, s_m = model.amplitudes(-w)
            assert abs(r_m - r_p.conjugate()) < 1e-12
            assert abs(s_m - s_p.conjugate()) < 1e-12

    @pytest.mark.parametrize("fixture", ["lorentzian", "weak"])
    def test_real_poles_join_the_sum_one_at_a_time(self, fixture, request):
        # a real pole is a group of its own, so real-pole mirrors round as
        # a plain running sum over their poles
        model = request.getfixturevalue(fixture)
        omega = np.random.default_rng(31).uniform(-50.0, 50.0, 64)
        z = 1j * omega
        r, s = model._constants
        for group in model._poles:
            assert len(group) == 1
            p, rho_r, rho_s = group[0]
            inv = np.reciprocal(z - p)
            r, s = r + rho_r * inv, s + rho_s * inv
        ours = model.amplitudes(omega)
        assert np.array_equal(ours[0], r) and np.array_equal(ours[1], s)

    def test_complex_pole_mirrors_exactly(self):
        # a conjugate pair's two terms are added together before the running
        # sum takes them, so reality holds bit for bit; added one pole at a
        # time, 179 of these 230 mirrors missed it in r, s or alpha.  Every
        # other mirror gives s a denominator of its own, so that r's and s's
        # pole pairs are built from two denominators' roots
        rng = np.random.default_rng(1)
        mirrors = 0
        while mirrors < 230:
            den = separated_denominator(rng, int(rng.integers(2, 5)))
            if np.all(np.isreal(np.roots(den[::-1]))):
                continue
            s_den = den if mirrors % 2 else separated_denominator(rng, int(rng.integers(1, 5)))
            mirrors += 1
            model = RationalMirror(rng.normal(size=int(rng.integers(1, den.size + 1))), den,
                                   rng.normal(size=int(rng.integers(1, s_den.size + 1))),
                                   s_den, cutoff=1.0)
            omega = 10.0 ** rng.uniform(-3.0, 3.0, 64)
            pair = np.array((omega, 0.7 * omega[::-1]))
            assert np.all(model.alpha(-pair) == np.conj(model.alpha(pair)))
            # r and s are even under the reflection, r' and s' odd, r'' and s'' even
            for minus, plus, sign in zip(model.amplitudes(-omega, 2), model.amplitudes(omega, 2),
                                         (1.0, 1.0, -1.0, -1.0, 1.0, 1.0), strict=True):
                assert np.all(minus == sign * np.conj(plus))


class TestValidation:
    def test_lorentzian_clean(self, lorentzian):
        grid = np.geomspace(1e-3, 1e3, 1000)
        report = validate_model(lorentzian, grid)
        assert report.passed
        for check in report.checks:
            if check.name != "transparency":
                assert check.max_violation < 1e-12

    def test_perfect_skips_transparency(self, perfect):
        report = validate_model(perfect, np.geomspace(1e-3, 1e3, 100))
        assert report.passed
        assert all(c.name != "transparency" for c in report.checks)

    def test_corrupted_transmission_fails(self):
        # lorentzian with s scaled by 1.01 breaks |s|^2 + |r|^2 = 1
        bad = RationalMirror(r_num=[-1.0], r_den=[1.0, -1.0],
                             s_num=[0.0, -1.01], s_den=[1.0, -1.0])
        report = validate_model(bad, np.geomspace(1e-3, 1e3, 200))
        assert not report["unitarity_modulus"].passed
        with pytest.raises(ValidationFailed) as excinfo:
            report.raise_for_failure()
        assert "unitarity_modulus" in str(excinfo.value)

    def test_unknown_check_name_raises_key_error(self, lorentzian):
        report = validate_model(lorentzian, np.geomspace(1e-3, 1e3, 10))
        assert report["reality"].name == "reality"
        with pytest.raises(KeyError, match="no_such_check"):
            report["no_such_check"]

    def test_empty_grid_rejected(self, lorentzian):
        with pytest.raises(ValueError):
            validate_model(lorentzian, [])


class TestRationalMirror:
    def test_reproduces_lorentzian(self, lorentzian, rational_lorentzian):
        for w in (-2.0, 0.0, 0.5, 10.0):
            r_a, s_a = lorentzian.amplitudes(w)
            r_b, s_b = rational_lorentzian.amplitudes(w)
            assert abs(r_a - r_b) < 1e-14 and abs(s_a - s_b) < 1e-14
        assert rational_lorentzian.low_frequency_reflection == pytest.approx(1.0)
        assert rational_lorentzian.low_frequency_delay == pytest.approx(1.0, rel=1e-12)
        assert rational_lorentzian.cutoff_frequency == pytest.approx(1.0)

    def test_reproduces_lorentzian_derivatives(self, lorentzian, rational_lorentzian):
        for w in (-1.5, 0.2, 3.0):
            da = lorentzian.amplitudes(w, 2)[2:]
            db = rational_lorentzian.amplitudes(w, 2)[2:]
            for a, b in zip(da, db, strict=True):
                assert abs(a - b) < 1e-13

    def test_weak_mirror_is_unitary(self, weak):
        grid = np.geomspace(1e-3, 1e3, 500)
        report = validate_model(weak, grid)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_weak_mirror_small_reflection(self, weak):
        for w in np.geomspace(1e-2, 1e2, 50):
            assert reflection_probability(weak, w) < 0.03

    def test_unimodular_determinant(self, weak):
        for w in (0.1, 1.0, 5.0):
            r, s = weak.amplitudes(w)
            assert abs(s * s - r * r) == pytest.approx(1.0, rel=1e-12)

    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError):
            RationalMirror(r_num=[], r_den=[1.0], s_num=[1.0], s_den=[1.0])
        with pytest.raises(ValueError):
            RationalMirror(r_num=[1.0], r_den=[1.0, 0.0], s_num=[1.0],
                           s_den=[1.0], cutoff=1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_table_bit_identical_to_per_polynomial_oracle(self, seed):
        # named for the coefficient table the pole-residue form replaced:
        # type, shape and dtype still match the per-polynomial quotient
        # exactly, and values agree to ORACLE_RTOL of each quantity's peak
        rng = np.random.default_rng(seed)
        coeffs = []
        for _ in "rs":
            den = separated_denominator(rng, int(rng.integers(0, 5)))
            coeffs += [rng.normal(size=int(rng.integers(1, den.size + 1))), den]
        model = RationalMirror(*coeffs, cutoff=1.0)
        oracle = oracles.PerPolynomialRational(*coeffs)
        for shape in ((9,), (2, 9), ()):
            omega = 3.0 * rng.normal(size=shape)
            for order in range(3):
                ours, reference = model.amplitudes(omega, order), oracle.amplitudes(omega, order)
                assert len(ours) == len(reference)
                for a, b in zip(ours, reference):
                    assert type(a) is type(b)
                    assert np.shape(a) == np.shape(b) and a.dtype == b.dtype
                    assert np.max(np.abs(a - b)) <= ORACLE_RTOL * max(np.max(np.abs(b)), 1.0)

    @pytest.mark.parametrize("coeffs, message", [
        (([0.0, 0.0, 1.0], [1.0, -1.0], [1.0], [1.0, -1.0]), "r is improper"),
        (([0.0], [1.0], [1.0, 2.0], [1.0]), "s is improper"),
        (([0.0, 1.0], [1.0, -2.0, 1.0], [1.0], [1.0, -2.0, 1.0]), "r has a repeated"),
        # poles 1 and 1.001, a relative separation of 1e-3
        (([0.0], [1.0], [1.0], [1.001, -2.001, 1.0]), "s has a repeated"),
        (([-1.0], [1.0, -1.0], [0.0, -1.0], [1.0, -1.0], np.inf),
         "cutoff must be finite and > 0, got inf"),
    ], ids=["improper-r", "improper-s", "double-pole", "near-double-pole",
            "infinite-cutoff"])
    def test_constructor_rejections(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            RationalMirror(*coeffs)

    def test_trailing_zero_numerator_is_proper(self, rational_lorentzian):
        padded = RationalMirror(r_num=[-1.0, 0.0], r_den=[1.0, -1.0],
                                s_num=[0.0, -1.0, 0.0, 0.0], s_den=[1.0, -1.0])
        grid = np.linspace(-5.0, 5.0, 11)
        for a, b in zip(padded.amplitudes(grid, 2), rational_lorentzian.amplitudes(grid, 2),
                        strict=True):
            assert np.array_equal(a, b)

    def test_custom_epsilon_family_unitary(self):
        for eps in (0.05, 0.5, 0.9):
            model = weak_mirror(epsilon=eps, tau=2.0)
            report = validate_model(model, np.geomspace(1e-3, 1e3, 200))
            assert report.passed


def bits(x):
    """The bytes of a float or complex number: signed zeros and NaNs count."""
    return struct.pack("dd", x.real, x.imag)


class TestScalarConstruction:
    # RationalMirror's poles, residues, constants, groups, cutoff and repr
    # against oracles.numpy_rational_parts, the same construction on numpy
    # arrays: bit for bit, except the residues of a denominator with complex
    # roots, which numpy's vectorized complex arithmetic rounds differently
    # from CPython's, real ones included
    PAIR_RTOL = 1e-13

    def compare(self, coeffs, cutoff=None):
        """Assert the match; return the worst pair residue deviation, relative."""
        model = RationalMirror(*coeffs, cutoff=cutoff)
        constants, groups, oracle_cutoff, text = oracles.numpy_rational_parts(
            *coeffs, cutoff=cutoff)
        assert repr(model) == text
        assert [bits(c) for c in model._constants] == [bits(c) for c in constants]
        assert (model._cutoff is None) == (oracle_cutoff is None)
        if oracle_cutoff is not None:
            assert bits(model._cutoff) == bits(oracle_cutoff)
        groups = tuple(groups) or (((1.0, 0.0, 0.0),),)
        assert [len(group) for group in model._poles] == [len(group) for group in groups]
        scale = max(abs(rho) for group in groups for _, *rhos in group for rho in rhos)
        # per column, r's and s's: whether that denominator has complex roots
        mixed = [np.iscomplexobj(np.roots(np.asarray(den, dtype=float)[::-1]))
                 for den in coeffs[1:4:2]]
        worst = 0.0
        for ours, theirs in zip(model._poles, groups):
            for (p, *rhos), (q, *oracle_rhos) in zip(ours, theirs):
                # a real pole stays a float, a complex one a complex number
                assert isinstance(p, complex) == isinstance(q, complex)
                assert bits(p) == bits(q)
                for rho, oracle_rho, complex_roots in zip(rhos, oracle_rhos, mixed, strict=True):
                    assert isinstance(rho, complex) == isinstance(oracle_rho, complex)
                    if len(theirs) == 1 and not complex_roots:
                        assert bits(rho) == bits(oracle_rho)
                    else:
                        worst = max(worst, abs(rho - oracle_rho) / scale)
        assert worst <= self.PAIR_RTOL
        return worst

    def test_drawn_denominators(self):
        # degrees 0-6; every other draw gives s a denominator of its own, and
        # every third leaves the cutoff to the constructor
        rng = np.random.default_rng(41)
        pairs = 0
        for draw in range(3000):
            r_den = separated_denominator(rng, int(rng.integers(0, 7)))
            s_den = (r_den if draw % 2 else
                     separated_denominator(rng, int(rng.integers(0, 7))))
            coeffs = [rng.normal(size=int(rng.integers(1, r_den.size + 1))), r_den,
                      rng.normal(size=int(rng.integers(1, s_den.size + 1))), s_den]
            if draw % 3:
                coeffs = [c.tolist() for c in coeffs]
            pairs += self.compare(coeffs, None if draw % 3 else 1.0) > 0.0
        assert pairs > 0  # the pairs' residues round differently, within PAIR_RTOL

    @pytest.mark.parametrize("coeffs", [
        # ascending denominators with a zero constant term: a pole at z = 0,
        # among real poles and beside a complex pair
        ([1.0, 0.5], [0.0, 2.0, -3.0, 1.0], [0.3], [0.0, 2.0, -3.0, 1.0]),
        ([0.3, 0.5, 0.2], [0.0, 0.7, 0.7, 0.7], [0.3], [2.0, 1.0]),
        # a constant denominator: no poles at all
        ([0.5], [2.5], [1.0], [4.0]),
        # integers, negative zeros and a numerator padded with zeros
        ([1, -0.0, 0.0], [2, -3, 1], [-0.0], [1, 1]),
    ], ids=["zero-pole-real", "zero-pole-complex", "constant", "integers"])
    def test_special_denominators(self, coeffs):
        self.compare(coeffs)

    @pytest.mark.parametrize("coeffs", [
        ([0.0, 0.0, 1.0], [1.0, -1.0], [1.0], [1.0, -1.0]),
        ([0.0], [1.0], [1.0, 2.0], [1.0]),
        ([0.0, 1.0], [1.0, -2.0, 1.0], [1.0], [1.0, -2.0, 1.0]),
        ([0.0], [1.0], [1.0], [1.001, -2.001, 1.0]),
        ([0.0], [0.0, 0.0, 1.0], [1.0], [1.0]),
        ([0.0], [0.0, 0.0, 1.0, 1.0, 1.0], [1.0], [1.0]),
        ([0.0], [1.0], [1.0], np.real(np.poly([1 + 1j, 1 - 1j, 1.001 + 1j, 1.001 - 1j]))[::-1]),
        ([-1.0], [1.0, -1.0], [0.0, -1.0], [1.0, -1.0], np.inf),
        ([-1.0], [1.0, -1.0], [0.0, -1.0], [1.0, -1.0], -1.0),
        ([1.0], [1.0, 0.0], [1.0], [1.0]),
        ([[1.0]], [1.0], [1.0], [1.0]),
        ([1.0], np.ones((2, 1)), [1.0], [1.0]),
        ([1.0], [1.0], 1.0, [1.0]),
        ([1.0], [1.0], [1.0], np.float64(1.0)),
        ([], [1.0], [1.0], [1.0]),
        ([1.0], [1.0], np.array([]), [1.0]),
        ([np.nan], [1.0], [1.0], [1.0]),
        ([1.0], [1.0, np.inf], [1.0], [1.0]),
        ([1.0], [1.0], [1.0], [-np.inf, 1.0]),
        ("12", [1.0], [1.0], [1.0]),
        ([1.0], b"12", [1.0], [1.0]),
    ], ids=["improper-r", "improper-s", "double-pole", "near-double-pole", "double-zero-pole",
            "double-zero-pole-beside-a-pair", "near-double-complex-pairs", "infinite-cutoff",
            "negative-cutoff", "zero-leading-coefficient", "nested-list", "2-d-array", "scalar",
            "0-d-array", "empty-list", "empty-array", "nan", "inf", "minus-inf", "string",
            "bytes"])
    def test_rejections_match_the_oracle(self, coeffs):
        with pytest.raises(ValueError) as expected:
            oracles.numpy_rational_parts(*coeffs)
        with pytest.raises(ValueError) as raised:
            RationalMirror(*coeffs)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("coeffs", [{1.0, 2.0}, {1.0: 2.0}, (c for c in [1.0]), range(1, 3)],
                             ids=["set", "dict", "generator", "range"])
    def test_only_lists_tuples_and_arrays_are_coefficients(self, coeffs):
        # numpy read a set, dict or generator as an object and raised
        # TypeError, and read a range as a list; all now raise ValueError
        with pytest.raises(ValueError, match="^r_den must be a non-empty 1-D finite"):
            RationalMirror([1.0], coeffs, [1.0], [1.0])


class TestValidationOracle:
    # validate_model against oracles.numpy_validate_model, the same checks
    # reduced with numpy's functions: every CheckResult field bit for bit

    @staticmethod
    def compare(model, grid):
        ours, theirs = validate_model(model, grid), oracles.numpy_validate_model(model, grid)
        assert [c.name for c in ours.checks] == [c.name for c in theirs.checks]
        for a, b in zip(ours.checks, theirs.checks):
            for field in ("max_violation", "worst_omega", "allowed"):
                value, expected = getattr(a, field), getattr(b, field)
                assert type(value) is type(expected) is float
                assert bits(value) == bits(expected)

    @pytest.mark.parametrize("fixture", ["lorentzian", "perfect", "rational_lorentzian",
                                         "weak", "transparent_model"])
    def test_fixtures(self, fixture, request):
        model = request.getfixturevalue(fixture)
        for grid in ((model.cutoff_frequency or 1.0) * _VALIDATION_GRID,
                     np.geomspace(1e-3, 1e3, 200), [0.5]):
            self.compare(model, grid)

    def test_corrupted_transmission(self):
        bad = RationalMirror(r_num=[-1.0], r_den=[1.0, -1.0],
                             s_num=[0.0, -1.01], s_den=[1.0, -1.0])
        self.compare(bad, np.geomspace(1e-3, 1e3, 200))

    def test_drawn_mirrors(self):
        # weak and resonant mirrors, and quartic denominators with random
        # numerators, which need not be unitary, in natural units of hbar = 1.5
        rng = np.random.default_rng(43)
        for draw in range(50):
            kind = draw % 3
            if kind == 0:
                model = weak_mirror(rng.uniform(0.05, 0.9), rng.uniform(0.3, 3.0))
            elif kind == 1:
                b = rng.uniform(0.3, 3.0)
                model = resonant_mirror(rng.uniform(0.01, 1.9) * np.sqrt(b), b)
            else:
                den = separated_denominator(rng, 4)
                model = RationalMirror(rng.normal(size=4), den, rng.normal(size=5), den)
            for m in (model, model._in_natural_units(UnitSystem(hbar=1.5))):
                self.compare(m, m.cutoff_frequency * _VALIDATION_GRID)

    @pytest.mark.parametrize("grid", [[], np.array([]), [1.0, np.nan], [np.inf], [-np.inf]])
    def test_bad_grids_raise(self, lorentzian, grid):
        with pytest.raises(ValueError, match="validation grid must be non-empty and finite"):
            oracles.numpy_validate_model(lorentzian, grid)
        with pytest.raises(ValueError, match="validation grid must be non-empty and finite"):
            validate_model(lorentzian, grid)


class TestExactReality:
    # a pole mirror declares exact reality, so validate_model takes its
    # reality check as 0 without evaluating -omega; any other model keeps
    # the evaluated check

    class Twisted(MirrorModel):
        """Unitary, but r[-omega] = r[omega] = -exp(i omega^2) is not conj r[omega]."""

        cutoff_frequency = None

        def amplitudes(self, omega, order=0):
            r = -np.exp(1j * np.square(omega))
            return r, np.zeros_like(r)

    def test_a_user_model_keeps_the_evaluated_check(self):
        assert not self.Twisted.exact_reality
        grid = np.linspace(0.1, 1.2, 12)
        report = validate_model(self.Twisted(), grid)
        # |r[-w] - conj r[w]| = 2 |sin w^2|, which grows up to the grid's top
        assert report["reality"].max_violation == pytest.approx(2.0 * np.sin(1.2 ** 2))
        assert report["reality"].worst_omega == 1.2
        assert [c.name for c in report.checks if not c.passed] == ["reality"]
        with pytest.raises(ValidationFailed, match="reality"):
            report.raise_for_failure()

    @pytest.mark.parametrize("fixture", ["lorentzian", "perfect", "rational_lorentzian",
                                         "weak", "transparent_model"])
    def test_pole_mirrors_evaluate_the_grid_and_probe_once(self, fixture, request,
                                                           monkeypatch):
        model = request.getfixturevalue(fixture)
        assert model.exact_reality
        grid = (model.cutoff_frequency or 1.0) * _VALIDATION_GRID
        calls = []
        evaluate = type(model).amplitudes

        def counted(self, omega, order=0):
            calls.append(np.shape(omega))
            return evaluate(self, omega, order)

        monkeypatch.setattr(type(model), "amplitudes", counted)
        report = validate_model(model, grid)
        # 400 grid frequencies and 3 transparency probes; no probe without a cutoff
        assert calls == [(403,) if model.cutoff_frequency is not None else (400,)]
        reality = report["reality"]
        assert (reality.max_violation, reality.worst_omega) == (0.0, float(grid[0]))
        assert type(reality.max_violation) is type(reality.worst_omega) is float
