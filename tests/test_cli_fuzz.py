"""The CLI's exit-code contract under drawn extreme configs.

Every request runs ``cli.main`` in-process.  Whatever the config, no
exception escapes and the exit code is one of the README's table; a
request that exits 0 prints no ``inf`` or ``nan``; and no warning is
raised but the ``RegimeViolation`` that ``force`` emits by design.  An
overflow at an extreme but valid input is judged by a gate, a
``converged`` flag or a validation check, never printed as a numpy
warning.  Python prints a warning once per location, so the warnings are
recorded with the "always" filter.
"""

import contextlib
import io
import re
import warnings

import pytest

from thermaldrag import cli
from thermaldrag.errors import RegimeViolation

# the README's exit codes: ok, config error, route/non-finite/unconverged,
# model validation failure, verify failure
EXIT_CODES = {0, 2, 3, 4, 5}
NON_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)
VOCABULARY = ("0", "1", "-1", "2.5", "5e-324", "1e-300", "1e-20", "1e-8", "1e8",
              "-1e8", "1e150", "1e300", "-1e300", "1e308", "nan", "inf", "-inf")
# ordinary values, drawn as often as the whole vocabulary, so that most
# requests get past the config checks to the numbers
MILD = ("1", "0.5", "2.5", "1e-3", "30")
PERFECT = {"kind": "perfect"}


def run_request(tmp_path, command, settings, model, trajectory=None):
    """(exit code, stdout, recorded warnings) of one request from its config."""
    if trajectory is not None:
        path = tmp_path / "trajectory.csv"
        path.write_text(trajectory)
        settings = {**settings, "trajectory": str(path)}
    config = tmp_path / "request.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items())
                      + "[model]\n"
                      + "".join(f"{key} = {value}\n" for key, value in model.items()))
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(config)])
    return code, out.getvalue(), caught


def assert_contract(command, code, out, caught):
    assert code in EXIT_CODES
    if code == 0:
        assert not NON_FINITE.search(out), out
    allowed = (RegimeViolation,) if command == "force" else ()
    stray = [f"{w.category.__name__}: {w.message} ({w.filename}:{w.lineno})"
             for w in caught if not issubclass(w.category, allowed)]
    assert stray == []


# extreme but valid inputs that printed numpy warnings before their
# products were taken under np.errstate; each keeps its exit code
RATIONAL_OVERFLOW = {"kind": "rational", "r_numerator": "0, 0.3",
                     "r_denominator": "1, -5.008991914547277, 6.25",
                     "s_numerator": "1, 0, -1e300",
                     "s_denominator": "1, -5.008991914547277, 6.25"}
RATIONAL_POLE_AT_ZERO = {"kind": "rational", "r_numerator": "0, 1e300",
                         "r_denominator": "1, 1e300, 1e300",
                         "s_numerator": "1, 0, 1e300",
                         "s_denominator": "1, 1e300, 1e300"}
FIXED_CASES = {
    "coeffs-perfect-1e-300": ("coeffs", {"temperature": "1e-300"}, PERFECT, None, 3),
    "sweep-perfect-1e-300-to-1e300": (
        "sweep", {"temp_min": "1e-300", "temp_max": "1e300", "count": "3"}, PERFECT,
        None, 3),
    "coeffs-perfect-1e308": ("coeffs", {"temperature": "1e308"}, PERFECT, None, 3),
    "chi-perfect-1e308": (
        "chi", {"temperature": "1e308", "omega_min": "-1", "omega_max": "2.5",
                "omega_count": "1"}, PERFECT, None, 3),
    "verify-lorentzian-tau0-1e200": (
        "verify", {"temperature": "1"}, {"kind": "lorentzian", "tau0": "1e200"}, None, 5),
    "force-displacement-1e308": (
        "force", {"temperature": "1e3"}, {"kind": "lorentzian", "tau0": "1e-3"},
        "0,0\n1,1e308\n2,-1e308\n", 3),
    "model-info-rational-s-1e300": ("model-info", {}, RATIONAL_OVERFLOW, None, 4),
    # found by the fuzz: a pole at omega = 0 makes R0 NaN; a displacement
    # that overflows in natural units; a frequency that overflows chi's
    # integrals; and verify's dispersion window 40 T, which overflows at
    # T = 1e308 (a ValueError traceback before) or puts |omega|/T there
    "model-info-rational-pole-at-zero": (
        "model-info", {}, RATIONAL_POLE_AT_ZERO, None, 3),
    "force-c-1e-20": ("force", {"temperature": "1", "c": "1e-20"}, PERFECT,
                      "0,1\n1,1\n2,1e300\n", 3),
    "chi-omega-1e308": (
        "chi", {"temperature": "1", "omega_min": "1", "omega_max": "1e308",
                "omega_count": "3"}, {"kind": "lorentzian", "tau0": "1"}, None, 3),
    "verify-lorentzian-1e308": (
        "verify", {"temperature": "1e308", "kk_points": "64"},
        {"kind": "lorentzian", "tau0": "1"}, None, 5),
    "verify-lorentzian-1e-300": (
        "verify", {"temperature": "1e-300", "kk_points": "64"},
        {"kind": "lorentzian", "tau0": "1e-8"}, None, 5),
    # found by a fuzz of verify: the Einstein ladder's start 0.1 T, which
    # underflows to 0 (a ValueError traceback before); the T^2 of a
    # low-temperature law at T = 1e-3 cutoff = 1e297 (an OverflowError);
    # that T, which underflows to 0 at cutoff = 5e-324 (a ValueError); and
    # R0 and tau0 at omega = 0, which overflow or meet a pole there (numpy
    # warnings).  Each line that cannot be evaluated FAILs
    "verify-lorentzian-5e-324": (
        "verify", {"temperature": "5e-324", "kk_points": "64"},
        {"kind": "lorentzian", "tau0": "2.5"}, None, 5),
    "verify-lorentzian-tau0-1e-300": (
        "verify", {"temperature": "1", "kk_points": "64"},
        {"kind": "lorentzian", "tau0": "1e-300"}, None, 5),
    "verify-rational-cutoff-5e-324": (
        "verify", {"temperature": "2.5", "kk_points": "64"},
        {"kind": "rational", "r_numerator": "5e-324, 1", "r_denominator": "1, 0.5",
         "s_numerator": "1, 30", "s_denominator": "1, 0.5", "cutoff": "5e-324"}, None, 5),
    "verify-lorentzian-tau0-1e308": (
        "verify", {"temperature": "2.5", "kk_points": "64"},
        {"kind": "lorentzian", "tau0": "1e308"}, None, 5),
    "verify-rational-pole-at-zero": (
        "verify", {"temperature": "2.5", "kk_points": "64"}, RATIONAL_POLE_AT_ZERO, None, 5),
}


@pytest.mark.parametrize("case", FIXED_CASES)
def test_fixed_extreme_case(tmp_path, case):
    command, settings, model, trajectory, expected = FIXED_CASES[case]
    code, out, caught = run_request(tmp_path, command, settings, model, trajectory)
    assert code == expected
    assert_contract(command, code, out, caught)


def test_drawn_configs_keep_the_contract(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.one_of(st.sampled_from(MILD), st.sampled_from(VOCABULARY))

    @st.composite
    def requests(draw):
        command = draw(st.sampled_from(("coeffs", "sweep", "chi", "force", "model-info",
                                        "verify")))
        settings = {key: draw(value) for key in ("hbar", "c") if draw(st.booleans())}
        if command in ("coeffs", "chi", "force", "verify"):
            settings["temperature"] = draw(value)
        if command == "verify":
            settings["kk_points"] = "64"  # the smallest dispersion grid
        if command == "sweep":
            settings.update(temp_min=draw(value), temp_max=draw(value),
                            count=draw(st.integers(0, 5)))
        if command == "chi":
            settings.update(omega_min=draw(value), omega_max=draw(value),
                            omega_count=draw(st.integers(0, 5)))
        trajectory = None
        if command == "force":
            step = float(draw(value))
            trajectory = "".join(f"{k * step!r},{draw(value)}\n" for k in range(3))
        kind = draw(st.sampled_from(("perfect", "lorentzian", "rational")))
        model = {"kind": kind}
        if kind == "lorentzian":
            model["tau0"] = draw(value)
        elif kind == "rational":
            # one shared denominator, as the weak mirrors have
            den = f"1, {draw(value)}, {draw(value)}"
            model.update(r_numerator=f"0, {draw(value)}", r_denominator=den,
                         s_numerator=f"1, 0, {draw(value)}", s_denominator=den)
        return command, settings, model, trajectory

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(requests())
    def check(request):
        command, settings, model, trajectory = request
        code, out, caught = run_request(tmp_path, command, settings, model, trajectory)
        assert_contract(command, code, out, caught)

    check()
