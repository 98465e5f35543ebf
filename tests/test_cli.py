import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import weak_mirror
from thermaldrag import UnitSystem, cli
from thermaldrag.config import MAIN_KEYS, parse_config
from thermaldrag.errors import ConfigError, ThermalDragError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def lorentzian_config(tmp_path, extra=""):
    return write(tmp_path, "run.cfg",
                 "temperature = 1.0\n" + extra + "\n[model]\nkind = lorentzian\ntau0 = 1.0\n")


def weak_rational_config(tmp_path, extra=""):
    """Weak rational mirror (epsilon = 0.3, tau = 1) from the spectral factor."""
    eps, root = 0.3, math.sqrt(0.09 + 4.0)
    return write(tmp_path, "weak.cfg", f"""
temperature = 1.0
{extra}
[model]
kind = rational
r_numerator = 0, {eps}
r_denominator = 1, {-root}, 1
s_numerator = 1, 0, -1
s_denominator = 1, {-root}, 1
""")



def quartic_rational_config(tmp_path):
    """Rational mirror, r of degree 3 over 4 and s of degree 4 over 4; hbar = 1.5, c = 2.

    r = (0.3 z + 0.05 z^3) / D and s = (1 - z^2 + 0.25 z^4) / D, with D the
    spectral factor of s_num^2 - r_num^2 (roots in Re z > 0), so the mirror
    is unitary up to the rounding of D's printed coefficients.
    """
    den = "1, -2.846039006404553, 3.0049690129881075, -1.4159747548929151, 0.25"
    return write(tmp_path, "quartic.cfg", f"""
temperature = 1.0
hbar = 1.5
c = 2
omega_min = -2
omega_max = 3
omega_count = 6
[model]
kind = rational
r_numerator = 0, 0.3, 0, 0.05
r_denominator = {den}
s_numerator = 1, 0, -1, 0, 0.25
s_denominator = {den}
""")


def narrow_band_config(tmp_path, temp):
    """Unitary mirror with a reflection band of width 1/300 at omega = 1."""
    return write(tmp_path, "narrow.cfg", f"""temperature = {temp!r}
[model]
kind = rational
r_numerator = 0, -0.0033333333333333335
r_denominator = 1, -0.0033333333333333335, 1
s_numerator = 1, 0, 1
s_denominator = 1, -0.0033333333333333335, 1
""")


def run(args):
    return cli.main(args)


class TestConfigParsing:
    def test_minimal(self, tmp_path):
        cfg = parse_config(lorentzian_config(tmp_path))
        assert cfg.model_kind == "lorentzian"
        assert cfg.units == UnitSystem()
        assert cfg.quadrature.rel_tol == 1e-10
        assert cfg.get("temperature") == 1.0

    def test_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "c.cfg", """
# leading comment
temperature = 2.0   # trailing comment

[model]
kind = perfect
""")
        cfg = parse_config(path)
        assert cfg.get("temperature") == 2.0
        assert cfg.model_kind == "perfect"

    def test_a_hash_inside_a_value_is_part_of_it(self, tmp_path, capsys):
        # '#' starts a comment only at a line's start or after whitespace, so
        # run#3.csv is read whole, not as a file named run (which exists here)
        traj = "t,q\n" + "".join(f"{t},{1e-4 * t}\n" for t in range(0, 400, 50))
        write(tmp_path, "run", "t,q\n" + "".join(f"{t},0\n" for t in range(0, 400, 50)))
        printed = []
        for name in ("run3.csv", "run#3.csv"):
            path = lorentzian_config(tmp_path, f"trajectory = {write(tmp_path, name, traj)}\n")
            assert run(["force", "--config", path]) == 0
            out, err = capsys.readouterr()
            printed.append(out)
            assert err == ""
        assert printed[0] == printed[1] != ""

    def test_a_hash_glued_to_a_number_is_not_a_comment(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", "temperature = 1.0\n[model]\nkind = lorentzian\n"
                                        "tau0 = 1.0#x\n")
        assert run(["coeffs", "--config", path]) == 2
        assert "key 'tau0' is not a number: '1.0#x'" in capsys.readouterr().err

    def test_missing_model_section(self, tmp_path):
        path = write(tmp_path, "c.cfg", "temperature = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "c.cfg",
                     "temperature = 1\ntemperature = 2\n[model]\nkind = perfect\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_line_rejected(self, tmp_path):
        path = write(tmp_path, "c.cfg", "just words\n[model]\nkind = perfect\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_rational_model_roundtrip(self, tmp_path):
        path = write(tmp_path, "c.cfg", """
temperature = 1.0
[model]
kind = rational
r_numerator = -1
r_denominator = 1, -1
s_numerator = 0, -1
s_denominator = 1, -1
""")
        cfg = parse_config(path)
        r, s = cfg.model.amplitudes(1.0)
        assert r == pytest.approx(-1.0 / (1.0 - 1.0j))
        assert s == pytest.approx(-1.0j / (1.0 - 1.0j))

    def test_getters_refuse_an_undeclared_key(self, tmp_path):
        # a reader of a key outside MAIN_KEYS is a program error, not a config one
        cfg = parse_config(lorentzian_config(tmp_path))
        for getter in (cfg.get, cfg.require):
            with pytest.raises(KeyError, match="'omega_cout' is not declared"):
                getter("omega_cout")
        assert cfg.get("omega_count") is None

    @pytest.mark.parametrize("key", MAIN_KEYS)
    def test_each_key_is_read_as_declared(self, tmp_path, key):
        # the readers follow MAIN_KEYS: a key added there is tested here
        cfg = parse_config(lorentzian_config(tmp_path, "hbar = 7\n"))

        def read(raw):
            return dataclasses.replace(cfg, settings={key: raw}).get(key)

        kind = MAIN_KEYS[key]
        if kind == "string":
            assert read("2.5 abc") == "2.5 abc"
        else:
            with pytest.raises(ConfigError, match=f"key '{key}' is not a number: 'abc'"):
                read("abc")
        if kind == "int":
            with pytest.raises(ConfigError, match=f"key '{key}' is not an integer: '2.5'"):
                read("2.5")
            assert read("3") == 3 and type(read("3")) is int
        if kind in ("float", "frequency"):
            assert read("2.5") == 2.5
        if kind == "frequency":
            with pytest.raises(ConfigError, match=f"key '{key}' = 1e\\+308 is not finite "
                                                  r"in natural units \(hbar = 7.0\)"):
                read("1e308")
        unset = dataclasses.replace(cfg, settings={})
        assert unset.get(key) is None and unset.get(key, "default") == "default"
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            unset.require(key)
        with pytest.raises(KeyError, match="is not declared"):
            cfg.get(key.upper())

    def test_integer_key_in_exponent_form(self, tmp_path):
        cfg = parse_config(lorentzian_config(tmp_path, "max_subdivisions = 1e3\n"))
        assert cfg.quadrature.max_subdivisions == 1000

    @pytest.mark.parametrize("settings", [
        "temperature = nan", "temperature = inf",
        "temperature = 1.0\nmax_subdivisions = inf",
    ], ids=["nan-temperature", "inf-temperature", "inf-max_subdivisions"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, settings):
        path = write(tmp_path, "c.cfg",
                     settings + "\n[model]\nkind = lorentzian\ntau0 = 1.0\n")
        assert run(["coeffs", "--config", path]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, settings", [
        ("sweep", "temp_min = 0.5\ntemp_max = 2.0\ncount = 1e300"),
        ("chi", "omega_min = 0\nomega_max = 1\nomega_count = 1e300"),
        ("verify", "kk_points = 1e300"),
    ], ids=["count", "omega_count", "kk_points"])
    def test_huge_integer_key_exits_2(self, tmp_path, capsys, command, settings):
        assert run([command, "--config", lorentzian_config(tmp_path, settings)]) == 2
        assert "exceeds 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("tau0", ["0", "-1", "1e-320"])
    @pytest.mark.parametrize("hbar", ["1", "1.5"])
    def test_non_positive_tau0_exits_2(self, tmp_path, capsys, tau0, hbar):
        path = write(tmp_path, "c.cfg",
                     f"temperature = 1.0\nhbar = {hbar}\n"
                     f"[model]\nkind = lorentzian\ntau0 = {tau0}\n")
        assert run(["coeffs", "--config", path]) == 2
        err = capsys.readouterr().err
        # the key and the value as written, whatever the unit system
        assert f"model key 'tau0' = {tau0}: tau0 must be finite and > 0" in err

    def test_model_validated_once_per_request(self, tmp_path, monkeypatch):
        from thermaldrag import config, models
        original = models.validate_model
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # patch every namespace that looks the name up
        for module in (cli, config, models):
            if hasattr(module, "validate_model"):
                monkeypatch.setattr(module, "validate_model", counting)
        assert run(["coeffs", "--config", weak_rational_config(tmp_path)]) == 0
        assert len(calls) == 1


class TestCoeffsCommand:
    def test_perfect_mirror_output(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg",
                     "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "2.0943951" in out  # 2 pi/3
        assert "route_discrepancy_lambda" in out

    def test_high_temperature_lorentzian(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg",
                     "temperature = 100.0\n[model]\nkind = lorentzian\ntau0 = 1.0\n")
        assert run(["coeffs", "--config", path]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("lambda_spectral")][0]
        value = float(line.split("=")[1].split("+/-")[0])
        assert value == pytest.approx(100.0, rel=0.02)

    def test_corrupted_rational_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", """
temperature = 1.0
[model]
kind = rational
r_numerator = -1
r_denominator = 1, -1
s_numerator = 0, -1.01
s_denominator = 1, -1
""")
        assert run(["coeffs", "--config", path]) == 4
        assert "unitarity" in capsys.readouterr().err

    def test_missing_temperature_exits_2(self, tmp_path):
        path = write(tmp_path, "c.cfg", "[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 2

    def test_route_discrepancy_gate_exits_3(self, tmp_path, capsys):
        # an impossible tolerance trips the scriptable cross-check gate
        path = lorentzian_config(tmp_path)
        assert run(["coeffs", "--config", path, "--tol", "1e-18"]) == 3
        assert "exceeds tolerance" in capsys.readouterr().err

    def test_nan_reflection_trips_route_gate(self, tmp_path, capsys, monkeypatch):
        # NaN coefficients give NaN route discrepancies, never a pass; every
        # integrand reads R from the one kernel pass
        from thermaldrag import models
        true_kernels = models.reflection_and_delay

        def nan_reflection_above_3(model, omega, order=1):
            big_r, *rest = true_kernels(model, omega, order)
            return (np.where(np.asarray(omega) > 3.0, np.nan, big_r), *rest)

        monkeypatch.setattr(models, "reflection_and_delay", nan_reflection_above_3)
        assert run(["coeffs", "--config", lorentzian_config(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "route_discrepancy_lambda = nan" in captured.out
        assert "route discrepancy nan exceeds tolerance" in captured.err

    # at these temperatures the band sits at x = omega/T = 40-50
    @pytest.mark.parametrize("temp", [0.019952623149688799, 0.025118864315095808])
    def test_narrow_band_mirror_passes_the_growth_guard(self, tmp_path, capsys, temp):
        assert run(["coeffs", "--config", narrow_band_config(tmp_path, temp)]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(" = ") for line in out.splitlines())
        for name in ("route_discrepancy_lambda", "route_discrepancy_mu"):
            assert float(fields[name]) <= 1e-6

    # the five temperatures of the 483 from 1e-3 to 10 (log-spaced) where an
    # absolute quadrature tolerance of 1e-14 stopped one lambda route above
    # 1e-6 of lambda = 1e-10, inside its claim, and the route gate exited 3
    @pytest.mark.parametrize("temp", [0.027269969192078098, 0.028332321263905846,
                                      0.02943605922497197, 0.030003949321170256,
                                      0.030582795339113882])
    def test_narrow_band_routes_agree_where_lambda_is_tiny(self, tmp_path, capsys, temp):
        assert run(["coeffs", "--config", narrow_band_config(tmp_path, temp)]) == 0
        fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        for name in ("route_discrepancy_lambda", "route_discrepancy_mu"):
            assert float(fields[name]) <= 1e-6

    def test_narrow_band_at_the_domain_edge_passes_the_growth_guard(self, tmp_path):
        # steps of 2.5e-7 in T move the band (x = 1/T = 692-704) across the
        # outermost nodes of the thermal domain, 688.7 and 698.1, in steps of
        # 0.12, well under its width of 2.3 in x; a bounded peak there is not growth
        for temp in np.linspace(1.42e-3, 1.445e-3, 101):
            path = narrow_band_config(tmp_path, float(temp))
            assert run(["coeffs", "--config", path]) == 0, temp


class TestSweepCommand:
    def test_count_two_gives_three_lines(self, tmp_path):
        path = lorentzian_config(tmp_path,
                                 "temp_min = 0.5\ntemp_max = 2.0\ncount = 2\n")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert len(text.splitlines()) == 3
        assert text.startswith(cli.SWEEP_HEADER + "\n")

    def test_byte_identical_rerun(self, tmp_path):
        path = lorentzian_config(
            tmp_path, "temp_min = 0.01\ntemp_max = 10\ncount = 4\nspacing = log\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep", "--config", path, "--out", str(out1)]) == 0
        assert run(["sweep", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_ascending_and_17_digits(self, tmp_path):
        path = lorentzian_config(
            tmp_path, "temp_min = 0.1\ntemp_max = 1\ncount = 3\nspacing = linear\n")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        temps = [float(r[0]) for r in rows]
        assert temps == sorted(temps)
        # 17 significant digits means full double round-trip
        lam = rows[1][1]
        assert float(lam) == float(f"{float(lam):.17g}")
        assert len(lam.replace("-", "").replace(".", "").replace("e", "")) >= 10

    def test_scaling_crossover(self, tmp_path):
        # log-log slope of lambda(T): 2 at low T, 1 at high T
        path = lorentzian_config(
            tmp_path, "temp_min = 0.001\ntemp_max = 1000\ncount = 25\nspacing = log\n")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", path, "--out", str(out)]) == 0
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        temps, lam = rows[:, 0], rows[:, 1]
        low = (temps >= 1e-3) & (temps <= 1e-2)
        high = (temps >= 1e2) & (temps <= 1e3)
        slope_low = np.polyfit(np.log(temps[low]), np.log(lam[low]), 1)[0]
        slope_high = np.polyfit(np.log(temps[high]), np.log(lam[high]), 1)[0]
        assert slope_low == pytest.approx(2.0, abs=0.05)
        assert slope_high == pytest.approx(1.0, abs=0.05)

    def test_bad_range_exits_2(self, tmp_path):
        path = lorentzian_config(tmp_path, "temp_min = 2\ntemp_max = 1\ncount = 3\n")
        assert run(["sweep", "--config", path]) == 2


class TestChiCommand:
    def test_zero_row_and_conjugates(self, tmp_path):
        path = lorentzian_config(
            tmp_path, "omega_min = -1\nomega_max = 1\nomega_count = 5\n")
        out = tmp_path / "chi.csv"
        assert run(["chi", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CHI_HEADER
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        mid = rows[2]
        assert abs(mid[5]) <= max(mid[7], 1e-13) and abs(mid[6]) <= max(mid[7], 1e-13)
        # negative-omega rows conjugate the positive ones
        assert rows[0][5] == pytest.approx(rows[4][5], rel=1e-9)
        assert rows[0][6] == pytest.approx(-rows[4][6], rel=1e-9)

    def test_perfect_vacuum_point(self, tmp_path):
        path = write(tmp_path, "c.cfg", """
temperature = 0.0
omega_min = 1
omega_max = 1
omega_count = 1
[model]
kind = perfect
""")
        out = tmp_path / "chi.csv"
        assert run(["chi", "--config", path, "--out", str(out)]) == 0
        row = [float(x) for x in out.read_text().splitlines()[1].split(",")]
        assert row[6] == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-8)


class TestForceCommand:
    def test_uniform_velocity(self, tmp_path):
        v = 1e-4
        t = np.arange(9.0) * 50.0
        traj = "t,q\n" + "\n".join(f"{ti},{v * ti}" for ti in t) + "\n"
        traj_path = write(tmp_path, "traj.csv", traj)
        path = lorentzian_config(tmp_path, f"trajectory = {traj_path}\n")
        out = tmp_path / "force.csv"
        assert run(["force", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,F"
        assert len(lines) == 8  # interior points only
        forces = [float(line.split(",")[1]) for line in lines[1:]]
        lam = 0.7490978562580667
        assert all(f == pytest.approx(-lam * v, rel=1e-9) for f in forces)

    def test_quadratic_trajectory(self, tmp_path):
        g = 1e-6
        t = np.arange(11.0) * 100.0
        traj = "t,q\n" + "\n".join(f"{ti},{0.5 * g * ti * ti}" for ti in t) + "\n"
        traj_path = write(tmp_path, "traj.csv", traj)
        path = lorentzian_config(tmp_path, f"trajectory = {traj_path}\n")
        out = tmp_path / "force.csv"
        assert run(["force", "--config", path, "--out", str(out)]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        lam, mu = 0.7490978562580667, -0.09827649102355436
        for ti, fi in rows:
            assert fi == pytest.approx(-(lam * g * ti + mu * g), rel=1e-9)

    def test_two_rows_exit_2(self, tmp_path):
        traj_path = write(tmp_path, "traj.csv", "t,q\n0,0\n1,1\n")
        path = lorentzian_config(tmp_path, f"trajectory = {traj_path}\n")
        assert run(["force", "--config", path]) == 2

    def test_nonuniform_step_exit_2(self, tmp_path):
        traj_path = write(tmp_path, "traj.csv", "t,q\n0,0\n1,0\n2.5,0\n")
        path = lorentzian_config(tmp_path, f"trajectory = {traj_path}\n")
        assert run(["force", "--config", path]) == 2

    @pytest.mark.parametrize("sample", ["1,nan", "inf,1"])
    def test_non_finite_sample_exit_2(self, tmp_path, capsys, sample):
        traj_path = write(tmp_path, "traj.csv", f"t,q\n0,0\n{sample}\n2,0\n3,0\n")
        path = lorentzian_config(tmp_path, f"trajectory = {traj_path}\n")
        assert run(["force", "--config", path]) == 2
        assert f"traj.csv:3: non-finite entry '{sample}'" in capsys.readouterr().err


class TestVerifyCommand:
    def test_lorentzian_all_pass(self, tmp_path, capsys):
        path = lorentzian_config(tmp_path, "kk_points = 256\n")
        assert run(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "dual_route_mu" in out and "einstein_relation" in out

    def test_each_check_quantity_is_computed_once(self, tmp_path, capsys, monkeypatch):
        # one chi sweep of 2 kk_points samples serves both dispersion windows,
        # computed on its non-negative half (the rest is its conjugate), and
        # the Einstein ladder adds its 7 rungs; the reports are those at
        # T, T_hi and T_lo, the Einstein check reading lambda from the one at T
        from thermaldrag import coefficients, susceptibility
        calls = {"chi_total": 0, "compute_coefficients": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(susceptibility, "chi_total")
        counted(coefficients, "compute_coefficients")
        assert run(["verify", "--config",
                    lorentzian_config(tmp_path, "kk_points = 256\n")]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert calls == {"chi_total": 256 + 7, "compute_coefficients": 3}

    def test_perfect_mirror_reports_zero_mass_terms(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg",
                     "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        # the allowance is the report's claimed error of mu, exactly 0 here
        assert "mu_exact_zero: measured=0.000000e+00 allowed=0.000000e+00 PASS" in out
        assert "dual_route_mu: measured=0.000000e+00" in out

    def test_weak_rational_mirror_passes(self, tmp_path, capsys):
        # R0 = 0 degenerates the low-T viscosity law; that check is skipped
        path = weak_rational_config(tmp_path, "kk_points = 256")
        assert run(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "asymptotic_lambda_low" not in out
        assert "asymptotic_mu_low" in out

    @pytest.mark.parametrize("cutoff", ["cutoff = 1\n", ""], ids=["cutoff", "no-cutoff"])
    def test_transparent_mirror_passes(self, tmp_path, capsys, cutoff):
        # r = 0, s = 1 has lambda = 0: the relative gaps fall back to absolute
        path = write(tmp_path, "c.cfg",
                     "temperature = 1.0\nkk_points = 256\n[model]\nkind = rational\n"
                     "r_numerator = 0\nr_denominator = 1\ns_numerator = 1\n"
                     "s_denominator = 1\n" + cutoff)
        assert run(["verify", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.endswith(" PASS") for line in lines)

    @pytest.mark.parametrize("temperature", ["0", "-1"])
    def test_non_positive_temperature_exits_2(self, tmp_path, capsys, temperature):
        path = write(tmp_path, "c.cfg", f"temperature = {temperature}\n"
                     "[model]\nkind = lorentzian\ntau0 = 1.0\n")
        assert run(["verify", "--config", path]) == 2
        assert "temperature must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tau0", ["0.01", "100.0"])
    def test_scale_covariance(self, tmp_path, capsys, tau0):
        # the checks must hold across decades of the cutoff scale
        path = write(tmp_path, "c.cfg",
                     "temperature = 1.0\nkk_points = 256\n"
                     f"[model]\nkind = lorentzian\ntau0 = {tau0}\n")
        assert run(["verify", "--config", path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_injected_wrong_sign_b_isolated(self, tmp_path, capsys, monkeypatch):
        # flipping b's sign must break the dual-route mass check while the
        # dispersion-relation check stays green; b is formed from the kernel
        # record for mu_entropic, B and Delta_S (mu_spectral writes its own
        # b next to b')
        from thermaldrag import models
        true_b = models._b_kernel
        monkeypatch.setattr(models, "_b_kernel", lambda record: -true_b(record))
        path = lorentzian_config(tmp_path, "kk_points = 256\n")
        assert run(["verify", "--config", path]) == 5
        out = capsys.readouterr().out
        assert [l for l in out.splitlines()
                if l.startswith("kramers_kronig")][0].endswith("PASS")
        assert [l for l in out.splitlines()
                if l.startswith("dual_route_mu")][0].endswith("FAIL")
        assert [l for l in out.splitlines()
                if l.startswith("dual_route_lambda")][0].endswith("PASS")

    def test_chi_lines_fail_above_1e4_times_cutoff(self, tmp_path, capsys):
        # chi is NaN there: the two checks built on it fail instead of passing
        path = write(tmp_path, "c.cfg", "temperature = 2e5\nkk_points = 64\n"
                     "[model]\nkind = lorentzian\ntau0 = 0.5\n")
        assert run(["verify", "--config", path]) == 5
        lines = capsys.readouterr().out.splitlines()
        for name in ("einstein_relation", "kramers_kronig_window_doubling"):
            line, = (line for line in lines if line.startswith(name + ":"))
            assert "measured=nan" in line and line.endswith("FAIL")

    def test_einstein_line_fails_on_an_unconverged_chi(self, tmp_path, capsys):
        # the weak mirror at T = 100 x cutoff: every chi of the Einstein
        # ladder is unconverged, so the line has no value to pass on
        eps, root = 0.3, math.sqrt(0.09 + 4.0)
        path = write(tmp_path, "hot.cfg", f"""temperature = {100 * weak_mirror().cutoff_frequency!r}
kk_points = 64
[model]
kind = rational
r_numerator = 0, {eps}
r_denominator = 1, {-root}, 1
s_numerator = 1, 0, -1
s_denominator = 1, {-root}, 1
""")
        assert run(["verify", "--config", path]) == 5
        line, = (line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("einstein_relation:"))
        assert "measured=nan" in line and line.endswith("FAIL")

    @pytest.mark.parametrize("kind, unconverged", [
        # on one subdivision at rel_tol 1e-15, five of the six integrals of
        # the T = 1 report (lambda_spectral converges), every integral of
        # the two asymptotic reports, delta_S and the sweep's chi run out
        ("lorentzian\ntau0 = 1", {"dual_route_lambda", "dual_route_mu",
                                  "kramers_kronig_window_doubling",
                                  "asymptotic_lambda_high", "asymptotic_lambda_low",
                                  "asymptotic_mu_low", "asymptotic_mu_high"}),
        # the perfect mirror's Einstein ladder is unconverged as well
        ("perfect", {"dual_route_lambda", "dual_route_mu", "einstein_relation",
                     "mu_exact_zero"}),
    ], ids=["lorentzian", "perfect"])
    def test_lines_on_unconverged_quadratures_fail(self, tmp_path, capsys, kind, unconverged):
        path = write(tmp_path, "c.cfg", "temperature = 1\nkk_points = 64\nrel_tol = 1e-15\n"
                     f"max_subdivisions = 1\n[model]\nkind = {kind}\n")
        assert run(["verify", "--config", path]) == 5
        failed = set()
        for line in capsys.readouterr().out.splitlines():
            name = line.split(":")[0]
            if line.endswith("FAIL"):
                assert "measured=nan" in line
                failed.add(name)
        assert failed == unconverged

    @pytest.mark.parametrize("points", ["-5", "0", "10"])
    def test_too_few_kk_points_exits_2_before_computing(self, tmp_path, capsys,
                                                        monkeypatch, points):
        from thermaldrag import coefficients
        monkeypatch.setattr(coefficients, "compute_coefficients", None)
        path = lorentzian_config(tmp_path, f"kk_points = {points}\n")
        assert run(["verify", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: kk_points must be >= 64, got {points}" in captured.err


class TestModelInfoCommand:
    def test_lorentzian(self, tmp_path, capsys):
        path = lorentzian_config(tmp_path)
        assert run(["model-info", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "low_frequency_delay = 1" in out
        assert "validation.unitarity_modulus" in out

    def test_perfect_has_no_cutoff(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", "temperature = 1\n[model]\nkind = perfect\n")
        assert run(["model-info", "--config", path]) == 0
        assert "cutoff_frequency = none" in capsys.readouterr().out

    def test_non_finite_delay_exits_3(self, tmp_path, capsys):
        # tau0 = 1e308 puts the pole at 1e-308: the delay at omega = 0
        # overflows, and is printed, judged by the output gate and not warned
        path = write(tmp_path, "c.cfg", "[model]\nkind = lorentzian\ntau0 = 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["model-info", "--config", path]) == 3
        out, err = capsys.readouterr()
        assert "low_frequency_delay = inf\n" in out
        assert "validation.transparency" in out
        assert err == "a printed value is not a finite number\n"

    def test_out_writes_stdout_text(self, tmp_path, capsys):
        # --out means the same on every subcommand: the file gets exactly
        # the stdout text, stdout stays empty and the exit code is unchanged
        traj_path = write(tmp_path, "traj.csv", "t,q\n0,0\n1,1e-4\n2,2e-4\n3,3e-4\n")
        path = lorentzian_config(
            tmp_path, "temp_min = 0.5\ntemp_max = 2\ncount = 2\nomega_min = -1\n"
            "omega_max = 1\nomega_count = 3\nkk_points = 256\neinstein_tol = 1e-30\n"
            f"trajectory = {traj_path}\n")
        requests = [["coeffs"], ["coeffs", "--tol", "1e-18"], ["sweep"], ["chi"],
                    ["verify"], ["force"], ["model-info"]]
        codes = []
        for request in requests:
            argv = request + ["--config", path]
            code = run(argv)
            expected = capsys.readouterr().out
            out = tmp_path / "out.txt"
            assert run(argv + ["--out", str(out)]) == code
            assert capsys.readouterr().out == ""
            assert out.read_text() == expected
            out.unlink()
            codes.append(code)
        # the route gate (3) and a failed verify check (5) still write the file
        assert codes == [0, 3, 0, 0, 5, 0, 0]
        # a config error escapes the handler: no file
        no_temperature = write(tmp_path, "c.cfg", "[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", no_temperature, "--out", str(out)]) == 2
        assert not out.exists()


class TestConvergedGate:
    # a printed value whose quadrature did not converge exits 3, and stderr
    # names its field; the same request on the default budget exits 0
    @staticmethod
    def config(tmp_path, settings):
        return write(tmp_path, "c.cfg", f"{settings}\n[model]\nkind = lorentzian\ntau0 = 1.0\n")

    @pytest.mark.parametrize("command, settings", [
        ("coeffs", "temperature = 10"),
        ("sweep", "temp_min = 9\ntemp_max = 10"),
        ("force", "temperature = 10"),
    ])
    def test_spent_budget_exits_3(self, tmp_path, capsys, command, settings):
        # on the Lorentzian at T = 10, mu_spectral needs more than its 19
        # initial thermal panels
        traj_path = write(tmp_path, "traj.csv", "t,q\n0,0\n1,1e-3\n2,2e-3\n3,3e-3\n")
        settings += f"\ntrajectory = {traj_path}"
        assert run([command, "--config", self.config(tmp_path, settings)]) == 0
        default = capsys.readouterr().out
        path = self.config(tmp_path, settings + "\nmax_subdivisions = 1")
        assert run([command, "--config", path]) == 3
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == len(default.splitlines())
        assert err.startswith("quadrature did not converge: ") and "mu_spectral" in err

    def test_chi_near_zero_frequency_on_a_hot_mirror_exits_3(self, tmp_path, capsys):
        # the thermal integrand cancels as omega -> 0, so its rounding keeps
        # it above rel_tol |chi| until the budget is spent
        path = self.config(tmp_path, "temperature = 10\nomega_min = -1e-7\nomega_max = 1e-7")
        assert run(["chi", "--config", path]) == 3
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 3
        assert err == "quadrature did not converge: chi_thermal\n"


class TestGates:
    # the gates test a request's printed floats in Python, array rows (the
    # force series) too; a NaN or an infinity anywhere trips them as numpy's
    # reductions did
    @pytest.mark.parametrize("pairs", [
        [(1e-9, 1e-8)],
        [(1e-9, math.nan), (5.0, 0.0)],
        [(5.0, 0.0), (np.float64(math.nan), 1e-9)],
        [(2e-6, 1e-9), (1e-9, 3e-6)],
        [(0.0, math.inf)],
    ], ids=["pass", "nan-first", "nan-last", "largest", "inf"])
    def test_route_gate(self, capsys, pairs):
        reports = [SimpleNamespace(route_discrepancy_lambda=lam, route_discrepancy_mu=mu)
                   for lam, mu in pairs]
        worst = np.max(pairs)
        expected = "" if worst <= 1e-6 else (
            f"route discrepancy {worst:.3e} exceeds tolerance {1e-6:.3e}\n")
        assert cli._route_gate(reports, 1e-6) == (3 if expected else 0)
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("rows", [
        [(1.0, 2.0), (np.float64(3.0), 4.0)],
        [(1.0, 2.0), (3.0, math.nan)],
        [[np.float64(-math.inf), 1.0]],
        [np.array([0.0, 1.0]), np.array([1.0, 2.0])],
        [np.array([0.0, 1.0]), np.array([1.0, math.nan])],
    ], ids=["finite", "nan", "minus-inf", "arrays", "array-nan"])
    def test_output_gate_on_values(self, capsys, rows):
        finite = all(np.isfinite(row).all() for row in rows)
        assert cli._output_gate(rows, [{"lambda_spectral": False}]) == 3
        assert capsys.readouterr().err == (
            "quadrature did not converge: lambda_spectral\n" if finite
            else "a printed value is not a finite number\n")

    def test_output_gate_names_each_field_once(self, capsys):
        flags = [{"A": True, "B": False}, {"B": False, "mu_spectral": False}]
        assert cli._output_gate([(1.0, 2.0)], flags) == 3
        assert capsys.readouterr().err == "quadrature did not converge: B, mu_spectral\n"
        assert cli._output_gate([(1.0, 2.0)], [{"A": True}]) == 0


class TestExtremeTemperature:
    # at T = 1e200 the integrands overflow to NaN: every subcommand that
    # prints a value must say so with exit 3, not crash or exit 0
    @pytest.mark.parametrize("command, settings", [
        ("coeffs", "temperature = 1e200"),
        ("sweep", "temp_min = 1e199\ntemp_max = 1e200"),
        ("chi", "temperature = 1e200\nomega_min = -1\nomega_max = 1\nomega_count = 3"),
        ("force", "temperature = 1e200"),
    ], ids=["coeffs", "sweep", "chi", "force"])
    def test_exits_3(self, tmp_path, capsys, command, settings):
        traj_path = write(tmp_path, "traj.csv", "t,q\n0,0\n1,1e-3\n2,2e-3\n3,3e-3\n")
        path = write(tmp_path, "c.cfg", f"{settings}\ntrajectory = {traj_path}\n"
                     "[model]\nkind = lorentzian\ntau0 = 1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([command, "--config", path]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "not a finite number" in err or "route discrepancy nan" in err


    # chi_T is computed up to 1e4 x cutoff: above it the thermal columns are
    # NaN and chi exits 3 (tau0 = 0.5, so the cutoff is 2)
    @pytest.mark.parametrize("ratio, code", [(1e3, 0), (1e5, 3), (1e6, 3)])
    def test_chi_above_1e4_times_cutoff_exits_3(self, tmp_path, capsys, ratio, code):
        path = write(tmp_path, "c.cfg", f"temperature = {2.0 * ratio}\nomega_min = -1\n"
                     "omega_max = 1\nomega_count = 3\n[model]\nkind = lorentzian\ntau0 = 0.5\n")
        assert run(["chi", "--config", path]) == code
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4 and ("nan" in out) == (code == 3)

    # the perfect mirror at T = 1e120 with hbar = 1e-75: lambda and A are
    # finite in natural units but overflow on conversion to the user's units,
    # and a printed infinity exits 3
    @pytest.mark.parametrize("command, settings", [
        ("coeffs", "temperature = 1e120"),
        ("sweep", "temp_min = 1e119\ntemp_max = 1e120"),
    ], ids=["coeffs", "sweep"])
    def test_infinite_error_estimate_exits_3(self, tmp_path, capsys, command, settings):
        path = write(tmp_path, "c.cfg",
                     f"hbar = 1e-75\n{settings}\n[model]\nkind = perfect\n")
        assert run([command, "--config", path]) == 3
        out, err = capsys.readouterr()
        assert "inf" in out and "nan" not in out
        assert err == "a printed value is not a finite number\n"

    def test_perfect_mirror_at_1e150(self, tmp_path, capsys):
        # lambda = 2 pi T^2 / 3 and A = pi T^2 / 6, each within its claimed error
        temp = 1e150
        path = write(tmp_path, "c.cfg", f"temperature = {temp}\n[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 0
        fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        lam, a = 2.0 * math.pi * temp**2 / 3.0, math.pi * temp**2 / 6.0
        for name, exact in (("lambda_spectral", lam), ("lambda_entropic", lam), ("A", a)):
            value, error = map(float, fields[name].split(" +/- "))
            assert abs(value - exact) <= error


# a unitary mirror of degree 5 with r[0] = -1: r = (-1 + 0.2 z^2 - 0.01 z^4) / D,
# s = -z (1 + 0.1 z^2 + 0.02 z^4) / D, D the spectral factor (roots in Re z > 0);
# six coefficients per list
QUINTIC_MODEL = """kind = rational
r_numerator = -1, 0, 0.2, 0, -0.01, 0
r_denominator = {den}
s_numerator = 0, -1, 0, -0.1, 0, -0.02
s_denominator = {den}
""".format(den="1, -2.1021998417710486, 1.5096220873711126, -0.6457864422690208, "
           "0.14809273341646698, -0.019999999999999924")


class TestExtremeModels:
    # finite but extreme model parameters end with an exit code, not a traceback
    @pytest.mark.parametrize("settings, model, code", [
        ("", "kind = lorentzian\ntau0 = 1e200\n", 3),
        ("", "kind = rational\nr_numerator = 0, 0.3\nr_denominator = 1, -2.0223748416156684, 1\n"
             "s_numerator = 1, 0, -1\ns_denominator = 1, -2.0223748416156684, 1\n"
             "cutoff = 1e307\n", 2),
        ("hbar = 1e75", QUINTIC_MODEL, 0),
    ], ids=["tau0-1e200", "rational-cutoff-1e307", "hbar-1e75-six-coefficients"])
    def test_exit_code(self, tmp_path, capsys, settings, model, code):
        path = write(tmp_path, "c.cfg", f"temperature = 1.0\n{settings}\n[model]\n{model}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["coeffs", "--config", path]) == code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert (out == "") == (code == 2)

    @pytest.mark.parametrize("tau0", ["1e200", "1e300"])
    def test_model_info_on_tiny_cutoffs_writes_nothing_to_stderr(self, tmp_path, capsys,
                                                                 tau0):
        # tau0 is read at omega = 0 from first derivatives only: second
        # derivatives there overflow for a cutoff of 1/tau0
        path = write(tmp_path, "c.cfg", f"[model]\nkind = lorentzian\ntau0 = {tau0}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["model-info", "--config", path]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_six_coefficients_at_hbar_1e75_reflect_like_a_perfect_mirror(
            self, tmp_path, capsys):
        # the poles sit at 1e75 x T: lambda is the perfect mirror's 2 pi T^2 / 3,
        # divided by hbar c^2 into user units
        path = write(tmp_path, "c.cfg", f"temperature = 1.0\nhbar = 1e75\n[model]\n{QUINTIC_MODEL}")
        assert run(["coeffs", "--config", path]) == 0
        lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        value = float(lines["lambda_spectral"].split(" +/- ")[0])
        assert value == pytest.approx(2.0 * math.pi / 3.0 * 1e-75, rel=1e-12)

    @pytest.mark.parametrize("lists, message", [
        ("r_numerator = 0, 0, 1\nr_denominator = 1, -1\n"
         "s_numerator = 1\ns_denominator = 1, -1\n", "r is improper"),
        ("r_numerator = 0, 1\nr_denominator = 1, -2, 1\n"
         "s_numerator = 1\ns_denominator = 1, -2, 1\n", "r has a repeated"),
        ("r_numerator = 0, 1\nr_denominator = 1.001, -2.001, 1\n"
         "s_numerator = 1\ns_denominator = 1.001, -2.001, 1\n", "r has a repeated"),
    ], ids=["improper", "double-pole", "near-double-pole"])
    def test_rejected_rational_exits_2(self, tmp_path, capsys, lists, message):
        path = write(tmp_path, "c.cfg", f"temperature = 1.0\n[model]\nkind = rational\n{lists}")
        assert run(["coeffs", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err


class TestExtremeUnits:
    # hbar or c outside core.UNIT_RANGE would overflow or zero a conversion
    # factor (c^2, hbar^2 c^2, tau0^2 or hbar^k): a config error, not a crash
    @pytest.mark.parametrize("command, settings", [
        ("coeffs", "c = 1e200"), ("chi", "c = 1e200"),
        ("chi", "hbar = 1e200"), ("model-info", "hbar = 1e200"),
        ("coeffs", "hbar = 1e-200"), ("chi", "hbar = 1e-200"),
        ("coeffs", "c = 1e-200"), ("chi", "c = 1e-200"),
    ])
    def test_exits_2(self, tmp_path, capsys, command, settings):
        extra = settings + "\nomega_min = -1\nomega_max = 1\n"
        # model-info on the degree-2 rational mirror, which scales by hbar^2
        config = weak_rational_config if command == "model-info" else lorentzian_config
        assert run([command, "--config", config(tmp_path, extra)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must lie in [1e-75, 1e+75]" in err and "Traceback" not in err


class TestMain:
    def test_parser_built_once(self):
        assert cli._parsers()[0] is cli._parsers()[0]

    def test_patched_handler_called_after_earlier_request(self, tmp_path, capsys,
                                                          monkeypatch):
        path = write(tmp_path, "c.cfg", "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_coeffs", lambda config, args: seen.append(args) or 7)
        assert run(["coeffs", "--config", path]) == 7
        assert [args.config for args in seen] == [path]

    @pytest.mark.parametrize("command", ["chi", "force", "model-info"])
    def test_tol_rejected_without_route_gate(self, tmp_path, command):
        # only coeffs, sweep and verify compare routes against --tol
        path = lorentzian_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", path, "--tol", "1e-3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, config_tail, trajectory, out", [
        ("model-info", b"", b"", "missing/x.txt"),
        ("model-info", b"", b"", "."),
        ("model-info", b"# caf\xe9\n", b"", None),
        ("force", b"", b"t,q\n0,0\n1,\xff1\n2,2\n", None),
    ], ids=["out-in-missing-dir", "out-is-dir", "config-not-utf8",
            "trajectory-not-utf8"])
    def test_file_io_error_exits_2(self, tmp_path, capsys, command, config_tail,
                                   trajectory, out):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_bytes(trajectory)
        path = tmp_path / "c.cfg"
        path.write_bytes(f"temperature = 1.0\ntrajectory = {traj_path}\n".encode()
                         + config_tail + b"[model]\nkind = perfect\n")
        argv = [command, "--config", str(path)]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("config error: cannot ")

    def test_usage_error_then_valid_request(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 0
        expected = capsys.readouterr().out
        # a --tol that is not a finite number >= 0 is a usage error, raised
        # before the config is read
        for tol in ("not-a-number", "nan", "inf", "-1"):
            with pytest.raises(SystemExit) as exc:
                run(["coeffs", "--config", path, "--tol", tol])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and f"must be a finite number >= 0, got '{tol}'" in err
        assert run(["coeffs", "--config", path]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("model", ["perfect", "weak_rational"])
    def test_tol_zero_is_accepted(self, tmp_path, capsys, model):
        # 0 is a valid route tolerance, not a usage error: the report is
        # printed, and the gate exits 3 exactly when a printed route gap,
        # which is rounding residue here and often exactly 0, is above 0
        path = (weak_rational_config(tmp_path) if model == "weak_rational" else
                write(tmp_path, "c.cfg", "temperature = 1.0\n[model]\nkind = perfect\n"))
        code = run(["coeffs", "--config", path, "--tol", "0"])
        out, err = capsys.readouterr()
        gaps = [float(line.split(" = ")[1]) for line in out.splitlines()
                if line.startswith("route_discrepancy_")]
        assert len(gaps) == 2 and code == (3 if max(gaps) > 0 else 0)
        assert ("exceeds tolerance 0.000e+00" in err) == (code == 3)


USAGE = "usage: thermaldrag [-h] {coeffs,sweep,chi,verify,force,model-info} ..."
COEFFS_USAGE = "usage: thermaldrag coeffs [-h] --config CONFIG [--out OUT] [--tol TOL]"


class TestArgumentParsing:
    # main hands argv to the named command's own parser, and to the full
    # parser whenever argv names no command or that parser leaves anything
    # unparsed: stdout, stderr and the exit code must be the full parser's,
    # byte for byte.  {config} is a valid perfect-mirror config
    ARGVS = {
        "no-arguments": [],
        "help": ["-h"],
        "help-after-command": ["-h", "coeffs"],
        "command-help": ["coeffs", "-h"],
        "command-help-abbreviated": ["coeffs", "--config", "{config}", "--he"],
        "unknown-command": ["bogus"],
        "option-before-command": ["--config", "{config}", "coeffs"],
        "missing-config": ["coeffs"],
        "config-without-value": ["coeffs", "--config"],
        "unknown-option": ["coeffs", "--config", "{config}", "--bogus"],
        "stray-positional": ["coeffs", "--config", "{config}", "y"],
        "command-twice": ["coeffs", "coeffs", "--config", "{config}"],
        "double-dash": ["coeffs", "--config", "{config}", "--", "y"],
        "trailing-double-dash": ["coeffs", "--config", "{config}", "--"],
        "double-dash-first": ["coeffs", "--", "--config", "{config}"],
        "tol-without-route-gate": ["chi", "--config", "{config}", "--tol", "1"],
        "bad-tol": ["coeffs", "--config", "{config}", "--tol", "x"],
        "bad-tol-with-equals": ["sweep", "--config={config}", "--tol=-1"],
        "tol-twice": ["coeffs", "--config", "{config}", "--tol", "1", "--tol", "2"],
        "abbreviated-config": ["model-info", "--conf", "{config}"],
        "valid": ["coeffs", "--config", "{config}"],
        "valid-with-out": ["model-info", "--out", "{out}", "--config", "{config}"],
    }

    @staticmethod
    def outcome(argv, tmp_path, capsys):
        """(exit code, stdout, stderr, --out text) of ``main`` on ``argv``."""
        config = write(tmp_path, "c.cfg", "temperature = 1\n[model]\nkind = perfect\n")
        out = tmp_path / "out.txt"
        try:
            code = run([arg.format(config=config, out=out) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return (code, *capsys.readouterr(), text)

    @pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
    def test_output_is_the_full_parsers(self, argv, tmp_path, capsys, monkeypatch):
        ours = self.outcome(argv, tmp_path, capsys)
        monkeypatch.setattr(cli, "_parse_args",
                            lambda argv: cli._parsers()[0].parse_args(argv))
        assert ours == self.outcome(argv, tmp_path, capsys)

    # recorded with the full parser; help and usage text come from argparse,
    # whose wording may change between Python versions, so the lines pinned
    # here are the ones this program's arguments decide
    @pytest.mark.parametrize("name, code, first, last", [
        ("no-arguments", 2, USAGE,
         "thermaldrag: error: the following arguments are required: command"),
        ("unknown-command", 2, USAGE,
         "thermaldrag: error: argument command: invalid choice: 'bogus'"),
        ("missing-config", 2, COEFFS_USAGE,
         "thermaldrag coeffs: error: the following arguments are required: --config"),
        ("unknown-option", 2, USAGE, "thermaldrag: error: unrecognized arguments: --bogus"),
        ("tol-without-route-gate", 2, USAGE,
         "thermaldrag: error: unrecognized arguments: --tol 1"),
        ("bad-tol", 2, COEFFS_USAGE,
         "thermaldrag coeffs: error: argument --tol: must be a finite number >= 0, got 'x'"),
    ], ids=["no-arguments", "unknown-command", "missing-config", "unknown-option",
            "tol-without-route-gate", "bad-tol"])
    def test_usage_errors(self, tmp_path, capsys, name, code, first, last):
        found, out, err, _ = self.outcome(self.ARGVS[name], tmp_path, capsys)
        lines = err.splitlines()
        assert (found, out, len(lines), lines[0]) == (code, "", 2, first)
        assert lines[1].startswith(last)

    @pytest.mark.parametrize("name, first", [("help", USAGE), ("command-help", COEFFS_USAGE),
                                             ("command-help-abbreviated", COEFFS_USAGE)])
    def test_help(self, tmp_path, capsys, name, first):
        code, out, err, _ = self.outcome(self.ARGVS[name], tmp_path, capsys)
        assert (code, err) == (0, "") and out.splitlines()[0] == first


WEAK_RATIONAL_KEYS = ("r_numerator = 0, 0.3\nr_denominator = 1, -2.0223748416156684, 1\n"
                      "s_numerator = 1, 0, -1\ns_denominator = 1, -2.0223748416156684, 1\n")


class TestRejections:
    # every input the CLI rejects exits 2 with its reason on stderr and
    # nothing on stdout; "trajectory" is written as the trajectory file
    @pytest.mark.parametrize("command, settings, model, trajectory, message", [
        ("sweep", "temp_min = 1\ntemp_max = 2\ncount = 1", "kind = perfect", None,
         "count must be >= 2, got 1"),
        ("sweep", "temp_min = 1\ntemp_max = 2\nspacing = cubic", "kind = perfect", None,
         "spacing must be 'log' or 'linear', got 'cubic'"),
        ("sweep", "temp_min = 0\ntemp_max = 2", "kind = perfect", None,
         "need 0 < temp_min < temp_max, got [0.0, 2.0]"),
        ("sweep", "temp_min = 2\ntemp_max = 2", "kind = perfect", None,
         "need 0 < temp_min < temp_max, got [2.0, 2.0]"),
        ("chi", "temperature = 1\nomega_min = 1\nomega_max = -1", "kind = perfect", None,
         "need omega_max >= omega_min"),
        ("chi", "temperature = 1\nomega_min = -1\nomega_max = 1\nomega_count = 0",
         "kind = perfect", None, "omega_count must be >= 1"),
        ("force", "temperature = 1", "kind = perfect", None,
         "missing required key 'trajectory'"),
        ("force", "temperature = 1", "kind = perfect", "0,0\n1,1,1\n2,2\n",
         "traj.csv:2: expected 't,q', got '1,1,1'"),
        ("force", "temperature = 1", "kind = perfect", "0,0\n1,x\n2,2\n",
         "traj.csv:2: non-numeric entry '1,x'"),
        ("coeffs", "temperature = warm", "kind = perfect", None,
         "key 'temperature' is not a number: 'warm'"),
        ("coeffs", "temperature = 1\nmax_subdivisions = 2.5", "kind = perfect", None,
         "key 'max_subdivisions' is not an integer: '2.5'"),
        ("sweep", "temp_max = 2", "kind = perfect", None,
         "missing required key 'temp_min'"),
        ("coeffs", "temperature = 1\n[quadrature]\nrel_tol = 1e-8", "kind = perfect", None,
         "c.cfg:2: unknown section [quadrature]"),
        ("coeffs", "temperature = 1\n= 3", "kind = perfect", None, "c.cfg:2: empty key"),
        ("coeffs", "temperature = 1", "kind = rational\n" + WEAK_RATIONAL_KEYS.replace(
            "0, 0.3", "0, a"), None, "model key 'r_numerator' is not a number list: '0, a'"),
        ("coeffs", "temperature = 1", "kind = rational\n" + WEAK_RATIONAL_KEYS.replace(
            "0, 0.3", ""), None, "model key 'r_numerator' is empty"),
        ("coeffs", "temperature = 1", "kind = glass", None,
         "model kind must be one of ('lorentzian', 'perfect', 'rational'), got 'glass'"),
        ("coeffs", "temperature = 1", "kind = lorentzian", None,
         "lorentzian model needs tau0"),
        ("coeffs", "temperature = 1",
         "kind = rational\n" + WEAK_RATIONAL_KEYS.rsplit("s_denominator", 1)[0], None,
         "rational model needs 's_denominator'"),
        ("coeffs", "temperature = 1", "kind = rational\ncutoff = 0\n" + WEAK_RATIONAL_KEYS,
         None, "cutoff must be finite and > 0, got 0.0"),
        ("verify", "einstein_tol = -1", "kind = perfect", None,
         "einstein_tol must be > 0, got -1.0"),
        ("verify", "einstein_tol = 0", "kind = perfect", None,
         "einstein_tol must be > 0, got 0.0"),
        ("chi", "temperature = 1\nomega_min = -1\nomega_max = 1\nomega_cout = 5\n"
         "reltol = 1e-3", "kind = perfect", None, "unknown config key 'omega_cout'"),
        ("coeffs", "temperature = 1", "kind = lorentzian\ntau0 = 1\ntau = 3", None,
         "unknown lorentzian model key 'tau'"),
        ("coeffs", "temperature = 1\nabs_tol = 1e-14", "kind = perfect", None,
         "unknown config key 'abs_tol'"),
        ("coeffs", "temperature = 1", "kind = lorentzian\ntau0 = 1\ncutoff = 2", None,
         "unknown lorentzian model key 'cutoff'"),
        ("model-info", "", "kind = perfect", None, "injected"),
        ("chi", "hbar = 7\ntemperature = 1e150\nomega_min = 2.5\nomega_max = 1e308\n"
         "omega_count = 5", "kind = perfect", None,
         "key 'omega_max' = 1e+308 is not finite in natural units (hbar = 7.0)"),
        ("chi", "hbar = 1e75\ntemperature = 1\nomega_min = -1e300\nomega_max = 1",
         "kind = perfect", None,
         "key 'omega_min' = -1e+300 is not finite in natural units (hbar = 1e+75)"),
        ("chi", "temperature = 1\nomega_min = -1e308\nomega_max = 1e308\nomega_count = 3",
         "kind = perfect", None,
         "need a finite omega_max - omega_min, got [-1e+308, 1e+308]"),
    ], ids=["sweep-count", "sweep-spacing", "sweep-temp-min-zero",
            "sweep-temp-range-empty", "chi-omega-range", "chi-omega-count",
            "force-no-trajectory", "force-row-fields", "force-non-numeric",
            "config-not-a-number", "config-not-an-integer", "config-missing-temp-min",
            "config-unknown-section", "config-empty-key", "config-list-not-numbers",
            "config-empty-list", "config-unknown-kind", "config-lorentzian-without-tau0",
            "config-rational-missing-key", "rational-cutoff-zero",
            "verify-einstein-tol-negative", "verify-einstein-tol-zero",
            "config-unknown-main-key", "config-unknown-model-key",
            "config-retired-abs-tol", "config-key-of-another-kind", "main-error-in-handler",
            "chi-omega-max-overflows-in-natural-units",
            "chi-omega-min-overflows-in-natural-units", "chi-omega-span-overflows"])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, command, settings, model,
                     trajectory, message):
        if trajectory is not None:
            settings += f"\ntrajectory = {write(tmp_path, 'traj.csv', trajectory)}"
        path = write(tmp_path, "c.cfg", f"{settings}\n[model]\n{model}\n")
        prefix = "config error: "
        if message == "injected":
            # a package error that is not a ConfigError, raised inside a handler
            prefix = "error: "

            def failing(config, args):
                raise ThermalDragError(message)

            monkeypatch.setattr(cli, "cmd_model_info", failing)
        assert run([command, "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix) and message in err and "Traceback" not in err

    def test_trajectory_header_line_is_skipped(self, tmp_path, capsys):
        outputs = []
        # blank and whitespace-only lines are skipped too
        for header in ("t,q\n", "", "t,q\n\n  \n"):
            traj_path = write(tmp_path, "traj.csv", header + "0,0\n1,1e-3\n2,2e-3\n")
            path = lorentzian_config(tmp_path, f"trajectory = {traj_path}\n")
            assert run(["force", "--config", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] and len(outputs[0].splitlines()) == 2

    @pytest.mark.parametrize("marked", ["config", "trajectory"])
    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, capsys, marked):
        # an editor may save either file with a BOM; it is not part of the
        # first key or of the header
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            traj_path = tmp_path / "traj.csv"
            traj_path.write_bytes((bom if marked == "trajectory" else b"")
                                  + b"t,q\n0,0\n1,1e-3\n2,2e-3\n")
            path = tmp_path / "c.cfg"
            path.write_bytes((bom if marked == "config" else b"")
                             + f"temperature = 1.0\ntrajectory = {traj_path}\n".encode()
                             + b"[model]\nkind = lorentzian\ntau0 = 1.0\n")
            assert run(["force", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 2


# any change in rounding anywhere in the stack shows up in these pins;
# CHANGES.md records each re-recording and how far the values moved
GOLDEN_COEFFS_WEAK_RATIONAL = (
    'temperature = 1\n'
    'lambda_spectral = 0.024472472594085512 +/- 3.2472050260538451e-16\n'
    'lambda_entropic = 0.024472472594085512 +/- 4.6636354958238029e-16\n'
    'mu_spectral = 0.72901419409184609 +/- 8.5648268180165628e-15\n'
    'mu_entropic = 0.7290141940918462 +/- 1.035482376051054e-14\n'
    'A = 0.0066075665983137185 +/- 9.9581267560567817e-17\n'
    'B = 0.51140244744117092 +/- 6.3121840890287497e-15\n'
    'route_discrepancy_lambda = 0\n'
    'route_discrepancy_mu = 1.5229100251034113e-16\n'
)
GOLDEN_CHI_LORENTZIAN_SCALED = (
    'omega,re_chi_vacuum,im_chi_vacuum,re_chi_thermal,im_chi_thermal,'
    're_chi_total,im_chi_total,err\n'
    '-2,-0.070476377636938467,-0.085536228265785594,-0.05755676815592,'
    '-0.27237457799202774,-0.12803314579285846,-0.3579108062578133,'
    '9.069161870049806e-15\n'
    '-1,-0.0073022786880829254,-0.015752967709700676,-0.02307156147011722,'
    '-0.1531666306064437,-0.030373840158200143,-0.16891959831614436,'
    '2.91186872236782e-15\n'
    '0,0,0,0,0,0,0,0\n'
    '1,-0.0073022786880829254,0.015752967709700676,-0.02307156147011722,'
    '0.1531666306064437,-0.030373840158200143,0.16891959831614436,'
    '2.91186872236782e-15\n'
    '2,-0.070476377636938467,0.085536228265785594,-0.05755676815592,'
    '0.27237457799202774,-0.12803314579285846,0.3579108062578133,'
    '9.069161870049806e-15\n'
    '3,-0.22729178786830209,0.20327150903182611,-0.080379711586005778,'
    '0.3748735841976778,-0.30767149945430788,0.57814509322950391,'
    '4.9318110839726177e-13\n'
)

GOLDEN_VERIFY_LORENTZIAN = (
    'unitarity_modulus: measured=4.440892e-16 allowed=1.000000e-12 PASS\n'
    'unitarity_orthogonality: measured=3.194755e-16 allowed=1.000000e-12 PASS\n'
    'reality: measured=0.000000e+00 allowed=1.000000e-12 PASS\n'
    'transparency: measured=9.999000e-05 allowed=1.000000e-03 PASS\n'
    'dual_route_lambda: measured=1.482080e-16 allowed=1.000000e-06 PASS\n'
    'dual_route_mu: measured=0.000000e+00 allowed=1.000000e-06 PASS\n'
    'einstein_relation: measured=2.400970e-14 allowed=1.000000e-03 PASS\n'
    'kramers_kronig_window_doubling: measured=9.005148e-01 allowed=1.000000e+00 PASS\n'
    'asymptotic_lambda_high: measured=3.184896e-03 allowed=2.000000e-02 PASS\n'
    'asymptotic_lambda_low: measured=7.895523e-06 allowed=1.000000e-02 PASS\n'
    'asymptotic_mu_low: measured=2.368594e-05 allowed=2.000000e-02 PASS\n'
    'asymptotic_mu_high: measured=1.583245e-01 allowed=1.000000e+00 PASS\n'
)
GOLDEN_SWEEP_WEAK_RATIONAL = (
    'temperature,lambda_spectral,lambda_entropic,mu_spectral,mu_entropic,A,B,'
    'err_lambda,err_mu\n'
    '0.5,0.0072658558139788495,0.0072658558139788512,0.286956781499281,'
    '0.28695678149928106,0.001579567296610095,0.17951721355356243,'
    '2.5132337334051916e-16,5.2144029466483445e-15\n'
    '1,0.024472472594085512,0.024472472594085512,0.72901419409184609,'
    '0.7290141940918462,0.0066075665983137185,0.51140244744117092,'
    '4.6636354958238029e-16,1.035482376051054e-14\n'
    '2,0.065286671483291259,0.065286671483291259,1.6749401629574177,'
    '1.6749401629574177,0.021233675113402156,1.3048468334116248,'
    '9.3262862902762814e-16,2.0954189674729549e-14\n'
)

# quartic mirror: r (degree 3) and s (degree 4) share four simple poles, two
# real ones and a complex-conjugate pair
GOLDEN_COEFFS_QUARTIC_SCALED = (
    'temperature = 1\n'
    'lambda_spectral = 0.0020205044817363689 +/- 1.0268662535519781e-16\n'
    'lambda_entropic = 0.0020205044817363689 +/- 7.9635008927712043e-17\n'
    'mu_spectral = 0.28228732199122741 +/- 3.9197529904323038e-15\n'
    'mu_entropic = 0.28228732199122741 +/- 5.2833307106593178e-15\n'
    'A = 0.0023978017978532576 +/- 1.0523490048269836e-16\n'
    'B = 0.69474632515552326 +/- 9.8657133877260565e-15\n'
    'route_discrepancy_lambda = 0\n'
    'route_discrepancy_mu = 0\n'
)
GOLDEN_CHI_QUARTIC_SCALED = (
    'omega,re_chi_vacuum,im_chi_vacuum,re_chi_thermal,im_chi_thermal,'
    're_chi_total,im_chi_total,err\n'
    '-2,-0.077148039692658335,-0.081800898553283791,0.032457969232229975,'
    '-0.44978433115162741,-0.044690070460428361,-0.53158522970491118,'
    '3.7062194069047359e-13\n'
    '-1,0.0045268203856928327,-0.0187723571105048,0.12503787147617326,'
    '-0.17411513469364509,0.12956469186186612,-0.19288749180414991,'
    '5.9843132093041843e-15\n'
    '0,0,0,0,0,0,0,0\n'
    '1,0.0045268203856928327,0.0187723571105048,0.12503787147617326,'
    '0.17411513469364509,0.12956469186186612,0.19288749180414991,'
    '5.9843132093041843e-15\n'
    '2,-0.077148039692658335,0.081800898553283791,0.032457969232229975,'
    '0.44978433115162741,-0.044690070460428361,0.53158522970491118,'
    '3.7062194069047359e-13\n'
    '3,-0.041495413167833992,0.028853291645879058,-0.019220000866976877,'
    '0.55315001013277787,-0.060715414034810872,0.582003301778657,'
    '1.960034508263396e-12\n'
)

# R0 and tau0 are derived from the amplitudes, not declared by each model
GOLDEN_MODEL_INFO = {
    "perfect": (
        'kind = perfect\n'
        'low_frequency_reflection = 1\n'
        'low_frequency_delay = 0\n'
        'cutoff_frequency = none\n'
        'validation.unitarity_modulus = 0.000000e+00 (allowed 1.0e-12, PASS)\n'
        'validation.unitarity_orthogonality = 0.000000e+00 (allowed 1.0e-12, PASS)\n'
        'validation.reality = 0.000000e+00 (allowed 1.0e-12, PASS)\n'
    ),
    "weak_rational": (
        'kind = rational\n'
        'low_frequency_reflection = 0\n'
        'low_frequency_delay = 2.0223748416156684\n'
        'cutoff_frequency = 1.1611874208078341\n'
        'validation.unitarity_modulus = 8.881784e-16 (allowed 1.0e-12, PASS)\n'
        'validation.unitarity_orthogonality = 6.349320e-16 (allowed 1.0e-12, PASS)\n'
        'validation.reality = 0.000000e+00 (allowed 1.0e-12, PASS)\n'
        'validation.transparency = 6.673759e-06 (allowed 1.0e-03, PASS)\n'
    ),
    "lorentzian_scaled": (
        'kind = lorentzian\n'
        'low_frequency_reflection = 1\n'
        'low_frequency_delay = 1\n'
        'cutoff_frequency = 1\n'
        'validation.unitarity_modulus = 6.661338e-16 (allowed 1.0e-12, PASS)\n'
        'validation.unitarity_orthogonality = 3.950519e-16 (allowed 1.0e-12, PASS)\n'
        'validation.reality = 0.000000e+00 (allowed 1.0e-12, PASS)\n'
        'validation.transparency = 9.999000e-05 (allowed 1.0e-03, PASS)\n'
    ),
}


class TestGoldenStdout:
    def test_coeffs_weak_rational(self, tmp_path, capsys):
        assert run(["coeffs", "--config", weak_rational_config(tmp_path)]) == 0
        assert capsys.readouterr().out == GOLDEN_COEFFS_WEAK_RATIONAL

    def test_chi_lorentzian_scaled_units(self, tmp_path, capsys):
        path = lorentzian_config(tmp_path, "hbar = 1.5\nc = 2\nomega_min = -2\n"
                                 "omega_max = 3\nomega_count = 6\n")
        assert run(["chi", "--config", path]) == 0
        assert capsys.readouterr().out == GOLDEN_CHI_LORENTZIAN_SCALED

    def test_verify_lorentzian(self, tmp_path, capsys):
        assert run(["verify", "--config",
                    lorentzian_config(tmp_path, "kk_points = 256\n")]) == 0
        assert capsys.readouterr().out == GOLDEN_VERIFY_LORENTZIAN

    def test_sweep_weak_rational(self, tmp_path, capsys):
        path = weak_rational_config(tmp_path,
                                    "temp_min = 0.5\ntemp_max = 2\ncount = 3\n")
        assert run(["sweep", "--config", path]) == 0
        assert capsys.readouterr().out == GOLDEN_SWEEP_WEAK_RATIONAL

    @pytest.mark.parametrize("command, golden", [
        ("coeffs", GOLDEN_COEFFS_QUARTIC_SCALED),
        ("chi", GOLDEN_CHI_QUARTIC_SCALED),
    ])
    def test_quartic_rational_scaled_units(self, tmp_path, capsys, command, golden):
        assert run([command, "--config", quartic_rational_config(tmp_path)]) == 0
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("name", GOLDEN_MODEL_INFO)
    def test_model_info(self, tmp_path, capsys, name):
        path = {
            "perfect": lambda: write(tmp_path, "c.cfg",
                                     "temperature = 1.0\n[model]\nkind = perfect\n"),
            "weak_rational": lambda: weak_rational_config(tmp_path),
            # tau0 = 1 in user units is 1/1.5 in natural units
            "lorentzian_scaled": lambda: lorentzian_config(tmp_path, "hbar = 1.5\n"),
        }[name]()
        assert run(["model-info", "--config", path]) == 0
        assert capsys.readouterr().out == GOLDEN_MODEL_INFO[name]


class TestUnitConversions:
    def test_viscosity_scales_with_hbar_c(self, tmp_path):
        # same physical mirror described in two unit systems
        natural = write(tmp_path, "nat.cfg",
                        "temperature = 1.0\n[model]\nkind = perfect\n")
        scaled = write(tmp_path, "usr.cfg",
                       "temperature = 1.0\nhbar = 2.0\nc = 3.0\n"
                       "[model]\nkind = perfect\n")
        out_n, out_u = tmp_path / "n.txt", tmp_path / "u.txt"
        assert run(["coeffs", "--config", natural, "--out", str(out_n)]) == 0
        assert run(["coeffs", "--config", scaled, "--out", str(out_u)]) == 0

        def report(out):
            # "name = value +/- error" lines -> {name: value}
            fields = (line.split(" = ") for line in out.read_text().splitlines())
            return {name: float(text.split(" +/- ")[0]) for name, text in fields}

        nat, usr = report(out_n), report(out_u)
        hbar, c = 2.0, 3.0
        assert usr["lambda_spectral"] == pytest.approx(
            nat["lambda_spectral"] / (hbar * c**2), rel=1e-12)
        assert usr["A"] == pytest.approx(nat["A"] / hbar, rel=1e-12)

    def test_lorentzian_tau0_in_user_units(self, tmp_path):
        # tau0 is a time: the natural-unit model uses tau0_user / hbar
        hbar = 2.0
        scaled = write(tmp_path, "usr.cfg",
                       f"temperature = 1.0\nhbar = {hbar}\n"
                       "[model]\nkind = lorentzian\ntau0 = 2.0\n")
        cfg = parse_config(scaled)
        assert cfg.model.tau0 == pytest.approx(1.0)

    def test_rational_coefficients_in_user_units(self, tmp_path):
        # rational coefficients are given in the user frequency variable:
        # the parsed natural-unit model must match the rescaled lorentzian
        hbar = 2.0
        path = write(tmp_path, "c.cfg", f"""
temperature = 1.0
hbar = {hbar}
[model]
kind = rational
r_numerator = -1
r_denominator = 1, -3
s_numerator = 0, -3
s_denominator = 1, -3
""")
        cfg = parse_config(path)
        from thermaldrag import LorentzianMirror
        reference = LorentzianMirror(3.0 / hbar)
        for w in (0.1, 1.0, 5.0):
            r_a, s_a = cfg.model.amplitudes(w)
            r_b, s_b = reference.amplitudes(w)
            assert r_a == pytest.approx(r_b, rel=1e-13)
            assert s_a == pytest.approx(s_b, rel=1e-13)

    def test_force_rescaling(self, tmp_path):
        # F = -lambda_user * v_user must come out in user units directly
        hbar, c = 2.0, 4.0
        v = 1e-4
        t = np.arange(9.0) * 50.0
        traj = "t,q\n" + "\n".join(f"{ti},{v * ti}" for ti in t) + "\n"
        traj_path = write(tmp_path, "traj.csv", traj)
        path = write(tmp_path, "c.cfg",
                     f"temperature = 1.0\nhbar = {hbar}\nc = {c}\n"
                     f"trajectory = {traj_path}\n[model]\nkind = perfect\n")
        out = tmp_path / "force.csv"
        assert run(["force", "--config", path, "--out", str(out)]) == 0
        force = float(out.read_text().splitlines()[1].split(",")[1])
        lam_user = 2.0 * math.pi / (3.0 * hbar * c**2)
        assert force == pytest.approx(-lam_user * v, rel=1e-10)

    def test_chi_rescaling(self, tmp_path):
        # chi_0 = i hbar omega^3/(6 pi c^2) for the perfect mirror
        hbar, c = 2.0, 3.0
        path = write(tmp_path, "c.cfg", f"""
temperature = 0.0
hbar = {hbar}
c = {c}
omega_min = 1
omega_max = 1
omega_count = 1
[model]
kind = perfect
""")
        out = tmp_path / "chi.csv"
        assert run(["chi", "--config", path, "--out", str(out)]) == 0
        row = [float(x) for x in out.read_text().splitlines()[1].split(",")]
        assert row[6] == pytest.approx(hbar / (6.0 * math.pi * c**2), rel=1e-10)
