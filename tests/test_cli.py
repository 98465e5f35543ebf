import math

import numpy as np
import pytest

from thermaldrag import cli
from thermaldrag.config import parse_config
from thermaldrag.errors import ConfigError


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


def run(args):
    return cli.main(args)


class TestConfigParsing:
    def test_minimal(self, tmp_path):
        cfg = parse_config(lorentzian_config(tmp_path))
        assert cfg.model_kind == "lorentzian"
        assert cfg.units.is_natural
        assert cfg.quadrature.rel_tol == 1e-10
        assert cfg.get_float("temperature") == 1.0

    def test_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "c.cfg", """
# leading comment
temperature = 2.0   # trailing comment

[model]
kind = perfect
""")
        cfg = parse_config(path)
        assert cfg.get_float("temperature") == 2.0
        assert cfg.model_kind == "perfect"

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

    def test_out_csv_row(self, tmp_path, capsys):
        path = lorentzian_config(tmp_path)
        out = tmp_path / "row.csv"
        assert run(["coeffs", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 2

    def test_route_discrepancy_gate_exits_3(self, tmp_path, capsys):
        # an impossible tolerance trips the scriptable cross-check gate
        path = lorentzian_config(tmp_path)
        assert run(["coeffs", "--config", path, "--tol", "1e-18"]) == 3
        assert "exceeds tolerance" in capsys.readouterr().err

    def test_nan_reflection_trips_route_gate(self, tmp_path, capsys, monkeypatch):
        # NaN coefficients give NaN route discrepancies, never a pass
        from thermaldrag import models
        true_r = models.reflection_probability
        monkeypatch.setattr(models, "reflection_probability", lambda model, omega:
                            np.where(np.asarray(omega) > 3.0, np.nan,
                                     true_r(model, omega)))
        assert run(["coeffs", "--config", lorentzian_config(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "route_discrepancy_lambda = nan" in captured.out
        assert "route discrepancy nan exceeds tolerance" in captured.err


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

    def test_perfect_mirror_reports_zero_mass_terms(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg",
                     "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "mu_exact_zero: measured=0.000000e+00" in out
        assert "dual_route_mu: measured=0.000000e+00" in out

    def test_weak_rational_mirror_passes(self, tmp_path, capsys):
        # R0 = 0 degenerates the low-T viscosity law; that check is skipped
        path = weak_rational_config(tmp_path, "kk_points = 256")
        assert run(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "asymptotic_lambda_low" not in out
        assert "asymptotic_mu_low" in out

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
        # dispersion-relation check stays green
        from thermaldrag import models
        true_b = models.b_function
        monkeypatch.setattr(models, "b_function",
                            lambda model, omega: -true_b(model, omega))
        path = lorentzian_config(tmp_path, "kk_points = 256\n")
        assert run(["verify", "--config", path]) == 5
        out = capsys.readouterr().out
        assert [l for l in out.splitlines()
                if l.startswith("kramers_kronig")][0].endswith("PASS")
        assert [l for l in out.splitlines()
                if l.startswith("dual_route_mu")][0].endswith("FAIL")
        assert [l for l in out.splitlines()
                if l.startswith("dual_route_lambda")][0].endswith("PASS")


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

    def test_out_writes_stdout_text(self, tmp_path, capsys):
        path = lorentzian_config(tmp_path)
        assert run(["model-info", "--config", path]) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "info.txt"
        assert run(["model-info", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == expected


class TestMain:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_patched_handler_called_after_earlier_request(self, tmp_path, capsys,
                                                          monkeypatch):
        path = write(tmp_path, "c.cfg", "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_coeffs", lambda args: seen.append(args) or 7)
        assert run(["coeffs", "--config", path]) == 7
        assert [args.config for args in seen] == [path]

    @pytest.mark.parametrize("command", ["chi", "force", "model-info"])
    def test_tol_rejected_without_route_gate(self, tmp_path, command):
        # only coeffs, sweep and verify compare routes against --tol
        path = lorentzian_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", path, "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_usage_error_then_valid_request(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", "temperature = 1.0\n[model]\nkind = perfect\n")
        assert run(["coeffs", "--config", path]) == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run(["coeffs", "--tol", "not-a-number"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(["coeffs", "--config", path]) == 0
        assert capsys.readouterr().out == expected


# stdout recorded before the quadrature driver batched its panels; any
# change in rounding anywhere in the stack shows up here
GOLDEN_COEFFS_WEAK_RATIONAL = (
    'temperature = 1\n'
    'lambda_spectral = 0.024472472594085502 +/- 2.369707260666736e-12\n'
    'lambda_entropic = 0.024472472594085498 +/- 4.4958345948660654e-13\n'
    'mu_spectral = 0.7290141940918462 +/- 3.2149610878955793e-11\n'
    'mu_entropic = 0.7290141940918462 +/- 6.7562114408686878e-12\n'
    'A = 0.0066075665983137159 +/- 5.6715898812562986e-13\n'
    'B = 0.51140244744117092 +/- 2.891106256078222e-11\n'
    'route_discrepancy_lambda = 1.4176936713751225e-16\n'
    'route_discrepancy_mu = 0\n'
)
GOLDEN_CHI_LORENTZIAN_SCALED = (
    'omega,re_chi_vacuum,im_chi_vacuum,re_chi_thermal,im_chi_thermal,'
    're_chi_total,im_chi_total,err\n'
    '-2,-0.070476377636938509,-0.08553622826578558,-0.05755676815592,'
    '-0.27237457799202774,-0.12803314579285852,-0.3579108062578133,'
    '2.7711814618382167e-12\n'
    '-1,-0.0073022786880829254,-0.015752967709700673,-0.023071561470117224,'
    '-0.1531666306064437,-0.030373840158200147,-0.16891959831614436,'
    '5.3690970809663751e-13\n'
    '0,0,0,7.4669887299969643e-19,0,7.4669887299969643e-19,0,'
    '1.9965818701703663e-18\n'
    '1,-0.0073022786880829237,0.015752967709700673,-0.023071561470117224,'
    '0.1531666306064437,-0.030373840158200147,0.16891959831614436,'
    '5.3690970809663751e-13\n'
    '2,-0.070476377636938509,0.08553622826578558,-0.05755676815592,'
    '0.27237457799202774,-0.12803314579285852,0.3579108062578133,'
    '2.7711814618382167e-12\n'
    '3,-0.22729178786830204,0.20327150903182611,-0.08037971158600582,'
    '0.37487358419767774,-0.30767149945430788,0.5781450932295038,'
    '7.8148908873361227e-12\n'
)


class TestGoldenStdout:
    def test_coeffs_weak_rational(self, tmp_path, capsys):
        assert run(["coeffs", "--config", weak_rational_config(tmp_path)]) == 0
        assert capsys.readouterr().out == GOLDEN_COEFFS_WEAK_RATIONAL

    def test_chi_lorentzian_scaled_units(self, tmp_path, capsys):
        path = lorentzian_config(tmp_path, "hbar = 1.5\nc = 2\nomega_min = -2\n"
                                 "omega_max = 3\nomega_count = 6\n")
        assert run(["chi", "--config", path]) == 0
        assert capsys.readouterr().out == GOLDEN_CHI_LORENTZIAN_SCALED


class TestUnitConversions:
    def test_viscosity_scales_with_hbar_c(self, tmp_path):
        # same physical mirror described in two unit systems
        natural = write(tmp_path, "nat.cfg",
                        "temperature = 1.0\n[model]\nkind = perfect\n")
        scaled = write(tmp_path, "usr.cfg",
                       "temperature = 1.0\nhbar = 2.0\nc = 3.0\n"
                       "[model]\nkind = perfect\n")
        out_n, out_u = tmp_path / "n.csv", tmp_path / "u.csv"
        assert run(["coeffs", "--config", natural, "--out", str(out_n)]) == 0
        assert run(["coeffs", "--config", scaled, "--out", str(out_u)]) == 0
        row_n = [float(x) for x in out_n.read_text().splitlines()[1].split(",")]
        row_u = [float(x) for x in out_u.read_text().splitlines()[1].split(",")]
        hbar, c = 2.0, 3.0
        assert row_u[1] == pytest.approx(row_n[1] / (hbar * c**2), rel=1e-12)
        assert row_u[5] == pytest.approx(row_n[5] / hbar, rel=1e-12)

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
