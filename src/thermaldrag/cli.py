"""Command-line interface: coefficient reports, sweeps, spectra and checks.

Subcommands: ``coeffs``, ``sweep``, ``chi``, ``verify``, ``force``,
``model-info``.  All numeric CSV fields carry 17 significant digits and
identical configurations produce byte-identical output.  Exit codes:
0 ok, 2 config error (non-finite numbers included), 3 route discrepancy
above tolerance or NaN, 4 model validation failure, 5 verify failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import coefficients as coeff
from . import susceptibility as suscept
from .config import RunConfig, parse_config
from .errors import (ConfigError, GridTooCoarse, ThermalDragError,
                     ValidationFailed, WindowTruncationWarning)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ROUTE = 3
EXIT_VALIDATION = 4
EXIT_VERIFY = 5

SWEEP_HEADER = ("temperature,lambda_spectral,lambda_entropic,"
                "mu_spectral,mu_entropic,A,B,err_lambda,err_mu")
CHI_HEADER = ("omega,re_chi_vacuum,im_chi_vacuum,re_chi_thermal,"
              "im_chi_thermal,re_chi_total,im_chi_total,err")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(text: str, out_path: str | None):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _temperature(config: RunConfig, allow_zero: bool = False,
                 default: float | None = None) -> float:
    temp = config.get_float("temperature", default)
    if temp is None:
        raise ConfigError("missing required key 'temperature'")
    if temp < 0 or (temp == 0 and not allow_zero):
        raise ConfigError(f"temperature must be {'>= 0' if allow_zero else '> 0'},"
                          f" got {temp}")
    return temp


def _sweep_row(config: RunConfig,
               temp_user: float) -> tuple[str, coeff.CoefficientReport]:
    units = config.units
    report = coeff.compute_coefficients(config.model, temp_user, config.quadrature)
    err = report.error_estimates
    err_lambda = max(err["lambda_spectral"], err["lambda_entropic"])
    err_mu = max(err["mu_spectral"], err["mu_entropic"])
    fields = [
        temp_user,
        units.viscosity_from_natural(report.lambda_spectral),
        units.viscosity_from_natural(report.lambda_entropic),
        units.mass_from_natural(report.mu_spectral),
        units.mass_from_natural(report.mu_entropic),
        units.power_from_natural(report.A),
        report.B,
        units.viscosity_from_natural(err_lambda),
        units.mass_from_natural(err_mu),
    ]
    return ",".join(_fmt(f) for f in fields), report


def _route_gate(reports, tol: float) -> int:
    """EXIT_ROUTE when a route discrepancy exceeds ``tol`` or is NaN."""
    worst = np.max([(r.route_discrepancy_lambda, r.route_discrepancy_mu)
                    for r in reports])
    if not worst <= tol:
        print(f"route discrepancy {worst:.3e} exceeds tolerance {tol:.3e}",
              file=sys.stderr)
        return EXIT_ROUTE
    return EXIT_OK


def cmd_coeffs(args) -> int:
    config = parse_config(args.config)
    temp = _temperature(config)
    row, report = _sweep_row(config, temp)
    units = config.units
    err = report.error_estimates
    lines = [
        f"temperature = {_fmt(temp)}",
        f"lambda_spectral = {_fmt(units.viscosity_from_natural(report.lambda_spectral))}"
        f" +/- {_fmt(units.viscosity_from_natural(err['lambda_spectral']))}",
        f"lambda_entropic = {_fmt(units.viscosity_from_natural(report.lambda_entropic))}"
        f" +/- {_fmt(units.viscosity_from_natural(err['lambda_entropic']))}",
        f"mu_spectral = {_fmt(units.mass_from_natural(report.mu_spectral))}"
        f" +/- {_fmt(units.mass_from_natural(err['mu_spectral']))}",
        f"mu_entropic = {_fmt(units.mass_from_natural(report.mu_entropic))}"
        f" +/- {_fmt(units.mass_from_natural(err['mu_entropic']))}",
        f"A = {_fmt(units.power_from_natural(report.A))}"
        f" +/- {_fmt(units.power_from_natural(err['A']))}",
        f"B = {_fmt(report.B)} +/- {_fmt(err['B'])}",
        f"route_discrepancy_lambda = {_fmt(report.route_discrepancy_lambda)}",
        f"route_discrepancy_mu = {_fmt(report.route_discrepancy_mu)}",
    ]
    print("\n".join(lines))
    if args.out:
        _write(SWEEP_HEADER + "\n" + row + "\n", args.out)
    return _route_gate([report], args.tol)


def cmd_sweep(args) -> int:
    config = parse_config(args.config)
    t_min = config.require_float("temp_min")
    t_max = config.require_float("temp_max")
    count = config.get_int("count", 2)
    spacing = config.get_str("spacing", "log")
    if not (t_min > 0 and t_max > t_min):
        raise ConfigError(f"need 0 < temp_min < temp_max, got [{t_min}, {t_max}]")
    if count < 2:
        raise ConfigError(f"count must be >= 2, got {count}")
    if spacing not in ("log", "linear"):
        raise ConfigError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    if spacing == "log":
        temps = np.geomspace(t_min, t_max, count)
    else:
        temps = np.linspace(t_min, t_max, count)

    rows, reports = zip(*(_sweep_row(config, float(temp)) for temp in temps))
    _write(SWEEP_HEADER + "\n" + "\n".join(rows) + "\n", args.out)
    return _route_gate(reports, args.tol)


def cmd_chi(args) -> int:
    config = parse_config(args.config)
    temp = _temperature(config, allow_zero=True)
    omega_min = config.require_float("omega_min")
    omega_max = config.require_float("omega_max")
    count = config.get_int("omega_count", 2)
    if not omega_max >= omega_min:
        raise ConfigError("need omega_max >= omega_min")
    if count < 1:
        raise ConfigError("omega_count must be >= 1")
    units = config.units
    omegas = np.linspace(omega_min, omega_max, count)

    rows = []
    for omega_user in omegas:
        value = suscept.chi_total(config.model,
                                  units.frequency_to_natural(float(omega_user)),
                                  temp, config.quadrature)
        vac = units.susceptibility_from_natural(value.chi_vacuum)
        thermal = units.susceptibility_from_natural(value.chi_thermal)
        total = units.susceptibility_from_natural(value.chi_total)
        err = units.susceptibility_from_natural(value.error_estimate)
        rows.append(",".join(_fmt(f) for f in (
            omega_user, vac.real, vac.imag, thermal.real, thermal.imag,
            total.real, total.imag, err,
        )))
    _write(CHI_HEADER + "\n" + "\n".join(rows) + "\n", args.out)
    return EXIT_OK


def cmd_force(args) -> int:
    config = parse_config(args.config)
    temp = _temperature(config)
    traj_path = config.get_str("trajectory")
    if traj_path is None:
        raise ConfigError("missing required key 'trajectory'")
    path = Path(traj_path)
    if not path.is_file():
        raise ConfigError(f"trajectory file not found: {path}")

    rows = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") in ("t,q", "time,q"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 't,q', got {raw!r}")
        try:
            sample = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric entry {raw!r}") from exc
        if not all(map(math.isfinite, sample)):
            raise ConfigError(f"{path}:{lineno}: non-finite entry {raw!r}")
        rows.append(sample)
    if len(rows) < 3:
        raise ConfigError(f"trajectory needs >= 3 points, got {len(rows)}")

    units = config.units
    t_user = np.array([r[0] for r in rows])
    q_user = np.array([r[1] for r in rows])
    report = coeff.compute_coefficients(config.model, temp, config.quadrature)
    try:
        t_nat, force_nat = coeff.quasistatic_force(
            report, units.time_to_natural(t_user),
            units.displacement_to_natural(q_user))
    except (ValueError, GridTooCoarse) as exc:
        raise ConfigError(f"bad trajectory: {exc}") from exc
    t_out = units.time_from_natural(t_nat)
    f_out = units.force_from_natural(force_nat)
    lines = [f"{_fmt(t)},{_fmt(f)}" for t, f in zip(t_out, f_out)]
    _write("t,F\n" + "\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _verify_checks(config: RunConfig, tol: float):
    """Yield (name, measured, allowed, passed) for the invariant suite."""
    model = config.model
    cfg = config.quadrature
    temp = _temperature(config, default=1.0)

    for check in config.validation.checks:
        yield check.name, check.max_violation, check.allowed, check.passed

    routes = coeff.compute_coefficients(model, temp, cfg)
    yield ("dual_route_lambda", routes.route_discrepancy_lambda, tol,
           routes.route_discrepancy_lambda <= tol)
    yield ("dual_route_mu", routes.route_discrepancy_mu, tol,
           routes.route_discrepancy_mu <= tol)

    einstein_tol = config.get_float("einstein_tol", 1e-3)
    measured = coeff.einstein_check(model, temp, cfg)
    yield "einstein_relation", measured, einstein_tol, measured <= einstein_tol

    if model.cutoff_frequency is not None:
        # chi_T grows at the window edges, so the reconstruction is
        # truncation limited; the assertable invariant is that doubling
        # the window (at fixed spacing) shrinks the discrepancy.  The
        # default window scales with the wider of the reflection band and
        # the thermal frequency.
        window = config.get_float("kk_window")
        if window is None:
            window = 40.0 * max(model.cutoff_frequency, temp)
        else:
            window = config.units.frequency_to_natural(window)
        points = config.get_int("kk_points", 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WindowTruncationWarning)
            base = suscept.kramers_kronig_check(
                model, temp, np.linspace(-window, window, points), cfg)
            doubled = suscept.kramers_kronig_check(
                model, temp, np.linspace(-2 * window, 2 * window, 2 * points), cfg)
        ratio = doubled / base if base > 0 else 0.0
        yield "kramers_kronig_window_doubling", ratio, 1.0, ratio < 1.0

        limits = coeff.asymptotics(model, cfg)
        cutoff = model.cutoff_frequency
        t_hi, t_lo = 100.0 * cutoff, 1e-3 * cutoff
        lam_hi = coeff.lambda_spectral(model, t_hi, cfg)
        gap = abs(lam_hi - limits.lambda_high_temperature(t_hi)) / lam_hi
        yield "asymptotic_lambda_high", gap, 0.02, gap <= 0.02
        # the low-temperature laws are leading order in R0 and (1-2R0)tau0;
        # when a law degenerates to zero there is nothing to compare against
        lam_law = limits.lambda_low_temperature(t_lo)
        if lam_law != 0.0:
            lam_lo = coeff.lambda_spectral(model, t_lo, cfg)
            gap = abs(lam_lo - lam_law) / lam_lo
            yield "asymptotic_lambda_low", gap, 0.01, gap <= 0.01
        mu_law = limits.mu_low_temperature(t_lo)
        if mu_law != 0.0:
            mu_lo = coeff.mu_spectral(model, t_lo, cfg)
            gap = abs(mu_lo - mu_law) / abs(mu_law)
            yield "asymptotic_mu_low", gap, 0.02, gap <= 0.02
        mu_hi = coeff.mu_spectral(model, t_hi, cfg)
        bound = 0.01 * t_hi  # next-order corrections are O(cutoff) at T = 100 cutoff
        gap = abs(mu_hi - limits.mu_high_temperature(t_hi))
        yield "asymptotic_mu_high", gap, bound, gap <= bound
    else:
        # no transparency cutoff: mass corrections are exact zeros
        mu = coeff.mu_spectral(model, temp, cfg)
        yield "mu_exact_zero", abs(mu), cfg.abs_tol, abs(mu) <= cfg.abs_tol


def cmd_verify(args) -> int:
    config = parse_config(args.config)
    lines = []
    all_pass = True
    for name, measured, allowed, passed in _verify_checks(config, args.tol):
        all_pass &= passed
        lines.append(f"{name}: measured={measured:.6e} allowed={allowed:.6e} "
                     f"{'PASS' if passed else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write(text, args.out)
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_model_info(args) -> int:
    config = parse_config(args.config)
    model = config.model
    units = config.units
    cutoff = model.cutoff_frequency
    lines = [
        f"kind = {config.model_kind}",
        f"low_frequency_reflection = {_fmt(model.low_frequency_reflection)}",
        f"low_frequency_delay = {_fmt(units.time_from_natural(model.low_frequency_delay))}",
        "cutoff_frequency = " + (
            "none" if cutoff is None else _fmt(units.frequency_from_natural(cutoff))),
    ]
    for check in config.validation.checks:
        lines.append(f"validation.{check.name} = {check.max_violation:.6e} "
                     f"(allowed {check.allowed:.1e}, "
                     f"{'PASS' if check.passed else 'FAIL'})")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="thermaldrag",
        description="Motional viscosity and inertia of a mirror in a thermal field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "coeffs": "viscosity and mass correction at one temperature",
        "sweep": "coefficient table over a temperature range",
        "chi": "susceptibility over a frequency grid",
        "verify": "run the invariant suite for the configured model",
        "force": "quasistatic force along a trajectory CSV",
        "model-info": "model parameters and validation report",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
        if name in ("coeffs", "sweep", "verify"):  # the commands with a route gate
            cmd.add_argument("--tol", type=float, default=1e-6,
                             help="allowed relative route discrepancy")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailed as exc:
        print(f"model validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ThermalDragError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
