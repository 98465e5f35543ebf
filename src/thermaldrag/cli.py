"""Command-line interface: coefficient reports, sweeps, spectra and checks.

Subcommands: ``coeffs``, ``sweep``, ``chi``, ``verify``, ``force``,
``model-info``.  ``main`` alone reads the config, once, and hands it to
the command's handler, which prints its output and returns the exit code;
``main`` alone sends that output to stdout or to the ``--out`` file.  All
numeric CSV fields carry 17 significant digits, and identical
configurations produce byte-identical output on one machine and numpy
build (other SIMD code paths may move the last digits).  Exit codes: 0 ok,
2 config error (non-finite numbers and file I/O errors included),
3 route discrepancy above tolerance or NaN, a printed value that is not
finite, or a printed value whose quadrature did not converge (named on
stderr), 4 model validation failure, 5 verify failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import coefficients as coeff
from . import susceptibility as suscept
from .config import RunConfig, parse_config, read_text
from .core import UnitSystem
from .errors import ConfigError, GridTooCoarse, ThermalDragError, ValidationFailed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ROUTE = 3
EXIT_VALIDATION = 4
EXIT_VERIFY = 5

SWEEP_HEADER = ("temperature,lambda_spectral,lambda_entropic,"
                "mu_spectral,mu_entropic,A,B,err_lambda,err_mu")
CHI_HEADER = ("omega,re_chi_vacuum,im_chi_vacuum,re_chi_thermal,"
              "im_chi_thermal,re_chi_total,im_chi_total,err")

# each CoefficientReport field, in report order, with its conversion to
# user units; B is an energy, whose unit the two unit systems share
_REPORT_UNITS = {
    "lambda_spectral": UnitSystem.viscosity_from_natural,
    "lambda_entropic": UnitSystem.viscosity_from_natural,
    "mu_spectral": UnitSystem.mass_from_natural,
    "mu_entropic": UnitSystem.mass_from_natural,
    "A": UnitSystem.power_from_natural,
    "B": lambda units, value: value,
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _temperature(config: RunConfig, allow_zero: bool = False,
                 default: float | None = None) -> float:
    temp = config.get_float("temperature", default)
    if temp is None:
        raise ConfigError("missing required key 'temperature'")
    if temp < 0 or (temp == 0 and not allow_zero):
        raise ConfigError(f"temperature must be {'>= 0' if allow_zero else '> 0'},"
                          f" got {temp}")
    return temp


def _in_user_units(report: coeff.CoefficientReport, units: UnitSystem) -> dict:
    """{field: (value, error estimate)} in user units, in report order."""
    return {name: (to_user(units, getattr(report, name)),
                   to_user(units, report.error_estimates[name]))
            for name, to_user in _REPORT_UNITS.items()}


def _sweep_row(config: RunConfig,
               temp_user: float) -> tuple[list, coeff.CoefficientReport]:
    report = coeff.compute_coefficients(config.model, temp_user, config.quadrature)
    user = _in_user_units(report, config.units)
    # the conversions divide by a positive constant, so they commute with max
    err_lambda = max(user["lambda_spectral"][1], user["lambda_entropic"][1])
    err_mu = max(user["mu_spectral"][1], user["mu_entropic"][1])
    fields = [temp_user, *(value for value, _ in user.values()), err_lambda, err_mu]
    return fields, report


def _route_gate(reports, tol: float) -> int:
    """EXIT_ROUTE when a route discrepancy exceeds ``tol`` or is NaN."""
    # a NaN discrepancy is the worst one
    worst = max((d for r in reports
                 for d in (r.route_discrepancy_lambda, r.route_discrepancy_mu)),
                key=lambda d: (math.isnan(d), d))
    if not worst <= tol:
        print(f"route discrepancy {worst:.3e} exceeds tolerance {tol:.3e}",
              file=sys.stderr)
        return EXIT_ROUTE
    return EXIT_OK


def _output_gate(values, flags) -> int:
    """EXIT_ROUTE when a printed value is NaN or infinite, or when a
    quadrature behind it did not converge: ``values`` are the printed rows,
    ``flags`` the ``converged`` dicts of the reports or values printed, and
    stderr names each unconverged field once.
    """
    if not all(math.isfinite(v) for row in values for v in row):
        print("a printed value is not a finite number", file=sys.stderr)
        return EXIT_ROUTE
    failed = dict.fromkeys(name for converged in flags
                           for name, ok in converged.items() if not ok)
    if failed:
        print(f"quadrature did not converge: {', '.join(failed)}", file=sys.stderr)
        return EXIT_ROUTE
    return EXIT_OK


def cmd_coeffs(config: RunConfig, args) -> int:
    temp = _temperature(config)
    report = coeff.compute_coefficients(config.model, temp, config.quadrature)
    user = _in_user_units(report, config.units)
    print(f"temperature = {_fmt(temp)}",
          *(f"{name} = {_fmt(value)} +/- {_fmt(err)}" for name, (value, err) in user.items()),
          f"route_discrepancy_lambda = {_fmt(report.route_discrepancy_lambda)}",
          f"route_discrepancy_mu = {_fmt(report.route_discrepancy_mu)}", sep="\n")
    return (_route_gate([report], args.tol)
            or _output_gate(list(user.values()), [report.converged]))


def cmd_sweep(config: RunConfig, args) -> int:
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
    temps = (np.geomspace if spacing == "log" else np.linspace)(t_min, t_max, count)

    rows, reports = zip(*(_sweep_row(config, float(temp)) for temp in temps))
    print(SWEEP_HEADER, *(",".join(_fmt(f) for f in row) for row in rows), sep="\n")
    return (_route_gate(reports, args.tol)
            or _output_gate(rows, (r.converged for r in reports)))


def cmd_chi(config: RunConfig, args) -> int:
    temp = _temperature(config, allow_zero=True)
    omega_min = config.require_frequency("omega_min")
    omega_max = config.require_frequency("omega_max")
    count = config.get_int("omega_count", 2)
    if not omega_max >= omega_min:
        raise ConfigError("need omega_max >= omega_min")
    if not math.isfinite(omega_max - omega_min):  # linspace's step would overflow
        raise ConfigError(f"need a finite omega_max - omega_min, "
                          f"got [{omega_min}, {omega_max}]")
    if count < 1:
        raise ConfigError("omega_count must be >= 1")
    units = config.units
    omegas = np.linspace(omega_min, omega_max, count)

    table, flags = [], []
    for omega_user in omegas:
        value = suscept.chi_total(config.model,
                                  units.frequency_to_natural(float(omega_user)),
                                  temp, config.quadrature)
        vac, thermal, total, err = map(units.susceptibility_from_natural, (
            value.chi_vacuum, value.chi_thermal, value.chi_total, value.error_estimate))
        table.append((omega_user, vac.real, vac.imag, thermal.real, thermal.imag,
                      total.real, total.imag, err))
        flags.append(value.converged)
    print(CHI_HEADER, *(",".join(_fmt(f) for f in row) for row in table), sep="\n")
    return _output_gate(table, flags)


def cmd_force(config: RunConfig, args) -> int:
    temp = _temperature(config)
    traj_path = config.get_str("trajectory")
    if traj_path is None:
        raise ConfigError("missing required key 'trajectory'")

    rows = []
    text = read_text(traj_path, "trajectory")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") in ("t,q", "time,q"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{traj_path}:{lineno}: expected 't,q', got {raw!r}")
        try:
            sample = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{traj_path}:{lineno}: non-numeric entry {raw!r}") from exc
        if not all(map(math.isfinite, sample)):
            raise ConfigError(f"{traj_path}:{lineno}: non-finite entry {raw!r}")
        rows.append(sample)
    if len(rows) < 3:
        raise ConfigError(f"trajectory needs >= 3 points, got {len(rows)}")

    units = config.units
    t_user = np.array([r[0] for r in rows])
    q_user = np.array([r[1] for r in rows])
    report = coeff.compute_coefficients(config.model, temp, config.quadrature)
    # a sample or a force near the float range may overflow on conversion:
    # the time grid's check or the output gate judges it
    with np.errstate(all="ignore"):
        try:
            t_nat, force_nat = coeff.quasistatic_force(
                report, units.time_to_natural(t_user),
                units.displacement_to_natural(q_user))
        except (ValueError, GridTooCoarse) as exc:
            raise ConfigError(f"bad trajectory: {exc}") from exc
        t_out = units.time_from_natural(t_nat)
        f_out = units.force_from_natural(force_nat)
    print("t,F", *(f"{_fmt(t)},{_fmt(f)}" for t, f in zip(t_out, f_out)), sep="\n")
    return _output_gate([t_out, f_out], [report.converged])


def _verify_checks(config: RunConfig, tol: float):
    """Yield (name, measured, allowed, passed) for the invariant suite."""
    model = config.model
    cfg = config.quadrature
    temp = _temperature(config, default=1.0)
    points = config.get_int("kk_points", 1024)
    if points < 64:
        raise ConfigError(f"kk_points must be >= 64, got {points}")
    einstein_tol = config.get_float("einstein_tol", 1e-3)
    if not einstein_tol > 0:
        raise ConfigError(f"einstein_tol must be > 0, got {einstein_tol}")

    for check in config.validation.checks:
        yield check.name, check.max_violation, check.allowed, check.passed

    report = coeff.compute_coefficients(model, temp, cfg)
    yield ("dual_route_lambda", report.route_discrepancy_lambda, tol,
           report.route_discrepancy_lambda <= tol)
    yield ("dual_route_mu", report.route_discrepancy_mu, tol,
           report.route_discrepancy_mu <= tol)

    measured = coeff.einstein_check(model, report, cfg)
    yield "einstein_relation", measured, einstein_tol, measured <= einstein_tol

    if model.cutoff_frequency is not None:
        # chi_T grows at the window edges, so the reconstruction is
        # truncation limited; the assertable invariant is that doubling
        # the window (one sweep, at fixed spacing) shrinks the discrepancy.
        # The window scales with the wider of the reflection band and the
        # thermal frequency.
        window = 40.0 * max(model.cutoff_frequency, temp)
        base, doubled = math.nan, math.nan  # a window that overflows has no grid: FAIL
        if window < math.inf:
            base, doubled = suscept.kramers_kronig_window_doubling(
                model, temp, window, points, cfg)
        ratio = doubled / base if base != 0 else 0.0  # NaN chi: NaN ratio, FAIL
        yield "kramers_kronig_window_doubling", ratio, 1.0, ratio < 1.0

        limits = coeff.asymptotics(model, cfg)
        cutoff = model.cutoff_frequency
        t_hi, t_lo = 100.0 * cutoff, 1e-3 * cutoff
        hi = coeff.compute_coefficients(model, t_hi, cfg)
        gap = coeff.relative_gap(
            abs(hi.lambda_spectral - limits.lambda_high_temperature(t_hi)),
            abs(hi.lambda_spectral))
        yield "asymptotic_lambda_high", gap, 0.02, gap <= 0.02
        # the low-temperature laws are leading order in R0 and (1-2R0)tau0;
        # when a law degenerates to zero there is nothing to compare against.
        # A t_lo that underflows to 0 has no report: both lines FAIL on NaN
        lo_lambda = lo_mu = lam_law = mu_law = math.nan
        if t_lo > 0:
            lo = coeff.compute_coefficients(model, t_lo, cfg)
            lo_lambda, lo_mu = lo.lambda_spectral, lo.mu_spectral
            lam_law = limits.lambda_low_temperature(t_lo)
            mu_law = limits.mu_low_temperature(t_lo)
        if lam_law != 0.0:
            gap = coeff.relative_gap(abs(lo_lambda - lam_law), abs(lo_lambda))
            yield "asymptotic_lambda_low", gap, 0.01, gap <= 0.01
        if mu_law != 0.0:
            gap = coeff.relative_gap(abs(lo_mu - mu_law), abs(mu_law))
            yield "asymptotic_mu_low", gap, 0.02, gap <= 0.02
        bound = 0.01 * t_hi  # next-order corrections are O(cutoff) at T = 100 cutoff
        gap = abs(hi.mu_spectral - limits.mu_high_temperature(t_hi))
        yield "asymptotic_mu_high", gap, bound, gap <= bound
    else:
        # no transparency cutoff: mass corrections are exact zeros, up to
        # the integral's own claimed error
        mu, allowed = abs(report.mu_spectral), report.error_estimates["mu_spectral"]
        yield "mu_exact_zero", mu, allowed, mu <= allowed


def cmd_verify(config: RunConfig, args) -> int:
    lines = []
    all_pass = True
    for name, measured, allowed, passed in _verify_checks(config, args.tol):
        all_pass &= passed
        lines.append(f"{name}: measured={measured:.6e} allowed={allowed:.6e} "
                     f"{'PASS' if passed else 'FAIL'}")
    print(*lines, sep="\n")
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_model_info(config: RunConfig, args) -> int:
    model = config.model
    units = config.units
    cutoff = model.cutoff_frequency
    # a pole at omega = 0 or an overflowing delay is judged by the gate below
    values = [model.low_frequency_reflection,
              units.time_from_natural(model.low_frequency_delay)]
    if cutoff is not None:
        values.append(units.frequency_from_natural(cutoff))
    lines = [
        f"kind = {config.model_kind}",
        f"low_frequency_reflection = {_fmt(values[0])}",
        f"low_frequency_delay = {_fmt(values[1])}",
        "cutoff_frequency = " + ("none" if cutoff is None else _fmt(values[2])),
    ]
    for check in config.validation.checks:
        lines.append(f"validation.{check.name} = {check.max_violation:.6e} "
                     f"(allowed {check.allowed:.1e}, "
                     f"{'PASS' if check.passed else 'FAIL'})")
    print(*lines, sep="\n")
    return _output_gate([values], [])


def _tolerance(text: str) -> float:
    """The --tol value: a finite number >= 0, else an argparse usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and {command: its own parser}, built once per process."""
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
        cmd.add_argument("--out", default=None,
                         help="write the stdout text to this file instead")
        if name in ("coeffs", "sweep", "verify"):  # the commands with a route gate
            cmd.add_argument("--tol", type=_tolerance, default=coeff.ROUTE_TOLERANCE,
                             help="allowed relative route discrepancy")
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return _parsers()[0]


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it, help and errors included.

    When argv starts with a command, that command's own parser reads the
    rest, as the full parser would hand it over.  Anything left unparsed
    then, and an argv that starts with no command, goes to the full
    parser, which prints its usage and errors as always.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # looked up at call time, so a replaced cmd_* function is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        config = parse_config(args.config)
        if not args.out:
            return handler(config, args)
        # the file is written whenever the handler returns, whatever its
        # exit code, and never when it raises
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = handler(config, args)
        try:
            Path(args.out).write_text(text.getvalue())
        except OSError as exc:
            raise ConfigError(f"cannot write --out file {args.out}: {exc}") from exc
        return code
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
