"""Output checks for benchmark requests; a request failing any of them counts
in ``failed``.

A request passes when its exit code is 0, every numeric field it prints is
finite, the spectral and entropic routes agree to ``ROUTE_TOL``, chi on a
symmetric grid satisfies chi(-omega) = conj chi(omega), and every ``verify``
line reads PASS.  For the default seed the first pass is also compared with
``reference.json``, recorded at the commit that introduced the benchmark, at
the acceptance suite's closed-form tolerance: quadrature changes may move
the last digits, so byte identity is not required there.
"""

from __future__ import annotations

import math

ROUTE_TOL = 1e-6          # dual-route agreement pinned by the acceptance suite
CONJUGATE_RTOL = 1e-9     # chi(-w) vs conj chi(w), relative to the grid peak
REFERENCE_RTOL = 1e-8     # agreement with reference.json
REFERENCE_ERR_FACTOR = 10.0  # ... or within this multiple of the claimed error

COEFF_FIELDS = ("lambda_spectral", "lambda_entropic", "mu_spectral",
                "mu_entropic", "A", "B")
# the documented chi CSV header, spelled out so the check does not rely on
# the program's own constant
CHI_HEADER = ("omega,re_chi_vacuum,im_chi_vacuum,re_chi_thermal,"
              "im_chi_thermal,re_chi_total,im_chi_total,err")


class BadOutput(ValueError):
    """The output does not have the documented format."""


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise BadOutput(f"not a number: {text!r}") from None


def parse_coeffs(stdout: str) -> dict[str, tuple[float, float | None]]:
    """``key = value [+/- error]`` lines -> {key: (value, error or None)}."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(" = ")
        if not sep:
            raise BadOutput(f"not a 'key = value' line: {line!r}")
        value, _, err = rest.partition(" +/- ")
        fields[key] = (_number(value), _number(err) if err else None)
    return fields


def parse_chi(stdout: str) -> list[list[float]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != CHI_HEADER:
        raise BadOutput("missing chi CSV header")
    rows = [[_number(x) for x in line.split(",")] for line in lines[1:]]
    if not rows or any(len(row) != 8 for row in rows):
        raise BadOutput("chi rows must have 8 columns")
    return rows


def parse_verify(stdout: str) -> list[tuple[str, float, float, str]]:
    checks = []
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": measured=")
        measured, sep2, rest = rest.partition(" allowed=")
        allowed, _, verdict = rest.partition(" ")
        if not (sep and sep2):
            raise BadOutput(f"not a verify line: {line!r}")
        checks.append((name, _number(measured), _number(allowed), verdict))
    if not checks:
        raise BadOutput("verify printed no checks")
    return checks


def _finite(values, what: str) -> list[str]:
    return [f"{what} is not finite"] if not all(map(math.isfinite, values)) else []


def _check_coeffs(stdout: str) -> list[str]:
    fields = parse_coeffs(stdout)
    wanted = ("temperature", *COEFF_FIELDS,
              "route_discrepancy_lambda", "route_discrepancy_mu")
    problems = [f"missing field {key}" for key in wanted if key not in fields]
    numbers = [x for pair in fields.values() for x in pair if x is not None]
    problems += _finite(numbers, "a coeffs field")
    for key in ("route_discrepancy_lambda", "route_discrepancy_mu"):
        if key in fields and not fields[key][0] <= ROUTE_TOL:
            problems.append(f"{key} = {fields[key][0]:.3e} exceeds {ROUTE_TOL:.0e}")
    return problems


def _check_chi(stdout: str) -> list[str]:
    rows = parse_chi(stdout)
    problems = _finite([x for row in rows for x in row], "a chi field")
    if problems:
        return problems
    # the benchmark's chi grids are symmetric: row i mirrors row n-1-i
    peak = max(math.hypot(row[5], row[6]) for row in rows)
    width = max(abs(row[0]) for row in rows)
    for row, mirror in zip(rows, reversed(rows)):
        if abs(row[0] + mirror[0]) > 1e-12 * width:
            return [f"omega grid is not symmetric at w = {row[0]!r}"]
        tol = CONJUGATE_RTOL * peak + row[7] + mirror[7]
        for re_col in (1, 3, 5):
            if (abs(row[re_col] - mirror[re_col]) > tol
                    or abs(row[re_col + 1] + mirror[re_col + 1]) > tol):
                problems.append(f"chi(-w) != conj chi(w) at w = {mirror[0]!r}")
                break
    return problems


def _check_verify(stdout: str) -> list[str]:
    problems = []
    for name, measured, allowed, verdict in parse_verify(stdout):
        problems += _finite((measured, allowed), f"verify {name}")
        if verdict != "PASS":
            problems.append(f"verify {name}: {verdict}")
        if name.startswith("dual_route") and not measured <= ROUTE_TOL:
            problems.append(f"verify {name}: {measured:.3e} exceeds {ROUTE_TOL:.0e}")
    return problems


_CHECKS = {"coeffs": _check_coeffs, "chi": _check_chi, "verify": _check_verify}


def check(command: str, code: int, stdout: str) -> list[str]:
    """Problems found in one request's result; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _CHECKS[command](stdout)
    except BadOutput as exc:
        return [str(exc)]


def reference_values(command: str, stdout: str):
    """The values of an output that :func:`compare` checks, as JSON data."""
    if command == "coeffs":
        fields = parse_coeffs(stdout)
        return {key: list(fields[key]) for key in COEFF_FIELDS}
    if command == "chi":
        return [[row[5], row[6], row[7]] for row in parse_chi(stdout)]
    return [name for name, *_ in parse_verify(stdout)]


def _close(value: float, ref: float, err: float, scale: float) -> bool:
    return abs(value - ref) <= REFERENCE_RTOL * scale + REFERENCE_ERR_FACTOR * err


def compare(command: str, stdout: str, reference) -> list[str]:
    """Problems where an output departs from its recorded reference values."""
    try:
        got = reference_values(command, stdout)
    except (BadOutput, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    if command == "coeffs":
        return [f"{key} = {got[key][0]!r}, reference {value!r}"
                for key, (value, err) in reference.items()
                if not _close(got[key][0], value, err, abs(value))]
    if command == "chi":
        if len(got) != len(reference):
            return [f"{len(got)} chi rows, reference has {len(reference)}"]
        peak = max(math.hypot(re, im) for re, im, _ in reference)
        return [f"chi row {i} departs from the reference"
                for i, ((re, im, _), (re_ref, im_ref, err)) in
                enumerate(zip(got, reference))
                if not (_close(re, re_ref, err, peak) and _close(im, im_ref, err, peak))]
    if got != reference:
        return [f"verify checks {got}, reference {reference}"]
    return []
