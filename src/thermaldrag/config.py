"""Run configuration: flat key = value text with one optional [model] section.

Example::

    temperature = 1.0
    rel_tol = 1e-10

    [model]
    kind = lorentzian
    tau0 = 1.0

Every key is declared here: ``MAIN_KEYS`` for the main section, the union
of every subcommand's keys with the units and quadrature keys, and
``MODEL_KEYS`` per model kind.  A key outside them is a ConfigError, raised
before anything is computed, and the ``RunConfig`` getters refuse to read
an undeclared key.
Model parameters are given in user units: the model built from them moves
to natural units by scaling its poles, residues and cutoff by hbar.  Every
model is validated once, here, before use.
Every key's number is read by ``_number``, which rejects NaN, infinities
and integer keys above INTEGER_LIMIT, and a frequency read by
``RunConfig.require_frequency`` must stay finite in natural units too;
coefficient lists and trajectory rows have their own readers.  Every
file is read by ``read_text``, which turns an unreadable or non-UTF-8
file into a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import UnitSystem
from .errors import ConfigError
from .models import (LorentzianMirror, MirrorModel, ModelValidationReport,
                     PerfectMirror, RationalMirror, validate_model)
from .quadrature import QuadratureConfig

MAIN_KEYS = frozenset((
    "temperature",                                         # coeffs, chi, force, verify
    "temp_min", "temp_max", "count", "spacing",            # sweep
    "omega_min", "omega_max", "omega_count",               # chi
    "trajectory",                                          # force
    "kk_points", "einstein_tol",                           # verify
    "hbar", "c", "rel_tol", "max_subdivisions",            # units, quadrature
))
MODEL_KEYS = {
    "lorentzian": ("kind", "tau0"),
    "perfect": ("kind",),
    "rational": ("kind", "r_numerator", "r_denominator", "s_numerator", "s_denominator",
                 "cutoff"),
}
MODEL_KINDS = tuple(MODEL_KEYS)
INTEGER_LIMIT = 10**6  # keeps counts and budgets below numpy's allocation limit
_VALIDATION_GRID = np.logspace(-3, 3, 400)  # in units of the model's cutoff


def _number(keys: dict, key: str, default=None, integer: bool = False):
    """Read ``key`` as a finite number; integral, within INTEGER_LIMIT, if ``integer``."""
    raw = keys.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {raw!r}")
    if not integer:
        return value
    if not value.is_integer():
        raise ConfigError(f"key '{key}' is not an integer: {raw!r}")
    if abs(value) > INTEGER_LIMIT:
        raise ConfigError(f"key '{key}' exceeds {INTEGER_LIMIT} in magnitude: {raw!r}")
    return int(value)


def _reject_unknown(keys: dict, known, where: str):
    """ConfigError naming the first key of ``keys`` that is not in ``known``."""
    for key in keys:
        if key not in known:
            raise ConfigError(f"unknown {where} key '{key}' (known: {', '.join(sorted(known))})")


def read_text(path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``, or a ConfigError."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


@dataclass
class RunConfig:
    """Parsed configuration: validated model in natural units plus raw settings."""

    model: MirrorModel
    units: UnitSystem
    quadrature: QuadratureConfig
    validation: ModelValidationReport
    settings: dict = field(default_factory=dict)
    model_kind: str = "lorentzian"

    def _declared(self, key: str) -> dict:
        """The settings, once ``key`` is known to be one of MAIN_KEYS."""
        if key not in MAIN_KEYS:
            raise KeyError(f"config key '{key}' is not declared in MAIN_KEYS")
        return self.settings

    def get_float(self, key: str, default: float | None = None) -> float | None:
        return _number(self._declared(key), key, default)

    def require_float(self, key: str) -> float:
        value = self.get_float(key)
        if value is None:
            raise ConfigError(f"missing required key '{key}'")
        return value

    def require_frequency(self, key: str) -> float:
        """A required frequency in user units that stays finite in natural units."""
        value = self.require_float(key)
        if not math.isfinite(self.units.frequency_to_natural(value)):
            raise ConfigError(f"key '{key}' = {value!r} is not finite in natural units "
                              f"(hbar = {self.units.hbar!r})")
        return value

    def get_int(self, key: str, default: int | None = None) -> int | None:
        return _number(self._declared(key), key, default, integer=True)

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self._declared(key).get(key, default)


def _parse_sections(text: str, origin: str) -> tuple[dict, dict]:
    main: dict[str, str] = {}
    model: dict[str, str] = {}
    current = main
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section != "model":
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            current = model
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in current:
            raise ConfigError(f"{origin}:{lineno}: duplicate key '{key}'")
        current[key] = value
    return main, model


def _coefficient_list(raw: str, key: str) -> list[float]:
    try:
        values = [float(part) for part in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"model key '{key}' is not a number list: {raw!r}") from exc
    if not values:
        raise ConfigError(f"model key '{key}' is empty")
    return values


def build_model(model_keys: dict, units: UnitSystem) -> tuple[MirrorModel, str]:
    """The configured mirror in natural units, built from parameters in user units.

    A key that is not in ``MODEL_KEYS`` of the kind raises ConfigError, and
    a parameter the model's constructor rejects raises its ValueError.
    """
    kind = model_keys.get("kind", "").lower()
    if kind not in MODEL_KINDS:
        raise ConfigError(
            f"model kind must be one of {MODEL_KINDS}, got {kind!r}"
        )
    _reject_unknown(model_keys, MODEL_KEYS[kind], f"{kind} model")
    if kind == "perfect":
        model = PerfectMirror()
    elif kind == "lorentzian":
        tau0 = _number(model_keys, "tau0")
        if tau0 is None:
            raise ConfigError("lorentzian model needs tau0")
        try:
            model = LorentzianMirror(tau0)
        except ValueError as exc:
            raise ValueError(f"model key 'tau0' = {model_keys['tau0']}: {exc}") from exc
    else:
        lists = []
        for key in ("r_numerator", "r_denominator", "s_numerator", "s_denominator"):
            raw = model_keys.get(key)
            if raw is None:
                raise ConfigError(f"rational model needs '{key}'")
            lists.append(_coefficient_list(raw, key))
        model = RationalMirror(*lists, cutoff=_number(model_keys, "cutoff"))
    return model._in_natural_units(units), kind


def parse_config(path) -> RunConfig:
    """Read, parse and resolve a configuration file."""
    main, model_keys = _parse_sections(read_text(path, "config"), str(path))
    if not model_keys:
        raise ConfigError("config needs a [model] section")
    _reject_unknown(main, MAIN_KEYS, "config")

    # each constructor checks its own parameters: its ValueError is a config error
    try:
        units = UnitSystem(hbar=_number(main, "hbar", 1.0), c=_number(main, "c", 1.0))
        quadrature = QuadratureConfig(
            rel_tol=_number(main, "rel_tol", 1e-10),
            max_subdivisions=_number(main, "max_subdivisions", 200, integer=True),
        )
        model, kind = build_model(model_keys, units)
        # mandatory validation before any use, on one grid around the cutoff;
        # validate_model rejects a grid that overflows
        with np.errstate(over="ignore"):
            grid = (model.cutoff_frequency or 1.0) * _VALIDATION_GRID
        validation = validate_model(model, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    validation.raise_for_failure()
    return RunConfig(model=model, units=units, quadrature=quadrature,
                     validation=validation, settings=main, model_kind=kind)
