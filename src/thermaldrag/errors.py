"""Exception and warning types shared across the package, and its finiteness guard."""

import math


def require_finite(**values):
    """Raise ValueError naming the first keyword value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class ThermalDragError(Exception):
    """Base class for all package-specific errors."""


class ValidationFailed(ThermalDragError):
    """A scattering model violates unitarity, reality or transparency.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        failed = [c for c in report.checks if not c.passed]
        lines = ", ".join(
            f"{c.name} (violation {c.max_violation:.3e} at omega={c.worst_omega:.6g}, "
            f"allowed {c.allowed:.1e})"
            for c in failed
        )
        super().__init__(f"model validation failed: {lines}")


class GrowthBoundExceeded(ThermalDragError):
    """A thermal integrand grows exponentially at the edge of its domain."""


class GridTooCoarse(ThermalDragError):
    """A sampled grid has too few points for the requested operation."""


class ExtrapolationUnstable(ThermalDragError):
    """Successive extrapolation estimates do not contract."""


class DivergentBandwidth(ThermalDragError):
    """Bandwidth integrals do not converge for a non-transparent model."""


class ConfigError(ThermalDragError):
    """Malformed or inconsistent run configuration."""


class RegimeViolation(UserWarning):
    """A quantity is evaluated outside its regime of validity (non-fatal)."""
