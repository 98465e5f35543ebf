"""Seeded request generator for the three benchmark workloads.

A workload's requests are a pure function of (workload, seed): their configs
are drawn from ``random.Random`` seeded with that pair, so the same seed
gives the same inputs on every machine and Python version.  The parameters
are Latin-hypercube draws (one sample per stratum of each parameter, strata
shuffled independently), which keeps the cost of a request set steady from
seed to seed while the marginal distributions stay the ones stated below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Request:
    """One CLI call: the subcommand and the text of its config file."""

    command: str
    config: str

    def argv(self, config_path) -> list[str]:
        return [self.command, "--config", str(config_path)]


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniform draws on [0, 1), one per stratum [i/n, (i+1)/n), shuffled."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _between(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _log_between(u: float, lo: float, hi: float) -> float:
    return 10.0 ** _between(u, math.log10(lo), math.log10(hi))


def weak_rational(epsilon: float, tau: float) -> tuple[dict, float]:
    """Unitary weak mirror r = eps z / D(z), s = (1 - tau^2 z^2) / D(z).

    D(z) = 1 - sqrt(eps^2 + 4 tau^2) z + tau^2 z^2 is the spectral factor of
    (1 - tau^2 z^2)^2 - eps^2 z^2, so |r|^2 + |s|^2 = 1 holds identically.
    Returns the [model] keys and the model's default cutoff, the larger
    root magnitude of D, (sqrt(eps^2 + 4 tau^2) + eps) / (2 tau^2).
    """
    root = math.sqrt(epsilon**2 + 4.0 * tau**2)
    den = f"1, {-root!r}, {tau**2!r}"
    keys = {
        "kind": "rational",
        "r_numerator": f"0, {epsilon!r}",
        "r_denominator": den,
        "s_numerator": f"1, 0, {-tau**2!r}",
        "s_denominator": den,
    }
    return keys, (root + epsilon) / (2.0 * tau**2)


def _config(settings: dict, model: dict) -> str:
    lines = [f"{key} = {value}" for key, value in settings.items()]
    lines.append("[model]")
    lines += [f"{key} = {value}" for key, value in model.items()]
    return "\n".join(lines) + "\n"


def _lorentzian(tau0: float) -> dict:
    return {"kind": "lorentzian", "tau0": repr(tau0)}


def coeffs_rational(rng: random.Random) -> list[Request]:
    # Why: rational-model polyval/polyder and six thermal integrals per report dominate; no chi.
    n = 100  # the p90 latency has ten samples beyond it
    requests = []
    for e, t, x in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
        model, cutoff = weak_rational(_between(e, 0.1, 0.5), _between(t, 0.5, 2.0))
        temp = cutoff * _log_between(x, 1e-3, 1e2)
        requests.append(Request("coeffs", _config({"temperature": repr(temp)}, model)))
    return requests


def chi_lorentzian(rng: random.Random) -> list[Request]:
    # Why: two adaptive quadratures per frequency on a closed-form model; coefficients bypassed.
    # 100 requests of 8 frequencies, not a few of many: the latency percentiles then rest
    # on 100 requests (ten beyond p90) and stay put from seed to seed, and a 1-s pass lets
    # a run take each request's fastest of about 50 issues.
    n = 100
    requests = []
    for a, x, w in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
        tau0 = _log_between(a, 10**-0.5, 10**0.5)
        cutoff = 1.0 / tau0
        window = cutoff * _between(w, 2.0, 40.0)
        settings = {
            "temperature": repr(cutoff * _log_between(x, 0.1, 10.0)),
            "omega_min": repr(-window),
            "omega_max": repr(window),
            "omega_count": "8",
        }
        requests.append(Request("chi", _config(settings, _lorentzian(tau0))))
    return requests


def verify_lorentzian(rng: random.Random) -> list[Request]:
    # Why: the default invariant suite; its KK grids reach |omega| = 80 x cutoff (wide windows).
    # Run by hand only (not in BENCHMARK.json): a run issues its one 4-s request only about
    # ten times, too few for its fastest issue to steady against machine load.
    tau0 = _log_between(rng.random(), 10**-0.5, 10**0.5)
    settings = {"temperature": repr(1.0 / tau0)}
    return [Request("verify", _config(settings, _lorentzian(tau0)))]


WORKLOADS = {
    "coeffs-rational": coeffs_rational,
    "chi-lorentzian": chi_lorentzian,
    "verify-lorentzian": verify_lorentzian,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The workload's requests; identical for identical arguments."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write_requests(requests: list[Request], directory: Path) -> list[list[str]]:
    """Write each request's config under ``directory``; return the argv lists."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for index, request in enumerate(requests):
        path = directory / f"request-{index:03d}.cfg"
        path.write_text(request.config)
        argvs.append(request.argv(path))
    return argvs
