"""Span recording around thermaldrag's layer boundaries, and the layer metrics.

The recorder wraps every public function of the package's modules where it
is looked up (``thermaldrag.coefficients.integrate_thermal`` is patched in
the ``coefficients`` namespace, ``thermaldrag.cli.parse_config`` in ``cli``)
and the amplitude methods of each ``MirrorModel`` subclass.  A span holds
its name, start, end, parent span and request id.  Spans stay in memory as
compact columns while the pass runs and are written out once, at the end,
for :func:`layer_metrics` to read.  ``src/`` is not modified: the patches
live only inside the process that installed them and are undone on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "config", "models", "core", "quadrature", "coefficients",
          "susceptibility")
MODEL_METHODS = ("amplitudes", "amplitude_derivatives",
                 "amplitude_second_derivatives")
QUADRATURES = ("quadrature.integrate_thermal", "quadrature.integrate_finite")
CHECKS = ("coefficients.einstein_check", "coefficients.asymptotics",
          "coefficients.lambda_spectral", "coefficients.mu_spectral")

# column name -> array typecode; one entry per span in every column
COLUMNS = {"name": "i", "parent": "q", "request": "q", "start": "q",
           "end": "q", "count": "q", "flag": "b"}


def _targets():
    """Yield (owner, attribute, span name) for every patched callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"thermaldrag.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            package, _, home = value.__module__.rpartition(".")
            if package == "thermaldrag" and home in LAYERS:
                yield module, attr, f"{home}.{value.__name__}"
    models = importlib.import_module("thermaldrag.models")
    for cls in models.MirrorModel.__subclasses__():
        for method in MODEL_METHODS:
            if method in vars(cls):
                yield cls, method, f"models.{cls.__name__}.{method}"


def _is_model_method(name: str) -> bool:
    """True for ``models.<Class>.<amplitude method>`` span names."""
    parts = name.split(".")
    return len(parts) == 3 and parts[2] in MODEL_METHODS


def _nodes(args, result):
    # args = (model, omega); omega is an ndarray or a Python/numpy scalar
    return getattr(args[1], "size", 1), 1


def _evaluations(args, result):
    return int(result.evaluations), int(bool(result.converged))


class Recorder:
    """Install with ``with Recorder() as rec:``; spans accumulate in ``rec``."""

    def __init__(self):
        self.names: list[str] = []
        self.columns = {key: array(code) for key, code in COLUMNS.items()}
        self.request_id = -1
        self._stack = [-1]
        self._patches = []
        for owner, attr, name in _targets():
            if _is_model_method(name):
                count_of = _nodes
            elif name in QUADRATURES:
                count_of = _evaluations
            else:
                count_of = None
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original,
                                  self._wrap(original, name, count_of)))

    def __enter__(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        return False

    def _wrap(self, func, name, count_of):
        name_id = len(self.names)
        self.names.append(name)
        cols = self.columns
        names, parents, requests = cols["name"], cols["parent"], cols["request"]
        starts, ends = cols["start"], cols["end"]
        counts, flags = cols["count"], cols["flag"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(self.request_id)
            counts.append(0)
            flags.append(1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_of is not None:
                counts[index], flags[index] = count_of(args, result)
            return result

        return traced

    def clear(self):
        for column in self.columns.values():
            del column[:]

    def dump(self, path: Path):
        """Write the spans: a JSON header line, then the raw columns."""
        header = {"names": self.names, "spans": len(self.columns["name"]),
                  "columns": list(COLUMNS)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in self.columns.values():
                column.tofile(out)


def load(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by :meth:`Recorder.dump`."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for key in header["columns"]:
            column = array(COLUMNS[key])
            column.fromfile(src, header["spans"])
            columns[key] = column
    return header["names"], columns


def layer_metrics(names: list[str], cols: dict[str, array]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    A span's self time is its duration minus the time its child spans
    cover (children of one span never overlap: the program is single
    threaded).  A layer's self time sums the self times of its spans.
    Ratios whose base is zero (a layer the workload never reaches) are 0.
    """
    n = len(cols["name"])
    name_of = [names[i] for i in cols["name"]]
    parent = cols["parent"]
    duration = [(e - s) * 1e-9 for s, e in zip(cols["start"], cols["end"])]
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += duration[i]

    # innermost enclosing span of interest, inherited down the tree
    # (parents precede their children in the columns)
    report_of = [-1] * n
    chi_of = [-1] * n
    check_of = [-1] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            name = name_of[p]
            report_of[i] = p if name == "coefficients.compute_coefficients" else report_of[p]
            chi_of[i] = p if name == "susceptibility.chi_total" else chi_of[p]
            check_of[i] = p if name in CHECKS else check_of[p]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        self_s[name_of[i].partition(".")[0]] += duration[i] - child_time[i]
    calls = Counter(name_of)

    def method_calls(method):
        return sum(c for s, c in calls.items()
                   if _is_model_method(s) and s.endswith("." + method))

    def inclusive(span_name, outermost_of=None):
        return sum(duration[i] for i in range(n) if name_of[i] == span_name
                   and (outermost_of is None or outermost_of[i] < 0))

    def ratio(x, base):
        return x / base if base else 0.0

    quads = [i for i in range(n) if name_of[i] in QUADRATURES]
    evals = sum(cols["count"][i] for i in quads)
    nodes = sum(cols["count"][i] for i in range(n) if _is_model_method(name_of[i]))
    reports = calls["coefficients.compute_coefficients"]
    report_quads = [i for i in quads if report_of[i] >= 0]
    chis = calls["susceptibility.chi_total"]
    chi_quads = [i for i in quads if chi_of[i] >= 0]
    return {
        "config.parse_calls": calls["config.parse_config"],
        "config.parse_s": self_s["config"],
        "models.amplitude_calls": method_calls("amplitudes"),
        "models.derivative_calls": (method_calls("amplitude_derivatives")
                                    + method_calls("amplitude_second_derivatives")),
        "models.nodes": nodes,
        "models.self_s": self_s["models"],
        "models.ns_per_node": ratio(self_s["models"] * 1e9, nodes),
        "models.validate_calls": calls["models.validate_model"],
        "models.validate_s": inclusive("models.validate_model"),
        "core.occupation_calls": sum(c for s, c in calls.items()
                                     if s.startswith("core.")),
        "core.self_s": self_s["core"],
        "quadrature.thermal_calls": calls["quadrature.integrate_thermal"],
        "quadrature.finite_calls": calls["quadrature.integrate_finite"],
        "quadrature.evals": evals,
        "quadrature.evals_per_call": ratio(evals, len(quads)),
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.converged_ratio": ratio(sum(cols["flag"][i] for i in quads),
                                            len(quads)),
        "quadrature.hilbert_s": inclusive("quadrature.hilbert_transform_pv"),
        "quadrature.richardson_calls": calls["quadrature.richardson_extrapolate"],
        "coefficients.reports": reports,
        "coefficients.thermal_calls_per_report": ratio(
            sum(1 for i in report_quads
                if name_of[i] == "quadrature.integrate_thermal"), reports),
        "coefficients.evals_per_report": ratio(
            sum(cols["count"][i] for i in report_quads), reports),
        "coefficients.self_s": self_s["coefficients"],
        "coefficients.checks_s": sum(inclusive(s, check_of) for s in CHECKS),
        "susceptibility.chi_calls": chis,
        "susceptibility.quad_calls_per_chi": ratio(len(chi_quads), chis),
        "susceptibility.evals_per_chi": ratio(
            sum(cols["count"][i] for i in chi_quads), chis),
        "susceptibility.self_s": self_s["susceptibility"],
        "susceptibility.kk_s": inclusive("susceptibility.kramers_kronig_check"),
        "cli.requests": calls["cli.main"],
        "cli.self_s": self_s["cli"],
    }
