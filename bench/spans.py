"""Span tracer that wraps the public functions of each fock_toeplitz layer.

Wrapping happens at run time from the benchmark's own files: every function
listed in a layer's ``__all__`` and defined in that layer is replaced, under
the name bound in every module of the package that imported it, by a wrapper
that records a span (name, start, end, parent) and per-name counts.  A
layer's self time is a span's duration minus the time covered by its child
spans.  Aggregates cover every call; raw spans are kept for the first
``max_spans`` calls only, so a long run holds a bounded amount of memory.
"""
from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

LAYERS = ("symbols", "quadrature", "fock", "calculus", "composition", "cli")
_WORKED_EXAMPLE = "composition.audit_worked_example"


class Tracer:
    def __init__(self, max_spans: int = 50_000) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {
            "build_rule.order_sum": 0,
            "build_rule.max_order": 0,
            "gamma.quadrature_entries": 0,
            "gamma.unreliable_entries": 0,
            "radial_profile.points": 0,
            "a_series.terms": 0,
            "fits_in_worked_example": 0,
        }
        self.spans: list[list] = []
        self.max_spans = max_spans
        self._stack: list[list] = []  # [child_seconds, span_index]
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("fock_toeplitz")
        modules = [package] + [importlib.import_module(f"fock_toeplitz.{m}") for m in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"fock_toeplitz.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    if getattr(holder, name, None) is fn:
                        self._patched.append((holder, name, fn))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        hook = _HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        stack, active = self._stack, self._active
        self.calls.setdefault(qualname, 0)
        self.total_s.setdefault(qualname, 0.0)
        self.self_s.setdefault(qualname, 0.0)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = -1
            if len(self.spans) < self.max_spans:
                index = len(self.spans)
                self.spans.append([qualname, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            active[qualname] = active.get(qualname, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[qualname] -= 1
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[qualname] += 1
                self.total_s[qualname] += duration
                self.self_s[qualname] += duration - frame[0]
                if index >= 0:
                    self.spans[index][1] = start
                    self.spans[index][2] = end
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- export -----------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counts": self.counts,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def merge(into: dict, part: dict) -> None:
    """Add the aggregates of one traced process to another's."""
    for key in ("calls", "total_s", "self_s"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for name, value in part["counts"].items():
        if name.endswith("max_order"):
            into["counts"][name] = max(into["counts"].get(name, 0), value)
        else:
            into["counts"][name] = into["counts"].get(name, 0) + value


def _build_rule(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["build_rule.order_sum"] += args["order"]
    tracer.counts["build_rule.max_order"] = max(tracer.counts["build_rule.max_order"], args["order"])


def _gamma_sequence(tracer: Tracer, args: dict, result) -> None:
    if result.method == "quadrature":
        tracer.counts["gamma.quadrature_entries"] += len(result)
    tracer.counts["gamma.unreliable_entries"] += len(result.unreliable)


def _radial_profile(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["radial_profile.points"] += int(getattr(args["u"], "size", 1))


def _a_series(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["a_series.terms"] += args["n_terms"]


def _fit_gaussian_wick(tracer: Tracer, args: dict, result) -> None:
    if tracer._active.get(_WORKED_EXAMPLE):
        tracer.counts["fits_in_worked_example"] += 1


# Functions whose arguments or results feed a counter, beyond calls and time.
_HOOKS = {
    "quadrature.build_rule": _build_rule,
    "quadrature.gamma_sequence": _gamma_sequence,
    "symbols.radial_profile": _radial_profile,
    "symbols.a_series": _a_series,
    "calculus.fit_gaussian_wick": _fit_gaussian_wick,
}


def per_layer_metrics(agg: dict, jobs: int, import_ms: dict, cli_calls: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged aggregates.

    Counts and self times are per completed job, so runs of different
    length compare; ``max_order`` is a maximum and the ratios are ratios.
    """
    per_job = 1.0 / max(jobs, 1)
    calls, self_s = agg["calls"], agg["self_s"]
    counts = dict.fromkeys(Tracer().counts, 0) | agg["counts"]

    def n(name: str) -> float:
        return calls.get(name, 0) * per_job

    def ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1e3 * per_job

    rules = calls.get("quadrature.build_rule", 0)
    entries = counts["gamma.quadrature_entries"]
    examples = calls.get(_WORKED_EXAMPLE, 0)
    values = {
        "quadrature.build_rule.calls": (n("quadrature.build_rule"), "calls/job"),
        "quadrature.build_rule.self_ms": (ms("quadrature.build_rule"), "ms/job"),
        "quadrature.build_rule.order_sum": (counts["build_rule.order_sum"] * per_job, "order/job"),
        "quadrature.build_rule.max_order": (counts["build_rule.max_order"], "order"),
        "quadrature.rules_per_entry": (rules / entries if entries else 0.0, "rules/entry"),
        "quadrature.gamma_sequence.calls": (n("quadrature.gamma_sequence"), "calls/job"),
        "quadrature.gamma_sequence.self_ms": (ms("quadrature.gamma_sequence"), "ms/job"),
        "quadrature.unreliable_entries": (counts["gamma.unreliable_entries"] * per_job, "entries/job"),
        "symbols.radial_profile.calls": (n("symbols.radial_profile"), "calls/job"),
        "symbols.radial_profile.self_ms": (ms("symbols.radial_profile"), "ms/job"),
        "symbols.radial_profile.points": (counts["radial_profile.points"] * per_job, "points/job"),
        "symbols.q_sequence.calls": (n("symbols.q_sequence"), "calls/job"),
        "symbols.q_sequence.self_ms": (ms("symbols.q_sequence"), "ms/job"),
        "symbols.a_series.calls": (n("symbols.a_series"), "calls/job"),
        "symbols.a_series.self_ms": (ms("symbols.a_series"), "ms/job"),
        "symbols.a_series.terms": (counts["a_series.terms"] * per_job, "terms/job"),
        "calculus.wick_from_gamma.calls": (n("calculus.wick_from_gamma"), "calls/job"),
        "calculus.wick_from_gamma.self_ms": (ms("calculus.wick_from_gamma"), "ms/job"),
        "calculus.fit_gaussian_wick.calls": (n("calculus.fit_gaussian_wick"), "calls/job"),
        "calculus.fit_gaussian_wick.self_ms": (ms("calculus.fit_gaussian_wick"), "ms/job"),
        "calculus.diamond.self_ms": (ms("calculus.diamond"), "ms/job"),
        "calculus.heat_transform.self_ms": (ms("calculus.heat_transform"), "ms/job"),
        "fock.toeplitz_matrix.self_ms": (ms("fock.toeplitz_matrix"), "ms/job"),
        "fock.wick_symbol_numeric.self_ms": (ms("fock.wick_symbol_numeric"), "ms/job"),
        "fock.spectrum_radial.self_ms": (ms("fock.spectrum_radial"), "ms/job"),
        "fock.norm_estimate.self_ms": (ms("fock.norm_estimate"), "ms/job"),
        "composition.compose_radial.self_ms": (ms("composition.compose_radial"), "ms/job"),
        "composition.audit_hypotheses.self_ms": (ms("composition.audit_hypotheses"), "ms/job"),
        "composition.reconstruct_details.self_ms": (
            ms("composition.reconstruct_details"),
            "ms/job",
        ),
        "composition.fits_per_worked_example": (
            counts["fits_in_worked_example"] / examples if examples else 0.0,
            "fits/example",
        ),
        "cli.import_ms": (import_ms.get("fock_toeplitz.cli", 0.0), "ms"),
        "cli.scipy_linalg_import_ms": (import_ms.get("scipy.linalg", 0.0), "ms"),
        "cli.main_ms": (agg["total_s"].get("cli.main", 0.0) * 1e3 * per_job, "ms/job"),
        "cli.render_ms": (agg["total_s"].get("cli.render_json", 0.0) * 1e3 * per_job, "ms/job"),
        "cli.stdout_bytes": (cli_calls.get("stdout_bytes", 0) * per_job, "bytes/job"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def median_imports(runs: list[dict]) -> dict:
    """Per-module median of several ``parse_importtime`` results."""
    names = {name for run in runs for name in run}
    return {name: statistics.median(run.get(name, 0.0) for run in runs) for name in names}


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """Cumulative import times (ms) of the CLI module and of ``scipy.linalg``
    from ``python -X importtime`` output, and stderr with those lines removed."""
    found: dict[str, float] = {}
    rest = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].strip()
        if name in ("fock_toeplitz.cli", "scipy.linalg") and name not in found:
            found[name] = int(parts[1]) / 1e3
    return found, "\n".join(rest)
