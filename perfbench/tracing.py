"""Span recorder for the traced run.

The tracer replaces each traced public function, in every `toric_lab`
module namespace that binds it, with a wrapper that records a span
(name, start, end, parent span, request id) plus the counts it can read off
the call's arguments and result.  Spans stay in memory until the run ends.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field

MODULES = ("grid", "energy", "spectrum", "configs", "analysis", "cli")


# (module, function) -> counts read from the bound arguments and the result
TARGETS = {
    ("grid", "distance_table"): None,
    ("energy", "build_kernel"): lambda b, r: {"sites": b["dims"].order, "kernel_key": (b["dims"].sizes, b["metric"])},
    ("spectrum", "eigen_table"): lambda b, r: {"sites": b["kernel"].dims.order},
    ("spectrum", "min_nontrivial"): lambda b, r: {"sites": b["eigs"].dims.order, "argmin_size": len(r[1])},
    ("spectrum", "solve_relaxation"): None,
    ("spectrum", "checkerboard_certificate"): None,
    ("configs", "energies"): lambda b, r: {"pairs": b["config"].p ** 2},
    ("configs", "checkerboard"): None,
    ("configs", "kernel_matrix"): None,
    ("configs", "brute_force"): lambda b, r: {"subsets": math.comb(b["dims"].order, b["p"])},
    ("configs", "local_search"): lambda b, r: {"restarts": b.get("restarts", 1)},
    ("analysis", "factor_curve"): lambda b, r: {"calls": 1},
    ("cli", "main"): None,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"toric_lab.{m}") for m in MODULES]
        modules.append(importlib.import_module("toric_lab"))
        for (mod_name, fn_name), counts in TARGETS.items():
            original = getattr(importlib.import_module(f"toric_lab.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body, as a child of the innermost open span."""
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def layer_metrics(spans: list[Span], pass_of: dict[str, int], distinct_distances) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced passes.

    Times and counts are per pass (median over passes); rates divide the
    summed work by the summed time over all traced passes.  distinct_distances
    maps a (sizes, metric) kernel key to its number of distinct distances.
    """
    selfs = self_times(spans)
    passes = sorted(set(pass_of.values()))
    per_pass = {p: {} for p in passes}

    def add(p: int, key: str, value: float) -> None:
        per_pass[p][key] = per_pass[p].get(key, 0.0) + value

    for s in spans:
        p = pass_of[s.request]
        add(p, f"{s.name}.s", s.end - s.start)
        add(p, f"{s.name}.self_s", selfs[s.id])
        for key, value in s.counts.items():
            if key == "kernel_key":
                add(p, "energy.distinct_distances", distinct_distances(value))
            else:
                add(p, f"{s.name}.{key}", value)

    def med(key: str) -> float:
        return statistics.median(per_pass[p].get(key, 0.0) for p in passes)

    def total(key: str) -> float:
        return sum(per_pass[p].get(key, 0.0) for p in passes)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return total(num) / total(den) * scale if total(den) else 0.0

    return {
        "configs.energies.s": (med("configs.energies.s"), "s"),
        "configs.energies.pairs": (med("configs.energies.pairs"), "count"),
        "configs.energies.pairs_per_s": (ratio("configs.energies.pairs", "configs.energies.s"), "pairs/s"),
        "configs.checkerboard.s": (med("configs.checkerboard.s"), "s"),
        "spectrum.min_nontrivial.s": (med("spectrum.min_nontrivial.s"), "s"),
        "spectrum.min_nontrivial.sites_per_s": (
            ratio("spectrum.min_nontrivial.sites", "spectrum.min_nontrivial.s"), "sites/s"),
        "spectrum.argmin_size": (med("spectrum.min_nontrivial.argmin_size"), "count"),
        "spectrum.solve_relaxation.self_s": (med("spectrum.solve_relaxation.self_s"), "s"),
        "spectrum.eigen_table.s": (med("spectrum.eigen_table.s"), "s"),
        "spectrum.eigen_table.sites_per_s": (ratio("spectrum.eigen_table.sites", "spectrum.eigen_table.s"), "sites/s"),
        "spectrum.checkerboard_certificate.self_s": (med("spectrum.checkerboard_certificate.self_s"), "s"),
        "energy.build_kernel.s": (med("energy.build_kernel.s"), "s"),
        "energy.build_kernel.sites_per_s": (ratio("energy.build_kernel.sites", "energy.build_kernel.s"), "sites/s"),
        "energy.distinct_distances": (med("energy.distinct_distances"), "count"),
        "grid.distance_table.s": (med("grid.distance_table.s"), "s"),
        "configs.brute_force.self_s": (med("configs.brute_force.self_s"), "s"),
        "configs.brute_force.subsets": (med("configs.brute_force.subsets"), "count"),
        "configs.brute_force.us_per_subset": (
            ratio("configs.brute_force.self_s", "configs.brute_force.subsets", 1e6), "us"),
        "configs.kernel_matrix.s": (med("configs.kernel_matrix.s"), "s"),
        "configs.local_search.self_s": (med("configs.local_search.self_s"), "s"),
        "configs.local_search.restarts": (med("configs.local_search.restarts"), "count"),
        "configs.local_search.ms_per_restart": (
            ratio("configs.local_search.self_s", "configs.local_search.restarts", 1e3), "ms"),
        "analysis.factor_curve.s": (med("analysis.factor_curve.s"), "s"),
        "analysis.factor_curve.calls": (med("analysis.factor_curve.calls"), "count"),
        "cli.main.self_s": (med("cli.main.self_s"), "s"),
    }
