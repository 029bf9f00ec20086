"""Per-layer tracing of fluxsense from outside the package.

The tracer replaces the public functions of each module (the layers)
with thin wrappers that record a span per call: name, start, end, the
index of the enclosing span, and a few counters read from the call's
arguments and result.  Spans stay in memory and are folded into the
per-layer metrics when the traced iteration ends.  A layer's self time
is its span's duration minus the durations of its direct child spans.

Functions called far too often for a span each (the field evaluation
inside the magnetostatics quadrature) are only counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "fluxsense"
N_STEPS = 9

# module -> public functions given a span; "Class.method" wraps a method.
SPANNED = {
    "pea": ("run_campaign", "run_single", "run_step", "build_flux_grid",
            "aggregate_report", "runs_report"),
    "fringes": ("FringeEvaluator.probability_excited", "pattern_grid"),
    "optimizer": ("ridge_scan", "find_optimal_flux", "sensitivity"),
    "decoherence": ("composite_rates", "rates_table"),
    "qubit": ("spectrum_derivatives",),
    "magnetostatics": ("mutual_inductances",),
    "config": ("load_config",),
}
COUNTED = {"magnetostatics": ("field_at",)}


def _run_step_attrs(bound, record) -> dict:
    candidates, true_flux = bound["candidates"], bound["true_flux"]
    survivors = record.survivors
    gap = min(abs(float(f) - true_flux) for f in survivors.fluxes)
    return {
        "grid_size": len(candidates),
        "measurements": int(record.n_measurements),
        "cap_hit": bool(record.cap_hit),
        "retained": gap <= 0.5 * survivors.spacing,
    }


def _run_campaign_attrs(bound, result) -> dict:
    return {"final_accuracy": float(result.accuracy[-1])}


def _ridge_scan_attrs(bound, scan) -> dict:
    return {"cells": int(scan.surface.size)}


OBSERVERS = {
    "pea.run_step": _run_step_attrs,
    "pea.run_campaign": _run_campaign_attrs,
    "optimizer.ridge_scan": _ridge_scan_attrs,
}


class Tracer:
    """Records spans around the layers while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, attrs)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()  # layers the tracer could not see
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = observe(bound.arguments, result)
                except (TypeError, KeyError, AttributeError, ValueError):
                    self.missing.add(f"{name} counters")
                else:
                    spans[index] = (name, start, end, parent, attrs)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module_name, paths in table.items():
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                for path in paths:
                    *outer, attr = path.split(".")
                    owner = module
                    for part in outer:
                        owner = getattr(owner, part, None)
                    original = getattr(owner, attr, None)
                    name = f"{module_name}.{attr}"
                    if original is None:
                        self.missing.add(name)
                        continue
                    wrapper = make(name, original)
                    for target in [owner] if outer else modules:
                        for key, value in list(vars(target).items()):
                            if value is original:
                                setattr(target, key, wrapper)
                                self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans into the per-layer metrics."""
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _, _), own_s in zip(spans, own):
        total[name] += end - start
        self_s[name] += own_s
        calls[name] += 1

    # Step index of each run_step: its order among the children of one run.
    step_of: dict[int, int] = {}
    seen: dict[int, int] = defaultdict(int)
    for index, (name, _, _, parent, _) in enumerate(spans):
        if name == "pea.run_step":
            seen[parent] += 1
            step_of[index] = seen[parent]

    per_step = {i: {"n": 0, "grid": 0, "meas": 0, "caps": 0, "s": 0.0}
                for i in range(1, N_STEPS + 1)}
    meas = capped_meas = caps = retained = steps = 0
    for index, step in step_of.items():
        _, start, end, _, attrs = spans[index]
        if attrs is None:
            continue
        steps += 1
        meas += attrs["measurements"]
        caps += attrs["cap_hit"]
        retained += attrs["retained"]
        if attrs["cap_hit"]:
            capped_meas += attrs["measurements"]
        bucket = per_step.get(step)
        if bucket is not None:
            bucket["n"] += 1
            bucket["grid"] += attrs["grid_size"]
            bucket["meas"] += attrs["measurements"]
            bucket["caps"] += attrs["cap_hit"]
            bucket["s"] += end - start

    run_single_s = [end - start for name, start, end, _, _ in spans if name == "pea.run_single"]
    accuracies = [a["final_accuracy"] for name, _, _, _, a in spans
                  if name == "pea.run_campaign" and a is not None]
    cells = sum(a["cells"] for name, _, _, _, a in spans
                if name == "optimizer.ridge_scan" and a is not None)

    metrics = {
        "pea.run_campaign.s": total["pea.run_campaign"],
        "pea.run_single.p50_s": _percentile(run_single_s, 50),
        "pea.run_single.p90_s": _percentile(run_single_s, 90),
        "pea.run_step.self_s": self_s["pea.run_step"],
        "pea.measurements": meas,
        "pea.us_per_measurement": 1e6 * _ratio(total["pea.run_step"], meas),
        "pea.build_flux_grid.self_s": self_s["pea.build_flux_grid"],
        "pea.report.s": total["pea.aggregate_report"] + total["pea.runs_report"],
    }
    for i, b in per_step.items():
        metrics[f"pea.step{i}.grid_size"] = _ratio(b["grid"], b["n"])
        metrics[f"pea.step{i}.measurements"] = b["meas"]
        metrics[f"pea.step{i}.us_per_measurement"] = 1e6 * _ratio(b["s"], b["meas"])
        metrics[f"pea.step{i}.cap_hit_frac"] = _ratio(b["caps"], b["n"])
    metrics.update({
        "pea.cap_hit_frac": _ratio(caps, steps),
        "pea.cap_measurements_frac": _ratio(capped_meas, meas),
        "pea.truth_retained_frac": _ratio(retained, steps),
        "pea.final_accuracy_phi0": statistics.fmean(accuracies) if accuracies else 0.0,
        "fringes.probability_excited.calls": calls["fringes.probability_excited"],
        "fringes.probability_excited.self_s": self_s["fringes.probability_excited"],
        "fringes.pattern_grid.s": total["fringes.pattern_grid"],
        "optimizer.ridge_scan.s": total["optimizer.ridge_scan"],
        "optimizer.ridge_scan.cells_per_s": _ratio(cells, total["optimizer.ridge_scan"]),
        "optimizer.find_optimal_flux.s": total["optimizer.find_optimal_flux"],
        "optimizer.sensitivity.calls": calls["optimizer.sensitivity"],
        "decoherence.composite_rates.calls": calls["decoherence.composite_rates"],
        "decoherence.composite_rates.self_s": self_s["decoherence.composite_rates"],
        "decoherence.rates_table.s": total["decoherence.rates_table"],
        "qubit.spectrum_derivatives.calls": calls["qubit.spectrum_derivatives"],
        "qubit.spectrum_derivatives.self_s": self_s["qubit.spectrum_derivatives"],
        "magnetostatics.mutual_inductances.s": total["magnetostatics.mutual_inductances"],
        "magnetostatics.field_at.calls": tracer.counts["magnetostatics.field_at"],
        "config.load_config.s": total["config.load_config"],
    })
    return metrics
