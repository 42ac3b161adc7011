"""In-process tracing for the benchmark's per-layer metrics.

Each layer is a public function of ``statops``, wrapped *as it is bound in
its caller's module namespace* (``statops.discovery.delay_samples``, not
``statops.traces.delay_samples``), so the program's own source stays
untouched.  Every call records a span (name, start, end, parent); a layer's
self time is its span's duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Metric stems of the session's commands, in the order a session runs them.
COMMANDS = ("discover", "diagnose", "retrieve", "repair_sim", "repair_mine")

# Child spans that account for the benchmark's own item counting; they are
# excluded from every layer's self time and reported nowhere else.
COUNT_SPAN = "bench.count"


def _lines(args, result) -> int:
    source = args[0]
    return source.count("\n" if isinstance(source, str) else b"\n")


@dataclass(frozen=True)
class Layer:
    """One traced function and the end-to-end metrics it should move."""

    name: str  # metric prefix, <defining module>.<function>
    where: str  # module whose namespace the caller looks the function up in
    attr: str  # attribute path inside ``where``
    moves: tuple[str, ...]  # end-to-end metrics a change here should move
    mainly_on: str  # workload where it should move them (little on)
    item_unit: str = ""  # unit of the ``.items`` metric, when there is one
    items: Callable | None = None  # (args, result) -> work done by one call


LAYERS = (
    Layer("traces.parse_trace", "statops.traces", "parse_trace",
          ("discover_s",), "desk (fleet)", "lines", _lines),
    Layer("traces.delay_samples", "statops.discovery", "delay_samples",
          ("discover_s",), "fleet (desk)"),
    Layer("traces.virtual_random_delays", "statops.discovery", "virtual_random_delays",
          ("discover_s",), "fleet (desk)"),
    Layer("stats.empirical_cdf", "statops.discovery", "empirical_cdf",
          ("discover_s",), "fleet: many small samples; desk: few large samples"),
    Layer("stats.ks_statistic", "statops.discovery", "ks_statistic",
          ("discover_s",), "fleet: many small samples; desk: few large samples"),
    Layer("stats.ks_p_value", "statops.discovery", "ks_p_value",
          ("discover_s",), "fleet: many small samples; desk: few large samples"),
    Layer("stats.log_odds_dependence", "statops.discovery", "log_odds_dependence",
          ("discover_s",), "fleet: many small samples; desk: few large samples"),
    Layer("stats.bh_select", "statops.discovery", "bh_select",
          ("discover_s",), "fleet", "m", lambda args, result: len(args[0])),
    Layer("discovery.local_dependencies", "statops.discovery", "local_dependencies",
          ("discover_s",), "fleet (desk)", "pairs", lambda args, result: len(result)),
    Layer("discovery.build_graph", "statops.discovery", "build_graph",
          ("discover_s",), "fleet"),
    Layer("discovery.export_graph", "statops.discovery", "export_graph",
          ("discover_s",), "fleet"),
    Layer("diagnosis.load_metrics_csv", "statops.diagnosis", "load_metrics_csv",
          ("diagnose_s", "retrieve_s"), "both: long vs wide", "rows",
          lambda args, result: result.n_epochs),
    Layer("diagnosis.fit_classifier", "statops.diagnosis", "fit_classifier",
          ("diagnose_s",), "both (small)"),
    Layer("diagnosis.predict", "statops.diagnosis", "predict",
          ("diagnose_s",), "fleet"),
    Layer("diagnosis.signature", "statops.diagnosis", "signature",
          ("diagnose_s", "retrieve_s"), "both: many narrow (desk) vs few wide (fleet)"),
    Layer("diagnosis.cluster_signatures", "statops.diagnosis", "cluster_signatures",
          ("diagnose_s",), "both (small)"),
    Layer("diagnosis.SignatureCatalog.to_jsonl", "statops.diagnosis", "SignatureCatalog.to_jsonl",
          ("diagnose_s",), "both", "bytes", lambda args, result: len(result)),
    Layer("diagnosis.catalog_from_jsonl", "statops.diagnosis", "catalog_from_jsonl",
          ("retrieve_s",), "both", "entries",
          lambda args, result: len(result.entries)),
    Layer("diagnosis.retrieve", "statops.diagnosis", "retrieve",
          ("retrieve_s",), "desk: long catalog"),
    Layer("repairs.simulate", "statops.repairs", "simulate",
          ("repair_sim_s",), "fleet: 4 watchdogs", "machine_ticks",
          lambda args, result: args[0] * args[3]),
    Layer("repairs.device_manager_step", "statops.repairs", "device_manager_step",
          ("repair_sim_s",), "desk: escalation"),
    Layer("repairs.serialize_repair_log", "statops.repairs", "serialize_repair_log",
          ("repair_sim_s", "peak_rss_mb"), "both", "bytes", lambda args, result: len(result)),
    Layer("repairs.serialize_fault_truth", "statops.repairs", "serialize_fault_truth",
          ("repair_sim_s", "peak_rss_mb"), "both"),
    Layer("repairs.parse_repair_log", "statops.repairs", "parse_repair_log",
          ("repair_mine_s", "peak_rss_mb"), "both", "lines", _lines),
    Layer("repairs.parse_fault_truth", "statops.repairs", "parse_fault_truth",
          ("repair_mine_s", "peak_rss_mb"), "both"),
    Layer("repairs.estimate_watchdog_fpr", "statops.repairs", "estimate_watchdog_fpr",
          ("repair_mine_s",), "both"),
    Layer("repairs.evaluate_policy", "statops.repairs", "evaluate_policy",
          ("repair_mine_s",), "both"),
)

# The policy callable handed to ``simulate`` is wrapped per call of simulate.
POLICY_SPAN = "repairs.policy"
POLICY_MAPPING = {"moves": ("repair_sim_s",), "mainly_on": "fleet (desk)"}


class Recorder:
    """Spans of one traced session, kept in memory until it is summarized."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.items: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, items: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if items is not None:
                # A refactored signature or result type leaves the count
                # short; it must never fail the program's own call.
                with contextlib.suppress(TypeError, AttributeError, IndexError):
                    self.items[name] += items(args, result)
                spans.append((COUNT_SPAN, end, clock(), parent))
            return result

        return traced


def _traced_policy(recorder: Recorder, simulate: Callable) -> Callable:
    @functools.wraps(simulate)
    def simulate_with_traced_policy(fleet, fault_model, policy, *rest, **kwargs):
        return simulate(fleet, fault_model, recorder.wrap(POLICY_SPAN, policy), *rest, **kwargs)

    return simulate_with_traced_policy


def install(recorder: Recorder) -> tuple[list[tuple[object, str, Callable]], list[str]]:
    """Wrap every layer that exists; returns (patches to undo, absent layer names)."""
    patches, absent = [], []
    for layer in LAYERS:
        owner: object | None = importlib.import_module(layer.where)
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            absent.append(layer.name)
            continue
        inner = _traced_policy(recorder, fn) if layer.name == "repairs.simulate" else fn
        setattr(owner, attr, recorder.wrap(layer.name, inner, layer.items))
        patches.append((owner, attr, fn))
    return patches, absent


def uninstall(patches: list[tuple[object, str, Callable]]) -> None:
    for owner, attr, fn in reversed(patches):
        setattr(owner, attr, fn)


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def summarize(spans: list[tuple[str, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per span name: total self time, call count, and the count of calls
    whose root span is each ``cli.*`` command (key ``calls_in.<root>``)."""
    children: dict[int, list[tuple[float, float]]] = {}
    root = []
    for i, (_, start, end, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        if name == COUNT_SPAN:
            continue
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - covered(start, end, children.get(i, []))
        entry["calls"] += 1
        key = "calls_in." + spans[root[i]][0]
        entry[key] = entry.get(key, 0) + 1
    return out


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer.name}.self_s", "s", "lower"), (f"{layer.name}.calls", "count", "lower")]
        if layer.item_unit:
            names.append((f"{layer.name}.items", layer.item_unit, "higher"))
    names += [
        (f"{POLICY_SPAN}.calls", "count", "lower"),
        (f"{POLICY_SPAN}.calls_per_machine_tick", "calls/tick", "lower"),
        ("discovery.pairs_tested", "count", "higher"),
        ("discovery.tested_ratio", "ratio", "higher"),
        ("discovery.shifted.pairs_tested", "count", "higher"),
        ("discovery.shifted.pairs", "count", "higher"),
        ("discovery.precision", "ratio", "higher"),
        ("diagnosis.retrieve.signatures_per_query", "calls/query", "lower"),
    ]
    names += [(f"cli.{stem}.self_s", "s", "lower") for stem in COMMANDS]
    names += [("cli.startup_s", "s", "lower"), ("bench.trace_overhead_s", "s", "lower")]
    return names

