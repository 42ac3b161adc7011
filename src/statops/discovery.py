"""Per-host dependence testing over channel pairs and dependency-graph assembly.

Every (input channel, output channel) pair on a host is tested by comparing
the empirical CDF of its real input->output delays against the CDF of delays
to a virtual random output channel.  KS p-values for all tested pairs on a
host are then pushed through Benjamini-Hochberg selection, which is what
keeps a host with thousands of channel pairs from drowning in false edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from statops.stats import (
    LogOddsModel,
    TestOutcome,
    bh_select,
    ks_p_value,
    ks_statistic_segments,
    log_odds_segments,
)
from statops.traces import ChannelId, HostTrace, pair_delays, virtual_departures

__all__ = [
    "DiscoveryConfig",
    "ChannelPairResult",
    "EdgeEvidence",
    "DependencyGraph",
    "local_dependencies",
    "build_graph",
    "export_graph",
]

# log Bayes-factor cutoff for method="log_odds": the conventional "strong
# evidence" point.  There is no universal threshold; this one is fixed so
# every report reads its log_odds column against the same cutoff.
LOG_BF_THRESHOLD = math.log(20.0)


@dataclass(frozen=True)
class DiscoveryConfig:
    alpha: float = 0.05
    horizon: float = 1.0
    min_samples: int = 10
    method: str = "ks"  # ks | log_odds | both
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.method not in ("ks", "log_odds", "both"):
            raise ValueError(f"unknown method '{self.method}'")


@dataclass(frozen=True)
class ChannelPairResult:
    """Dependence evidence for one (input, output) channel pair.

    Pairs with fewer than min_samples paired delays (or no usable virtual
    sample) are never tested: ks is None, q_value is NaN and
    insufficient_data is set.
    """

    input: ChannelId
    output: ChannelId
    n_delays: int
    ks: TestOutcome | None
    log_odds: float
    q_value: float
    dependent: bool
    insufficient_data: bool


def local_dependencies(trace: HostTrace, config: DiscoveryConfig) -> list[ChannelPairResult]:
    """Test every input x output channel pair on one host.

    KS p-values of all tested pairs go through bh_select at config.alpha;
    a pair is dependent when its q-value clears alpha (method "ks"), when its
    log Bayes factor clears LOG_BF_THRESHOLD (method "log_odds"), or both
    (method "both").  Deterministic per (trace, config).

    Pairs are tested in batches, one per input channel: all output
    channels' times are paired with the input at once, and each statistic
    is computed for every pair of the batch in one segmented pass.  The
    virtual channels of all the host's pairs are drawn in one call, from
    one generator, in input-major pair order.
    """
    model = LogOddsModel(config.horizon)  # checks the horizon, also for an empty trace
    inputs = sorted(c for c in trace.channels if c.direction == "in")
    outputs = sorted(c for c in trace.channels if c.direction == "out")
    if not inputs or not outputs:
        return []
    window = trace.window
    out_sizes = np.array([trace.channels[c].times.size for c in outputs])
    out_times = np.concatenate([trace.channels[c].times for c in outputs])
    out_pair = np.repeat(np.arange(len(outputs)), out_sizes)

    # Real delays of every pair, one batch per input, and the output each
    # delay belongs to.
    real = []
    for cin in inputs:
        delays, kept = pair_delays(trace.channels[cin].times, out_times, config.horizon)
        real.append((delays, out_pair[kept]))
    n_real = np.array([np.bincount(pair_of, minlength=len(outputs)) for _, pair_of in real])

    # Virtual-channel null sample for every pair with enough real delays,
    # split into one run of departures per input.
    enough = (n_real >= config.min_samples) & (window[1] > window[0])
    # A spawned child: default_rng(seed) would replay gen-trace's draws for an equal seed.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    departures = np.split(virtual_departures(out_sizes[np.nonzero(enough)[1]], window, rng),
                          np.cumsum((enough * out_sizes).sum(axis=1))[:-1])

    # (input, output, n_delays, log BF, KS outcome or None), input-major.
    pairs: list[tuple[ChannelId, ChannelId, int, float, TestOutcome | None]] = []
    for i, cin in enumerate(inputs):
        delays, pair_of = real[i]
        log_bfs = log_odds_segments(delays, n_real[i], model)
        drawn = np.flatnonzero(enough[i])
        virtual, v_kept = pair_delays(trace.channels[cin].times, departures[i], config.horizon)
        n_virtual = np.bincount(np.repeat(np.arange(drawn.size), out_sizes[drawn])[v_kept],
                                minlength=drawn.size)
        tested, n_virtual = drawn[n_virtual > 0], n_virtual[n_virtual > 0]
        is_tested = np.zeros(len(outputs), dtype=bool)
        is_tested[tested] = True
        d = ks_statistic_segments(delays[is_tested[pair_of]], n_real[i, tested],
                                  virtual, n_virtual)

        counts = n_real[i].tolist()
        outcome: list[TestOutcome | None] = [None] * len(outputs)
        for j, stat, n_b in zip(tested.tolist(), d.tolist(), n_virtual.tolist()):
            p = ks_p_value(stat, counts[j], n_b)
            outcome[j] = TestOutcome(statistic=stat, p_value=p, n_a=counts[j], n_b=n_b,
                                     significant=p <= config.alpha)
        pairs += zip([cin] * len(outputs), outputs, counts, log_bfs.tolist(), outcome)

    tested_ks = [ks for *_, ks in pairs if ks is not None]
    selection = bh_select([ks.p_value for ks in tested_ks], config.alpha) if tested_ks else None
    results = []
    pos = 0
    for cin, cout, n, log_bf, ks in pairs:
        if ks is None:
            results.append(ChannelPairResult(
                input=cin, output=cout, n_delays=n, ks=None,
                log_odds=log_bf, q_value=float("nan"), dependent=False,
                insufficient_data=True,
            ))
            continue
        q = float(selection.q_values[pos])
        bh_dependent = pos in selection.rejected_indices
        pos += 1
        bf_dependent = log_bf >= LOG_BF_THRESHOLD
        if config.method == "ks":
            dependent = bh_dependent
        elif config.method == "log_odds":
            dependent = bf_dependent
        else:
            dependent = bh_dependent and bf_dependent
        results.append(ChannelPairResult(
            input=cin, output=cout, n_delays=n, ks=ks,
            log_odds=log_bf, q_value=q, dependent=dependent, insufficient_data=False,
        ))
    return results


@dataclass(frozen=True)
class EdgeEvidence:
    q_value: float
    n_delays: int
    statistic: float


@dataclass(eq=True)
class DependencyGraph:
    """Directed host/service dependency graph with per-edge test evidence."""

    nodes: frozenset[str]
    edges: dict[tuple[str, str, str], EdgeEvidence]  # (from, to, service)


def build_graph(
    per_host: Sequence[tuple[str, Sequence[ChannelPairResult]]]
) -> DependencyGraph:
    """Merge per-host dependent pairs into one graph.

    A dependent pair with input remote x (service s_in) and output remote y
    (service s_out) on host h contributes edges x -(s_in)-> h and
    h -(s_out)-> y.  Duplicate edges keep the strongest (smallest-q) evidence,
    so merging the same results twice is a no-op.  Host ids must be
    distinct, apart from '', the id of every trace without records.
    """
    hosts = [h for h, _ in per_host if h]
    if len(hosts) != len(set(hosts)):
        raise ValueError("host ids must be distinct")
    nodes: set[str] = set()
    edges: dict[tuple[str, str, str], EdgeEvidence] = {}

    def add_edge(key: tuple[str, str, str], ev: EdgeEvidence) -> None:
        kept = edges.get(key)
        if kept is None or ev.q_value < kept.q_value:
            edges[key] = ev

    for host, results in per_host:
        for r in results:
            if not r.dependent:
                continue
            nodes.update((host, r.input.remote, r.output.remote))
            stat = r.ks.statistic if r.ks is not None else float("nan")
            ev = EdgeEvidence(q_value=r.q_value, n_delays=r.n_delays, statistic=stat)
            add_edge((r.input.remote, host, r.input.service), ev)
            add_edge((host, r.output.remote, r.output.service), ev)
    return DependencyGraph(nodes=frozenset(nodes), edges=edges)


def export_graph(g: DependencyGraph, format: str = "dot") -> bytes:
    """Render a graph as DOT or JSON, deterministically sorted."""
    if format == "dot":
        lines = ["digraph constellation {"]
        for node in sorted(g.nodes):
            lines.append(f'  "{node}";')
        for (src, dst, service) in sorted(g.edges):
            ev = g.edges[(src, dst, service)]
            lines.append(
                f'  "{src}" -> "{dst}" [service="{service}", q_value={ev.q_value!r}];'
            )
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = {
            "nodes": sorted(g.nodes),
            "edges": [
                {
                    "from": src,
                    "to": dst,
                    "service": service,
                    "q_value": g.edges[(src, dst, service)].q_value,
                    "n_delays": g.edges[(src, dst, service)].n_delays,
                    "statistic": g.edges[(src, dst, service)].statistic,
                }
                for (src, dst, service) in sorted(g.edges)
            ],
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format '{format}'")
