"""Per-host dependence testing over channel pairs and dependency-graph assembly.

Every (input channel, output channel) pair on a host is tested by comparing
the empirical CDF of its real input->output delays against F0, the exact
delay CDF of an output independent of the input, built from the input's
gaps.  KS p-values for all tested pairs on a host are then pushed through
Benjamini-Hochberg selection, which is what keeps a host with thousands of
channel pairs from drowning in false edges.

A host's results are one PairTable: a column per statistic over all of its
pairs, filled batch by batch, with no Python object per pair.  The graph
and the reports read the columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from statops.stats import (
    LogOddsModel,
    bh_select,
    kolmogorov_sf,
    ks_uniform_segments,
    log_odds_segments,
)
from statops.traces import ChannelId, HostTrace, null_delay_cdf, pair_delays

__all__ = [
    "DiscoveryConfig",
    "PairTable",
    "EdgeEvidence",
    "DependencyGraph",
    "local_dependencies",
    "build_graph",
    "export_graph",
    "graph_payload",
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

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.method not in ("ks", "log_odds", "both"):
            raise ValueError(f"unknown method '{self.method}'")


@dataclass(frozen=True, eq=False)
class PairTable:
    """Dependence evidence for every (input, output) channel pair of one host,
    as columns.

    Pair k is ``(inputs[k // len(outputs)], outputs[k % len(outputs)])``:
    pairs run input-major over the host's sorted channels, and ``len(table)``
    counts them.  A pair with fewer than min_samples paired delays, or whose
    input has no null (traces.null_delay_cdf is None), is not tested:
    ``tested`` is False, ``statistic``, ``p_value`` and ``q_value`` are NaN,
    and it is never ``dependent``.
    """

    inputs: tuple[ChannelId, ...]
    outputs: tuple[ChannelId, ...]
    n_delays: np.ndarray  # int, paired delays within the horizon
    statistic: np.ndarray  # one-sample KS D against F0
    p_value: np.ndarray  # kolmogorov_sf of D * sqrt(n_delays)
    log_odds: np.ndarray  # log Bayes factor; 0 where the input has no null
    q_value: np.ndarray  # BH-adjusted p-value over the host's tested pairs
    dependent: np.ndarray  # bool
    tested: np.ndarray  # bool

    def __len__(self) -> int:
        return self.n_delays.size

    def pairs(self) -> list[tuple[ChannelId, ChannelId]]:
        """(input, output) of every pair, in table order."""
        return [(cin, cout) for cin in self.inputs for cout in self.outputs]


def local_dependencies(trace: HostTrace, config: DiscoveryConfig) -> PairTable:
    """Test every input x output channel pair on one host.

    Each pair's delays are tested against F0, the delay CDF that an output
    independent of the input would have (traces.null_delay_cdf): a
    one-sample KS test with Kolmogorov's limiting p-value, and a log Bayes
    factor whose null bins have F0's probabilities.  KS p-values of all
    tested pairs go through bh_select at config.alpha; a pair is dependent
    when its q-value clears alpha (method "ks"), when its log Bayes factor
    clears LOG_BF_THRESHOLD (method "log_odds"), or both (method "both").
    Deterministic per (trace, config).

    Pairs are tested in batches, one per input channel: all output
    channels' times are paired with the input at once, and each statistic
    is computed for every pair of the batch in one segmented pass.
    """
    model = LogOddsModel(config.horizon)  # checks the horizon, also for an empty trace
    inputs = tuple(sorted(c for c in trace.channels if c.direction == "in"))
    outputs = tuple(sorted(c for c in trace.channels if c.direction == "out"))
    shape = (len(inputs), len(outputs))
    n_delays = np.zeros(shape, dtype=np.int64)
    statistic = np.full(shape, np.nan)
    log_odds = np.zeros(shape)
    tested = np.zeros(shape, dtype=bool)
    if inputs and outputs:
        end = trace.window[1]
        out_times = np.concatenate([trace.channels[c].times for c in outputs])
        out_pair = np.repeat(np.arange(len(outputs)),
                             [trace.channels[c].times.size for c in outputs])
        edges = np.append(np.arange(model.bins) * (config.horizon / model.bins), config.horizon)
        for i, cin in enumerate(inputs):
            in_times = trace.channels[cin].times
            delays, kept = pair_delays(in_times, out_times, config.horizon)
            pair_of = out_pair[kept]
            n_delays[i] = np.bincount(pair_of, minlength=len(outputs))
            f0 = null_delay_cdf(in_times, end, config.horizon)
            if f0 is None:
                continue
            with np.errstate(divide="ignore"):  # an empty null bin: log 0
                log_p = np.log(np.diff(f0(edges)))
            log_odds[i] = log_odds_segments(delays, n_delays[i], model, log_p)

            tested[i] = n_delays[i] >= config.min_samples
            sizes = n_delays[i, tested[i]]
            sample = delays[tested[i, pair_of]]
            bounds = np.cumsum(sizes).tolist()
            for start, stop in zip([0] + bounds, bounds):
                sample[start:stop].sort()
            statistic[i, tested[i]] = ks_uniform_segments(f0(sample), sizes)

    tested, statistic, log_odds = tested.ravel(), statistic.ravel(), log_odds.ravel()
    n_delays = n_delays.ravel()
    p_value = np.full(tested.size, np.nan)
    p_value[tested] = kolmogorov_sf(statistic[tested] * np.sqrt(n_delays[tested]))
    q_value = np.full(tested.size, np.nan)
    bh_dependent = np.zeros(tested.size, dtype=bool)
    if tested.any():
        selection = bh_select(p_value[tested], config.alpha)
        q_value[tested] = selection.q_values
        bh_dependent[np.flatnonzero(tested)[list(selection.rejected_indices)]] = True
    bf_dependent = tested & (log_odds >= LOG_BF_THRESHOLD)
    dependent = {"ks": bh_dependent, "log_odds": bf_dependent,
                 "both": bh_dependent & bf_dependent}[config.method]
    return PairTable(inputs=inputs, outputs=outputs, n_delays=n_delays,
                     statistic=statistic, p_value=p_value, log_odds=log_odds,
                     q_value=q_value, dependent=dependent, tested=tested)


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


def build_graph(per_host: Sequence[tuple[str, PairTable]]) -> DependencyGraph:
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

    for host, table in per_host:
        hits = np.flatnonzero(table.dependent)
        evidence = zip(hits.tolist(), table.q_value[hits].tolist(),
                       table.n_delays[hits].tolist(), table.statistic[hits].tolist())
        for pair, q, n, stat in evidence:
            i, j = divmod(pair, len(table.outputs))
            cin, cout = table.inputs[i], table.outputs[j]
            nodes.update((host, cin.remote, cout.remote))
            ev = EdgeEvidence(q_value=q, n_delays=n, statistic=stat)
            add_edge((cin.remote, host, cin.service), ev)
            add_edge((host, cout.remote, cout.service), ev)
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
        return (json.dumps(graph_payload(g), sort_keys=True, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format '{format}'")


def graph_payload(g: DependencyGraph) -> dict:
    """The JSON form of a graph: sorted nodes and sorted edges with their evidence."""
    return {
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
