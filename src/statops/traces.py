"""Packet-header traces: per-host channels, delay pairing, synthetic generators.

A channel groups one host's packet events by direction, protocol/service
label and remote endpoint.  Dependence between an input channel and an output
channel is judged from the delays between each output event and the latest
preceding input event (``pair_delays``), compared against the exact delay
distribution the same pairing gives an output independent of the input
(``null_delay_cdf``, built from the input's gaps).

Trace files hold one record per line in the shared ``key=value`` syntax of
``statops.records`` (UTF-8, any whitespace, CRLF and blank lines accepted):

    ts=<float seconds> host=<id> remote=<id> service=<label> dir=<in|out>

Ids and labels match ``[A-Za-z0-9._-]+``; ``serialize_trace`` writes single
spaces.  Synthetic-trace specs and ground-truth sidecars use the same syntax
(see ``parse_synth_spec`` and ``parse_ground_truth``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .records import BadValue, Number, RecordError, read_columns, tokenize

__all__ = [
    "TraceFormatError",
    "ChannelId",
    "ChannelSeries",
    "HostTrace",
    "ChannelSpec",
    "DependencySpec",
    "SynthSpec",
    "parse_trace",
    "serialize_trace",
    "pair_delays",
    "null_delay_cdf",
    "synth_trace",
    "parse_synth_spec",
    "serialize_ground_truth",
    "parse_ground_truth",
]

_ID_RE = re.compile(r"[A-Za-z0-9._-]+\Z")
_DIRECTIONS = ("in", "out")

# Malformed trace, spec or ground-truth file; carries the 1-based line number.
TraceFormatError = RecordError


@dataclass(frozen=True, order=True)
class ChannelId:
    direction: str
    service: str
    remote: str


@dataclass(eq=False)
class ChannelSeries:
    """Strictly ascending event times for one channel (duplicates coalesced)."""

    id: ChannelId
    times: np.ndarray

    def __post_init__(self) -> None:
        # np.unique's own sort-and-mask, without its np.ma.is_masked call,
        # which imports numpy.ma
        t = np.sort(np.asarray(self.times, dtype=float), axis=None)
        keep = np.ones(t.size, dtype=bool)
        keep[1:] = t[1:] != t[:-1]
        t = t[keep]
        if t.size == 0:
            raise ValueError(f"channel {self.id} has no events")
        t.flags.writeable = False
        self.times = t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelSeries):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.times, other.times)


@dataclass(eq=False)
class HostTrace:
    """One host's view of the network: all its channels."""

    host: str
    channels: dict[ChannelId, ChannelSeries] = field(default_factory=dict)

    @property
    def window(self) -> tuple[float, float]:
        """(first, last) timestamp over all channels; (0.0, 0.0) without events."""
        if not self.channels:
            return 0.0, 0.0
        lo = min(float(s.times[0]) for s in self.channels.values())
        hi = max(float(s.times[-1]) for s in self.channels.values())
        return lo, hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HostTrace):
            return NotImplemented
        return self.host == other.host and self.channels == other.channels


def _identifier(raw: str) -> str:
    if not _ID_RE.match(raw):
        raise ValueError(raw)
    return raw


def _direction(raw: str) -> str:
    if raw not in _DIRECTIONS:
        raise BadValue(f"'{raw}' (want in|out)")
    return raw


_TRACE_FIELDS = (("ts", Number(float, 0.0, np.inf)), ("host", _identifier),
                 ("remote", _identifier), ("service", _identifier), ("dir", _direction))


def parse_trace(text: str) -> HostTrace:
    """Parse a trace's text into a HostTrace.

    Accepts the record syntax of ``statops.records``; all records must share
    one host id, and per-channel duplicate timestamps are coalesced.  The
    first malformed line raises TraceFormatError with its 1-based line number.
    """
    hosts: list[str] = []

    # The host rules hold per channel key, so they are checked at each key's
    # first line, which is the first line that can break them.
    def channel(line_no: int, values: list) -> ChannelId:
        host, remote, service, direction = values
        if host == remote:
            raise TraceFormatError(line_no, f"host equals remote '{host}'")
        if hosts and host != hosts[0]:
            raise TraceFormatError(line_no, f"host '{host}' differs from '{hosts[0]}'")
        hosts.append(host)
        return ChannelId(direction, service, remote)

    times, codes, ids = read_columns(text, _TRACE_FIELDS, channel)
    by_channel = np.split(times[np.argsort(codes, kind="stable")],
                          np.cumsum(np.bincount(codes, minlength=len(ids)))[:-1])
    channels = {cid: ChannelSeries(cid, ts) for cid, ts in zip(ids, by_channel)}
    return HostTrace(host=hosts[0] if hosts else "", channels=channels)


def serialize_trace(trace: HostTrace) -> str:
    """Render a HostTrace in the trace file format, deterministically sorted."""
    lines = []
    for cid in sorted(trace.channels):
        suffix = (f" host={trace.host} remote={cid.remote} service={cid.service} "
                  f"dir={cid.direction}\n")
        lines += [f"ts={t!r}{suffix}" for t in trace.channels[cid].times.tolist()]
    return "".join(lines)


def pair_delays(
    in_times: np.ndarray, out_times: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Delays from each output time back to the latest input time at or
    before it, dropping pairs farther apart than ``horizon``.

    Returns the delays, in output order, and the mask of the output times
    they belong to.  ``in_times`` must be ascending and non-empty;
    ``out_times`` need not be sorted, so several output channels' times may
    be laid end to end and told apart afterwards through the mask.
    """
    idx = np.searchsorted(in_times, out_times, side="right") - 1
    # idx -1 (no input at or before) reads the last input; the mask drops it.
    delays = out_times - in_times[idx]
    kept = (idx >= 0) & (delays <= horizon)
    return delays[kept], kept


def null_delay_cdf(in_times: np.ndarray, end: float,
                   horizon: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """The delay CDF F0 that pair_delays gives an output independent of the
    input: one uniform over the observation window that ends at ``end``.

    With gaps g_i between the ascending input times (the last gap runs to
    ``end``), such an output has delay at most d with probability
    proportional to G(d) = sum_i min(g_i, d), and pair_delays keeps it when
    d <= horizon.  So F0(d) = G(d) / G(horizon) for d in [0, horizon].
    G comes from the sorted gaps and their prefix sums: with k gaps at most
    d, G(d) = (sum of those k) + (n - k) * d.

    Returns F0 as a function of an array of delays, or None when G(horizon)
    is 0 (the only input event ends the window), where no delay is likely.
    """
    gaps = np.sort(np.diff(in_times, append=end))
    below = np.concatenate([[0.0], np.cumsum(gaps)])

    def mass(d):
        k = np.searchsorted(gaps, d, side="right")
        return below[k] + (gaps.size - k) * d

    total = float(mass(horizon))
    return None if total == 0 else lambda d: mass(d) / total


@dataclass(frozen=True)
class ChannelSpec:
    id: ChannelId
    rate: float  # Poisson events per second


@dataclass(frozen=True)
class DependencySpec:
    input: ChannelId
    output: ChannelId
    mean_delay: float
    response_prob: float


@dataclass(frozen=True)
class SynthSpec:
    """Ground-truth generator spec: Poisson background channels plus planted
    input->output response dependencies."""

    host: str
    duration: float
    channels: tuple[ChannelSpec, ...]
    dependencies: tuple[DependencySpec, ...] = ()
    seed: int = 0


def _validate_synth_spec(spec: SynthSpec) -> None:
    declared = {c.id for c in spec.channels}
    if spec.duration < 0:
        raise ValueError("duration must be >= 0")
    for c in spec.channels:
        if not c.rate > 0:
            raise ValueError(f"rate must be > 0 for channel {c.id}")
    for d in spec.dependencies:
        if not d.mean_delay > 0:
            raise ValueError(f"mean_delay must be > 0 for {d.input}->{d.output}")
        if not 0 < d.response_prob <= 1:
            raise ValueError(f"response_prob must be in (0, 1] for {d.input}->{d.output}")
        if d.input not in declared or d.output not in declared:
            raise ValueError(f"dependency {d.input}->{d.output} references undeclared channel")


def synth_trace(spec: SynthSpec) -> tuple[HostTrace, frozenset[tuple[ChannelId, ChannelId]]]:
    """Generate a synthetic HostTrace with planted dependencies.

    Background events per channel follow a Poisson process.  Each dependency
    makes every background event of its input channel spawn, with the given
    response probability, one output event delayed by an Exponential(mean)
    draw; spawned events past the trace duration are dropped.  Returns the
    trace plus the planted (input, output) channel pairs as ground truth.
    Bit-identical across runs for a fixed spec.
    """
    _validate_synth_spec(spec)
    rng = np.random.default_rng(spec.seed)
    background: dict[ChannelId, np.ndarray] = {}
    events: dict[ChannelId, list[np.ndarray]] = {}
    for c in spec.channels:
        n = rng.poisson(c.rate * spec.duration)
        times = rng.uniform(0.0, spec.duration, n) if n else np.empty(0)
        background[c.id] = times
        events.setdefault(c.id, []).append(times)

    # Responses react to the input channel's background stream only, so
    # chained dependencies do not amplify each other.
    for d in spec.dependencies:
        src = background[d.input]
        fired = src[rng.random(src.size) < d.response_prob]
        out = fired + rng.exponential(d.mean_delay, fired.size)
        events.setdefault(d.output, []).append(out[out <= spec.duration])

    channels = {}
    for cid, chunks in events.items():
        times = np.concatenate(chunks) if chunks else np.empty(0)
        if times.size:
            channels[cid] = ChannelSeries(cid, times)
    truth = frozenset((d.input, d.output) for d in spec.dependencies)
    return HostTrace(host=spec.host, channels=channels), truth


def _number(rule: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """Converter to a finite float, spelled in ASCII, that ``ok`` accepts;
    the error says what the value ``must be``."""
    def convert(raw: str) -> float:
        number = float(raw) if raw.isascii() else np.nan
        if not np.isfinite(number):
            raise ValueError(raw)
        if not ok(number):
            raise BadValue(f"'{raw}': must be {rule}")
        return number
    return convert


def _seed(raw: str) -> int:
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(raw)
    return int(raw)


_POSITIVE = _number("> 0", lambda x: x > 0)
_DEP_IDS = (("in_service", _identifier), ("in_remote", _identifier),
            ("out_service", _identifier), ("out_remote", _identifier))
# One field list per kind of spec line; each starts with the kind.
_SPEC_FIELDS = {
    "trace": (("kind", str), ("host", _identifier),
              ("duration", _number(">= 0", lambda x: x >= 0)), ("seed", _seed)),
    "channel": (("kind", str), ("dir", _direction), ("service", _identifier),
                ("remote", _identifier), ("rate", _POSITIVE)),
    "dep": (("kind", str), *_DEP_IDS, ("mean_delay", _POSITIVE),
            ("prob", _number("in (0, 1]", lambda x: 0 < x <= 1))),
}
_TRUTH_FIELDS = (("kind", {"dep": "dep"}.__getitem__), *_DEP_IDS)  # kind=dep records only


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse a generator spec file.

    The record syntax of traces, one record per line, ``#`` comments allowed:

        kind=trace host=desktop duration=600 seed=7
        kind=channel dir=in service=http remote=web01 rate=2.0
        kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9

    Exactly one ``kind=trace`` line is required; ``seed`` is a non-negative
    integer.  Dependency inputs are "in" channels and outputs are "out"
    channels, each declared by a channel line, and no channel's remote may be
    the host.  Every error names its line.
    """
    trace = None
    channels: list[tuple[int, ChannelSpec]] = []
    deps: list[tuple[int, DependencySpec]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind, = tokenize(line_no, tokens[0], (("kind", str),))  # it picks the field list
        if kind not in _SPEC_FIELDS:
            raise TraceFormatError(line_no, f"unknown kind '{kind}'")
        _, *values = tokenize(line_no, line, _SPEC_FIELDS[kind])
        if kind == "trace":
            if trace is not None:
                raise TraceFormatError(line_no, "duplicate trace line")
            trace = values
        elif kind == "channel":
            direction, service, remote, rate = values
            channels.append((line_no, ChannelSpec(ChannelId(direction, service, remote), rate)))
        else:
            in_service, in_remote, out_service, out_remote, mean_delay, prob = values
            deps.append((line_no, DependencySpec(ChannelId("in", in_service, in_remote),
                                                 ChannelId("out", out_service, out_remote),
                                                 mean_delay, prob)))
    if trace is None:
        raise TraceFormatError(1, "missing kind=trace line")
    host, duration, seed = trace
    # The rules that span lines, reported at the first line that breaks one.
    declared = {c.id for _, c in channels}
    problems = [(n, f"host equals remote '{host}'") for n, c in channels if c.id.remote == host]
    problems += [(n, f"undeclared channel dir={cid.direction} service={cid.service} "
                     f"remote={cid.remote}")
                 for n, d in deps for cid in (d.input, d.output) if cid not in declared]
    if problems:
        raise TraceFormatError(*min(problems, key=lambda problem: problem[0]))
    return SynthSpec(host=host, duration=duration, channels=tuple(c for _, c in channels),
                     dependencies=tuple(d for _, d in deps), seed=seed)


def serialize_ground_truth(truth: frozenset[tuple[ChannelId, ChannelId]]) -> str:
    """Sidecar format for planted dependencies, one pair per line."""
    return "".join(f"kind=dep in_service={in_id.service} in_remote={in_id.remote} "
                   f"out_service={out_id.service} out_remote={out_id.remote}\n"
                   for in_id, out_id in sorted(truth))


def parse_ground_truth(text: str) -> frozenset[tuple[ChannelId, ChannelId]]:
    """Parse a sidecar of planted dependencies, as serialize_ground_truth writes it."""
    pairs = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        values = tokenize(line_no, line, _TRUTH_FIELDS)
        if values is not None:
            _, in_service, in_remote, out_service, out_remote = values
            pairs.add((ChannelId("in", in_service, in_remote),
                       ChannelId("out", out_service, out_remote)))
    return frozenset(pairs)
