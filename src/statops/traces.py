"""Packet-header traces: per-host channels, delay pairing, synthetic generators.

A channel groups one host's packet events by direction, protocol/service
label and remote endpoint.  Dependence between an input channel and an output
channel is judged from the delays between each output event and the latest
preceding input event, compared against the same pairing applied to a virtual
output channel with uniformly random departure times.

Trace files are newline-delimited, UTF-8, one record per line:

    ts=<float seconds> host=<id> remote=<id> service=<label> dir=<in|out>

Fields come in fixed order; ids and labels match ``[A-Za-z0-9._-]+``.
``serialize_trace`` writes single spaces, and the parser also accepts any run
of whitespace between and around fields, blank lines and CRLF line ends.
Synthetic-trace specs reuse the same token syntax (see ``parse_synth_spec``).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Iterable, NoReturn

import numpy as np

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
    "delay_samples",
    "virtual_departures",
    "virtual_random_delays",
    "synth_trace",
    "parse_synth_spec",
    "serialize_ground_truth",
    "parse_ground_truth",
]

_ID = r"[A-Za-z0-9._-]+"
_ID_RE = re.compile(_ID + r"\Z")
_DIRECTIONS = ("in", "out")
# A trace record as serialize_trace writes it: single spaces, nothing around.
_CANONICAL_RE = re.compile(
    rf"ts=(\S+) (host={_ID} remote={_ID} service={_ID} dir=(?:in|out))"
)
_CHANNEL_KEY = "host={} remote={} service={} dir={}"


class TraceFormatError(ValueError):
    """Malformed trace or spec file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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
        t = np.unique(np.asarray(self.times, dtype=float))
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

    @property
    def duration(self) -> float:
        """Max minus min timestamp over all channels; 0 with fewer than 2 events."""
        lo, hi = self.window
        return hi - lo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HostTrace):
            return NotImplemented
        return self.host == other.host and self.channels == other.channels


def _iter_lines(source) -> Iterable[str]:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        return source.splitlines()
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return _iter_lines(data)
    return list(source)


def _parse_field(line_no: int, token: str, key: str) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise TraceFormatError(line_no, f"expected field '{key}', got '{token}'")
    return token[len(prefix):]


def _parse_id(line_no: int, token: str, key: str) -> str:
    value = _parse_field(line_no, token, key)
    if not _ID_RE.match(value):
        raise TraceFormatError(line_no, f"bad {key} '{value}'")
    return value


def _parse_float(line_no: int, token: str, key: str) -> float:
    raw = _parse_field(line_no, token, key)
    try:
        value = float(raw)
    except ValueError:
        raise TraceFormatError(line_no, f"bad {key} '{raw}'") from None
    if not np.isfinite(value):
        raise TraceFormatError(line_no, f"bad {key} '{raw}'")
    return value


def _check_record(line_no: int, line: str) -> tuple[float, str, str, str, str] | None:
    """Apply every per-line rule of the trace format, in the order its errors
    are reported: (ts, host, remote, service, dir), or None for a blank line."""
    tokens = line.split()
    if not tokens:
        return None
    if len(tokens) != 5:
        raise TraceFormatError(line_no, f"expected 5 fields, got {len(tokens)}")
    ts = _parse_float(line_no, tokens[0], "ts")
    if ts < 0:
        raise TraceFormatError(line_no, f"bad ts '{ts}': negative")
    host = _parse_id(line_no, tokens[1], "host")
    remote = _parse_id(line_no, tokens[2], "remote")
    service = _parse_id(line_no, tokens[3], "service")
    direction = _parse_field(line_no, tokens[4], "dir")
    if direction not in _DIRECTIONS:
        raise TraceFormatError(line_no, f"bad dir '{direction}' (want in|out)")
    if host == remote:
        raise TraceFormatError(line_no, f"host equals remote '{host}'")
    return ts, host, remote, service, direction


def _raise_first_error(lines: list[str]) -> NoReturn:
    """Re-check ``lines`` one at a time and raise the first line's error."""
    host = None
    for line_no, line in enumerate(lines, start=1):
        record = _check_record(line_no, line)
        if record is None:
            continue
        if host is None:
            host = record[1]
        elif record[1] != host:
            raise TraceFormatError(line_no, f"host '{record[1]}' differs from '{host}'")
    raise AssertionError("the columnar pass rejected a valid trace")


def parse_trace(source) -> HostTrace:
    """Parse a trace stream into a HostTrace.

    Accepts bytes, str, a file-like object, or an iterable of lines.  Blank
    lines are skipped, and fields may be separated and surrounded by any
    whitespace.  All records must share one host id; per-channel duplicate
    timestamps are coalesced.  The first malformed line raises
    TraceFormatError with its 1-based line number.
    """
    lines = _iter_lines(source)
    # One pass maps each line's channel key to an integer code.  Lines in any
    # form but the canonical one go through _check_record; the host, sign and
    # finiteness rules run once over all lines afterwards.  On any failure the
    # lines are re-checked one by one, so the first bad line's error wins.
    match = _CANONICAL_RE.fullmatch
    codes: dict[str, int] = {}
    stamps: list[float] = []
    channel_of: list[int] = []
    add_stamp, add_channel = stamps.append, channel_of.append
    try:
        for line_no, line in enumerate(lines, start=1):
            m = match(line)
            if m is not None:
                ts, key = m.groups()
                ts = float(ts)
            else:
                record = _check_record(line_no, line)
                if record is None:
                    continue
                ts, key = record[0], _CHANNEL_KEY.format(*record[1:])
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(codes)
            add_stamp(ts)
            add_channel(code)
    except ValueError:  # a bad float, or TraceFormatError from _check_record
        _raise_first_error(lines)

    keys = [[token.split("=", 1)[1] for token in key.split(" ")] for key in codes]
    times = np.array(stamps, dtype=float)
    if (
        len({host for host, _, _, _ in keys}) > 1
        or any(host == remote for host, remote, _, _ in keys)
        or not np.all(np.isfinite(times) & (times >= 0))
    ):
        _raise_first_error(lines)

    channel_codes = np.asarray(channel_of, dtype=np.intp)
    by_channel = np.split(times[np.argsort(channel_codes, kind="stable")],
                          np.cumsum(np.bincount(channel_codes, minlength=len(keys)))[:-1])
    channels = {}
    for (_, remote, service, direction), ts in zip(keys, by_channel):
        cid = ChannelId(direction, service, remote)
        channels[cid] = ChannelSeries(cid, ts)
    return HostTrace(host=keys[0][0] if keys else "", channels=channels)


def serialize_trace(trace: HostTrace) -> str:
    """Render a HostTrace in the trace file format, deterministically sorted."""
    lines = []
    for cid in sorted(trace.channels):
        for t in trace.channels[cid].times:
            lines.append(
                f"ts={float(t)!r} host={trace.host} remote={cid.remote} "
                f"service={cid.service} dir={cid.direction}"
            )
    return "".join(line + "\n" for line in lines)


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


def delay_samples(input: ChannelSeries, output: ChannelSeries, horizon: float) -> np.ndarray:
    """Delays from each output event back to the latest input event at or
    before it, dropping pairs farther apart than ``horizon``.

    One delay per output event at most; an input event may serve several
    outputs.  Result values lie in [0, horizon].
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    return pair_delays(input.times, output.times, horizon)[0]


def virtual_departures(n_out: int, window: tuple[float, float], seed: int) -> np.ndarray:
    """Departure times of a virtual output channel: ``n_out`` i.i.d.
    Uniform(t_min, t_max) draws over the observation ``window``, sorted."""
    # The generator default_rng(seed) builds, without its argument checks.
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.sort(rng.uniform(window[0], window[1], n_out))


def virtual_random_delays(
    input: ChannelSeries, n_out: int, window: tuple[float, float], horizon: float, seed: int
) -> np.ndarray:
    """Delay sample of ``input`` against a virtual output channel whose
    departure times are i.i.d. uniform over the observation window
    (t_min, t_max), the trace's first and last timestamps.

    This is the null reference for the dependence test: a real output channel
    that ignores the input should look like this one.  Drawing over the
    observed window, not from time 0, keeps the test invariant to the time
    origin, so epoch-stamped captures test like zero-based ones.
    """
    if n_out < 0:
        raise ValueError("n_out must be >= 0")
    if not window[1] > window[0]:
        raise ValueError(f"window must have t_max > t_min, got {window}")
    if n_out == 0:
        return np.empty(0)
    return pair_delays(input.times, virtual_departures(n_out, window, seed), horizon)[0]


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


def parse_synth_spec(source) -> SynthSpec:
    """Parse a generator spec file.

    Same token syntax as traces, one record per line, ``#`` comments allowed:

        kind=trace host=desktop duration=600 seed=7
        kind=channel dir=in service=http remote=web01 rate=2.0
        kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9

    Exactly one ``kind=trace`` line is required.  Dependency inputs are "in"
    channels and outputs are "out" channels.
    """
    host = None
    duration = None
    seed = 0
    channels: list[ChannelSpec] = []
    deps: list[DependencySpec] = []
    for line_no, line in enumerate(_iter_lines(source), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        kind = _parse_field(line_no, tokens[0], "kind")
        rest = tokens[1:]
        if kind == "trace":
            if len(rest) != 3:
                raise TraceFormatError(line_no, "trace line needs host, duration, seed")
            if host is not None:
                raise TraceFormatError(line_no, "duplicate trace line")
            host = _parse_id(line_no, rest[0], "host")
            duration = _parse_float(line_no, rest[1], "duration")
            seed = int(_parse_float(line_no, rest[2], "seed"))
        elif kind == "channel":
            if len(rest) != 4:
                raise TraceFormatError(line_no, "channel line needs dir, service, remote, rate")
            direction = _parse_field(line_no, rest[0], "dir")
            if direction not in _DIRECTIONS:
                raise TraceFormatError(line_no, f"bad dir '{direction}' (want in|out)")
            service = _parse_id(line_no, rest[1], "service")
            remote = _parse_id(line_no, rest[2], "remote")
            rate = _parse_float(line_no, rest[3], "rate")
            channels.append(ChannelSpec(ChannelId(direction, service, remote), rate))
        elif kind == "dep":
            if len(rest) != 6:
                raise TraceFormatError(
                    line_no,
                    "dep line needs in_service, in_remote, out_service, out_remote, mean_delay, prob",
                )
            in_id = ChannelId("in", _parse_id(line_no, rest[0], "in_service"),
                              _parse_id(line_no, rest[1], "in_remote"))
            out_id = ChannelId("out", _parse_id(line_no, rest[2], "out_service"),
                               _parse_id(line_no, rest[3], "out_remote"))
            mean_delay = _parse_float(line_no, rest[4], "mean_delay")
            prob = _parse_float(line_no, rest[5], "prob")
            deps.append(DependencySpec(in_id, out_id, mean_delay, prob))
        else:
            raise TraceFormatError(line_no, f"unknown kind '{kind}'")
    if host is None or duration is None:
        raise TraceFormatError(1, "missing kind=trace line")
    spec = SynthSpec(host=host, duration=duration, channels=tuple(channels),
                     dependencies=tuple(deps), seed=seed)
    _validate_synth_spec(spec)
    return spec


def serialize_ground_truth(truth: frozenset[tuple[ChannelId, ChannelId]]) -> str:
    """Sidecar format for planted dependencies, one pair per line."""
    lines = []
    for in_id, out_id in sorted(truth):
        lines.append(
            f"kind=dep in_service={in_id.service} in_remote={in_id.remote} "
            f"out_service={out_id.service} out_remote={out_id.remote}"
        )
    return "".join(line + "\n" for line in lines)


def parse_ground_truth(source) -> frozenset[tuple[ChannelId, ChannelId]]:
    pairs = set()
    for line_no, line in enumerate(_iter_lines(source), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 5 or _parse_field(line_no, tokens[0], "kind") != "dep":
            raise TraceFormatError(line_no, "expected a kind=dep record")
        in_id = ChannelId("in", _parse_id(line_no, tokens[1], "in_service"),
                          _parse_id(line_no, tokens[2], "in_remote"))
        out_id = ChannelId("out", _parse_id(line_no, tokens[3], "out_service"),
                           _parse_id(line_no, tokens[4], "out_remote"))
        pairs.add((in_id, out_id))
    return frozenset(pairs)
