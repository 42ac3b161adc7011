"""Spec and ground-truth sidecar contract: exact error messages and line
numbers for every error class, and a format/parse round trip of the spec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statops.traces import (
    ChannelId,
    ChannelSpec,
    DependencySpec,
    SynthSpec,
    TraceFormatError,
    parse_ground_truth,
    parse_synth_spec,
)

TRACE = "kind=trace host=h duration=10 seed=0\n"
CHANNELS = ("kind=channel dir=in service=s remote=r rate=1\n"
            "kind=channel dir=out service=q remote=d rate=1\n")
DEP = "kind=dep in_service=s in_remote=r out_service=q out_remote=d mean_delay=0.1 prob=0.5\n"

# (id, spec text, line number, exact message)
SPEC_ERRORS = [
    ("no-kind", "host=h duration=10 seed=0\n", 1, "line 1: expected field 'kind', got 'host=h'"),
    ("unknown-kind", TRACE + "kind=bogus a=1\n", 2, "line 2: unknown kind 'bogus'"),
    ("unknown-kind-alone", TRACE + "kind=bogus\n", 2, "line 2: unknown kind 'bogus'"),
    ("missing-trace-line", "kind=channel dir=in service=s remote=r rate=1\n", 1,
     "line 1: missing kind=trace line"),
    ("empty-file", "", 1, "line 1: missing kind=trace line"),
    ("comments-and-blanks-count", "# c\n  # d\n\n" + TRACE + "kind=bogus\n", 5,
     "line 5: unknown kind 'bogus'"),
    ("crlf-line-numbers", TRACE.replace("\n", "\r\n") + "kind=bogus\r\n", 2,
     "line 2: unknown kind 'bogus'"),
    # kind=trace
    ("trace-too-few-fields", "kind=trace host=h duration=10\n", 1,
     "line 1: expected 4 fields, got 3"),
    ("trace-too-many-fields", "kind=trace host=h duration=10 seed=0 x=1\n", 1,
     "line 1: expected 4 fields, got 5"),
    ("duplicate-trace-line", TRACE + TRACE, 2, "line 2: duplicate trace line"),
    ("trace-wrong-key", "kind=trace host=h dur=10 seed=0\n", 1,
     "line 1: expected field 'duration', got 'dur=10'"),
    ("bad-host", "kind=trace host=h! duration=10 seed=0\n", 1, "line 1: bad host 'h!'"),
    ("bad-duration", "kind=trace host=h duration=abc seed=0\n", 1, "line 1: bad duration 'abc'"),
    ("nan-duration", "kind=trace host=h duration=nan seed=0\n", 1, "line 1: bad duration 'nan'"),
    ("inf-duration", "kind=trace host=h duration=inf seed=0\n", 1, "line 1: bad duration 'inf'"),
    ("negative-duration", "kind=trace host=h duration=-1 seed=0\n", 1,
     "line 1: bad duration '-1': must be >= 0"),
    ("full-width-duration", "kind=trace host=h duration=１ seed=0\n", 1,
     "line 1: bad duration '１'"),
    ("bad-seed", "kind=trace host=h duration=10 seed=x\n", 1, "line 1: bad seed 'x'"),
    ("fractional-seed", "kind=trace host=h duration=10 seed=7.9\n", 1,
     "line 1: bad seed '7.9'"),
    ("exponent-seed", "kind=trace host=h duration=10 seed=1e30\n", 1,
     "line 1: bad seed '1e30'"),
    ("negative-seed", "kind=trace host=h duration=10 seed=-3\n", 1, "line 1: bad seed '-3'"),
    ("signed-seed", "kind=trace host=h duration=10 seed=+3\n", 1, "line 1: bad seed '+3'"),
    ("empty-seed", "kind=trace host=h duration=10 seed=\n", 1, "line 1: bad seed ''"),
    # kind=channel
    ("channel-too-few-fields", TRACE + "kind=channel dir=in service=s remote=r\n", 2,
     "line 2: expected 5 fields, got 4"),
    ("channel-wrong-key", TRACE + "kind=channel direction=in service=s remote=r rate=1\n", 2,
     "line 2: expected field 'dir', got 'direction=in'"),
    ("bad-dir", TRACE + "kind=channel dir=up service=s remote=r rate=1\n", 2,
     "line 2: bad dir 'up' (want in|out)"),
    ("bad-service", TRACE + "kind=channel dir=in service= remote=r rate=1\n", 2,
     "line 2: bad service ''"),
    ("bad-remote", TRACE + "kind=channel dir=in service=s remote=r/x rate=1\n", 2,
     "line 2: bad remote 'r/x'"),
    ("bad-rate", TRACE + "kind=channel dir=in service=s remote=r rate=x\n", 2,
     "line 2: bad rate 'x'"),
    ("zero-rate", TRACE + "kind=channel dir=in service=s remote=r rate=0\n", 2,
     "line 2: bad rate '0': must be > 0"),
    ("remote-is-host", TRACE + "kind=channel dir=in service=s remote=h rate=1\n", 2,
     "line 2: host equals remote 'h'"),
    ("remote-is-later-host", "kind=channel dir=out service=s remote=h rate=1\n" + TRACE, 1,
     "line 1: host equals remote 'h'"),
    # kind=dep
    ("dep-too-few-fields", TRACE + CHANNELS + "kind=dep in_service=s\n", 4,
     "line 4: expected 7 fields, got 2"),
    ("dep-wrong-key", TRACE + CHANNELS + DEP.replace("out_service", "out_svc"), 4,
     "line 4: expected field 'out_service', got 'out_svc=q'"),
    ("bad-in-remote", TRACE + CHANNELS + DEP.replace("in_remote=r", "in_remote=r!"), 4,
     "line 4: bad in_remote 'r!'"),
    ("bad-mean-delay", TRACE + CHANNELS + DEP.replace("mean_delay=0.1", "mean_delay=x"), 4,
     "line 4: bad mean_delay 'x'"),
    ("zero-mean-delay", TRACE + CHANNELS + DEP.replace("mean_delay=0.1", "mean_delay=0"), 4,
     "line 4: bad mean_delay '0': must be > 0"),
    ("prob-above-one", TRACE + CHANNELS + DEP.replace("prob=0.5", "prob=1.5"), 4,
     "line 4: bad prob '1.5': must be in (0, 1]"),
    ("zero-prob", TRACE + CHANNELS + DEP.replace("prob=0.5", "prob=0"), 4,
     "line 4: bad prob '0': must be in (0, 1]"),
    ("undeclared-channel", TRACE + CHANNELS.split("\n")[0] + "\n" + DEP, 3,
     "line 3: undeclared channel dir=out service=q remote=d"),
    ("undeclared-input-first", TRACE + DEP, 2,
     "line 2: undeclared channel dir=in service=s remote=r"),
    ("first-line-of-later-rule-wins", TRACE + DEP + "kind=channel dir=in service=s remote=h "
     "rate=1\n", 2, "line 2: undeclared channel dir=in service=s remote=r"),
]


@pytest.mark.parametrize("text,line_no,message", [e[1:] for e in SPEC_ERRORS],
                         ids=[e[0] for e in SPEC_ERRORS])
def test_parse_synth_spec_error_message_and_line(text, line_no, message):
    with pytest.raises(TraceFormatError) as caught:
        parse_synth_spec(text)
    assert str(caught.value) == message
    assert caught.value.line_no == line_no


TRUTH = "kind=dep in_service=s in_remote=r out_service=q out_remote=d\n"

# (id, sidecar text, line number, exact message)
TRUTH_ERRORS = [
    ("too-few-fields", "kind=dep in_service=s\n", 1, "line 1: expected 5 fields, got 2"),
    ("other-kind", TRUTH.replace("kind=dep", "kind=channel"), 1, "line 1: bad kind 'channel'"),
    ("no-kind", TRUTH.replace("kind=dep", "k=dep"), 1, "line 1: expected field 'kind', got 'k=dep'"),
    ("wrong-key", TRUTH.replace("out_service", "out_svc"), 1,
     "line 1: expected field 'out_service', got 'out_svc=q'"),
    ("bad-in-remote", TRUTH.replace("in_remote=r", "in_remote=r!"), 1,
     "line 1: bad in_remote 'r!'"),
    ("comment", "# planted\n" + TRUTH, 1, "line 1: expected 5 fields, got 2"),
    ("blank-lines-and-crlf-count", "\n \n" + TRUTH.replace("\n", "\r\n") + "x\n", 4,
     "line 4: expected 5 fields, got 1"),
]


@pytest.mark.parametrize("text,line_no,message", [e[1:] for e in TRUTH_ERRORS],
                         ids=[e[0] for e in TRUTH_ERRORS])
def test_parse_ground_truth_error_message_and_line(text, line_no, message):
    with pytest.raises(TraceFormatError) as caught:
        parse_ground_truth(text)
    assert str(caught.value) == message
    assert caught.value.line_no == line_no


_ID = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789._-", min_size=1, max_size=6)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def synth_specs(draw):
    host = draw(_ID)
    keys = draw(st.lists(st.tuples(st.sampled_from(("in", "out")), _ID, _ID.filter(
        lambda remote: remote != host)), max_size=6, unique=True))
    channels = tuple(ChannelSpec(ChannelId(*key), draw(_POSITIVE)) for key in keys)
    ins = [c.id for c in channels if c.id.direction == "in"]
    outs = [c.id for c in channels if c.id.direction == "out"]
    deps = ()
    if ins and outs:
        deps = tuple(draw(st.lists(st.builds(
            DependencySpec, st.sampled_from(ins), st.sampled_from(outs), _POSITIVE,
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True)), max_size=4)))
    return SynthSpec(host=host, duration=draw(st.floats(min_value=0.0, allow_infinity=False)),
                     channels=channels, dependencies=deps,
                     seed=draw(st.integers(min_value=0)))


def _format_spec(spec: SynthSpec, trace_at: int) -> str:
    """The spec as a file, with its kind=trace line at position ``trace_at``."""
    lines = [f"kind=channel dir={c.id.direction} service={c.id.service} remote={c.id.remote} "
             f"rate={c.rate!r}" for c in spec.channels]
    lines += [f"kind=dep in_service={d.input.service} in_remote={d.input.remote} "
              f"out_service={d.output.service} out_remote={d.output.remote} "
              f"mean_delay={d.mean_delay!r} prob={d.response_prob!r}" for d in spec.dependencies]
    lines.insert(min(trace_at, len(lines)),
                 f"kind=trace host={spec.host} duration={spec.duration!r} seed={spec.seed}")
    return "# generated\n" + "".join(line + "\n" for line in lines)


@settings(max_examples=150, deadline=None)
@given(synth_specs(), st.integers(min_value=0, max_value=10))
def test_spec_format_parse_round_trip(spec, trace_at):
    assert parse_synth_spec(_format_spec(spec, trace_at)) == spec
