"""Trace parser contract: exact error messages and line numbers for every
error class, the whitespace it accepts, and a serialize/parse round trip."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statops.traces import (
    ChannelId,
    ChannelSeries,
    HostTrace,
    TraceFormatError,
    parse_trace,
    serialize_trace,
)

OK = "ts=1.0 host=h remote=x service=http dir=in"
OK2 = "ts=2.5 host=h remote=y service=dns dir=out"

# (id, trace text, line number, exact message)
ERRORS = [
    ("too-few-fields", "ts=1.0 host=h remote=x\n", 1, "line 1: expected 5 fields, got 3"),
    ("too-many-fields", OK + " extra=1\n", 1, "line 1: expected 5 fields, got 6"),
    ("one-field", "garbage\n", 1, "line 1: expected 5 fields, got 1"),
    ("fields-out-of-order", "host=h ts=1.0 remote=x service=http dir=in\n", 1,
     "line 1: expected field 'ts', got 'host=h'"),
    ("bad-ts", "ts=abc host=h remote=x service=http dir=in\n", 1, "line 1: bad ts 'abc'"),
    ("empty-ts", "ts= host=h remote=x service=http dir=in\n", 1, "line 1: bad ts ''"),
    ("nan-ts", "ts=nan host=h remote=x service=http dir=in\n", 1, "line 1: bad ts 'nan'"),
    ("inf-ts", "ts=inf host=h remote=x service=http dir=in\n", 1, "line 1: bad ts 'inf'"),
    ("minus-inf-ts", "ts=-Infinity host=h remote=x service=http dir=in\n", 1,
     "line 1: bad ts '-Infinity'"),
    ("negative-ts", "ts=-1.5 host=h remote=x service=http dir=in\n", 1,
     "line 1: bad ts '-1.5': negative"),
    ("negative-ts-reformatted", "ts=-1e-3 host=h remote=x service=http dir=in\n", 1,
     "line 1: bad ts '-0.001': negative"),
    ("bad-host", "ts=1.0 host=h! remote=x service=http dir=in\n", 1, "line 1: bad host 'h!'"),
    ("bad-remote", "ts=1.0 host=h remote=x/y service=http dir=in\n", 1,
     "line 1: bad remote 'x/y'"),
    ("empty-service", "ts=1.0 host=h remote=x service= dir=in\n", 1, "line 1: bad service ''"),
    ("wrong-key", "ts=1.0 host=h remote=x svc=http dir=in\n", 1,
     "line 1: expected field 'service', got 'svc=http'"),
    ("bad-dir", OK + "\n" + "ts=2.0 host=h remote=x service=http dir=sideways\n", 2,
     "line 2: bad dir 'sideways' (want in|out)"),
    ("upper-case-dir", "ts=2.0 host=h remote=x service=http dir=IN\n", 1,
     "line 1: bad dir 'IN' (want in|out)"),
    ("host-equals-remote", "ts=1.0 host=h remote=h service=http dir=in\n", 1,
     "line 1: host equals remote 'h'"),
    ("host-mismatch", OK + "\n" + OK2 + "\n" + "ts=3.0 host=b remote=x service=http dir=in\n",
     3, "line 3: host 'b' differs from 'h'"),
    ("blank-lines-count", "\n   \n" + OK + "\n\nts=abc host=h remote=x service=http dir=in\n", 5,
     "line 5: bad ts 'abc'"),
    ("tab-separated-short", "ts=1.0\thost=h\tremote=x\n", 1, "line 1: expected 5 fields, got 3"),
    ("tab-separated-bad-dir", "ts=1.0\thost=h\tremote=x\tservice=http\tdir=up\n", 1,
     "line 1: bad dir 'up' (want in|out)"),
    ("multi-space-bad-ts", "ts=x1  host=h  remote=x  service=http  dir=in\n", 1,
     "line 1: bad ts 'x1'"),
    ("crlf-line-numbers", OK + "\r\n" + OK2 + "\r\nts=1.0 host=h remote=x\r\n", 3,
     "line 3: expected 5 fields, got 3"),
    ("unicode-line-separator", OK + "\u2028ts=abc host=h remote=x service=http dir=in\n", 2,
     "line 2: bad ts 'abc'"),
    ("full-width-ts", "ts=１ host=h remote=x service=http dir=in\n", 1, "line 1: bad ts '１'"),
    # only a library caller's str can hold a lone surrogate; UTF-8 cannot
    ("lone-surrogate-in-service", OK + "\nts=2.0 host=h remote=x service=ht\ud800tp dir=in\n",
     2, "line 2: bad service 'ht\ud800tp'"),
    ("no-break-space-bad-dir", "ts=1.0\xa0host=h remote=x service=http dir=up\n", 1,
     "line 1: bad dir 'up' (want in|out)"),
    # The first bad line wins, whichever check catches it.
    ("negative-before-malformed",
     OK + "\nts=-2.0 host=h remote=x service=http dir=in\nts=1.0 host=h\n", 2,
     "line 2: bad ts '-2.0': negative"),
    ("mismatch-before-malformed",
     OK + "\nts=2.0 host=b remote=x service=http dir=in\nts=1.0 host=h\n", 2,
     "line 2: host 'b' differs from 'h'"),
    ("mismatch-before-nan",
     OK + "\nts=2.0 host=b remote=x service=http dir=in\n"
     "ts=nan host=h remote=x service=http dir=in\n", 2, "line 2: host 'b' differs from 'h'"),
    ("nan-before-mismatch",
     "ts=nan host=h remote=x service=http dir=in\nts=2.0 host=b remote=x service=http dir=in\n",
     1, "line 1: bad ts 'nan'"),
    # A known channel's line is still tokenized when its ts is padded.
    ("padded-ts-of-known-channel", OK + "\n" + OK.replace("ts=", "ts=\t") + "\n", 2,
     "line 2: expected 5 fields, got 6"),
    ("host-equals-remote-after-odd-spacing",
     "ts=1.0  host=h remote=x service=http dir=in\nts=1.0 host=h remote=h service=http dir=in\n",
     2, "line 2: host equals remote 'h'"),
]


@pytest.mark.parametrize("text,line_no,message", [e[1:] for e in ERRORS],
                         ids=[e[0] for e in ERRORS])
def test_parse_error_message_and_line(text, line_no, message):
    with pytest.raises(TraceFormatError) as caught:
        parse_trace(text)
    assert str(caught.value) == message
    assert caught.value.line_no == line_no


CANONICAL = OK + "\n" + OK2 + "\n"

# (id, trace text that must parse exactly like CANONICAL)
ACCEPTED = [
    ("tabs", OK.replace(" ", "\t") + "\n" + OK2 + "\n"),
    ("multiple-spaces", OK.replace(" ", "   ") + "\n" + OK2 + "\n"),
    ("leading-and-trailing-space", "  " + OK + " \t\n" + OK2 + "  \n"),
    ("crlf", OK + "\r\n" + OK2 + "\r\n"),
    ("blank-lines", "\n" + OK + "\n\n \t \n" + OK2),
    ("no-final-newline", OK + "\n" + OK2),
]


@pytest.mark.parametrize("text", [a[1] for a in ACCEPTED], ids=[a[0] for a in ACCEPTED])
def test_parse_accepts_odd_whitespace(text):
    assert parse_trace(text) == parse_trace(CANONICAL)


@pytest.mark.parametrize("raw,value", [("1_0", 10.0), ("1e2", 100.0), ("+5", 5.0),
                                       (".5", 0.5), ("-0.0", 0.0), ("1700000000.25", 1.7e9 + 0.25)])
def test_parse_ts_follows_python_float(raw, value):
    trace = parse_trace(f"ts={raw} host=h remote=x service=http dir=in\n")
    assert list(trace.channels[ChannelId("in", "http", "x")].times) == [value]


_ID = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789._-", min_size=1, max_size=8)
_TIMES = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=1.6e9, max_value=1.8e9, allow_nan=False),
    ),
    min_size=1, max_size=20,
)


@st.composite
def host_traces(draw):
    host = draw(_ID)
    keys = draw(st.lists(st.tuples(st.sampled_from(("in", "out")), _ID, _ID),
                         max_size=6, unique=True))
    channels = {}
    for direction, service, remote in keys:
        if remote == host:
            continue
        cid = ChannelId(direction, service, remote)
        channels[cid] = ChannelSeries(cid, np.array(draw(_TIMES)))
    return HostTrace(host=host if channels else "", channels=channels)


@settings(max_examples=150, deadline=None)
@given(host_traces())
def test_parse_serialize_round_trip(trace):
    text = serialize_trace(trace)
    parsed = parse_trace(text)
    assert parsed == trace
    assert serialize_trace(parsed) == text
