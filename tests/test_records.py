"""The shared record reader: its block reader reads text as written, then
normalized text, and a loop over the lines only raises the first error.
Together they must give the same columns, or the same ``line N: ...``
error, as a plain loop that tokenizes every line, for traces, repair logs
and truth sidecars."""

from __future__ import annotations

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statops import records, repairs, traces
from statops.records import RecordError
from statops.repairs import parse_fault_truth, parse_repair_log
from statops.traces import parse_trace

# Per format and field: (key, written values, other spellings that parse,
# bad values).  Non-ASCII and empty values are among the last two.
_TICKS = (["7", "0", "-3", "9223372036854775807", "-9223372036854775808"],
          ["1_0", "+5", "007"], ["9223372036854775808", "1.5", "x", "", "１"])
_MACHINES = (["m0", "m1", "m2"], ["", "mé"], [])
_FORMATS = {
    "trace": (parse_trace, [
        ("ts", ["1.5", "0", "1700000000.25", "3e2"], ["1_0", "-0.0", "+5"],
         ["nan", "inf", "1e400", "-1", "abc", "", "１"]),
        ("host", ["h"], [], ["g", "h!"]),
        ("remote", ["x", "y"], [], ["h", "x!", "é"]),
        ("service", ["http", "dns"], [], ["", "a/b"]),
        ("dir", ["in", "out"], [], ["up"]),
    ]),
    "log": (parse_repair_log, [
        ("tick", *_TICKS),
        ("machine", *_MACHINES),
        ("state", ["Healthy", "Failure"], [], ["Broken"]),
        ("action", ["-", "Reboot"], [], ["Pray"]),
        ("reports", ["a:OK;b:Warning", "a:Error", "-"], ["b:OK;a:OK", "é:OK"],
         ["a:OK;a:OK", "a:Fine"]),
    ]),
    "truth": (parse_fault_truth, [
        ("tick", *_TICKS),
        ("machine", *_MACHINES),
        ("truth", ["ok", "transient", "persistent"], [], ["weird"]),
    ]),
}


def record_text(rnd, fields) -> tuple[str, list[str]]:
    """(text, its lines): written lines, some with another spelling of a
    value; half the files also hold bad values, and half odd lines (tabs,
    doubled or edge spaces, non-ASCII spaces and line boundaries, CRLF,
    blank lines, wrong field counts or keys, control bytes between or inside
    fields, a lone surrogate inside a field)."""
    kinds = ["written"] * 3 + ["other"] + [kind for kind in ("bad", "odd") if rnd.random() < 0.5]
    lines = []
    for _ in range(rnd.randint(0, 12)):
        kind = rnd.choice(kinds)
        values = [rnd.choice(written) for _, written, _, _ in fields]
        if kind in ("other", "bad"):
            pool = 2 if kind == "other" else 3
            k = rnd.choice([k for k, field in enumerate(fields) if field[pool]])
            values[k] = rnd.choice(fields[k][pool])
        tokens = [f"{key}={value}" for (key, *_), value in zip(fields, values)]
        line, end = " ".join(tokens), "\n"
        if kind == "odd":
            first, rest = tokens[0], " ".join(tokens[1:])
            line = rnd.choice([
                "\t".join(tokens), "  ".join(tokens), " " + line, line + " ", "", "  ",
                " ".join(tokens[:-1]), line + " x=1", first[1::-1] + first[2:] + " " + rest,
                first.replace("=", "=\t", 1) + " " + rest,
                *(first + c + " " + rest for c in "\t\x0b\x0c\x1c\x1f"),
                *(first + c + rest for c in "\t\x0b\x1c\xa0\u3000\x85\u2028"),
                "\xa0".join(tokens), line + "\u3000", first + "\x01 " + rest,
                " ".join([first, tokens[1] + "\x01", *tokens[2:]]),
                " ".join([first, tokens[1] + "\ud800", *tokens[2:]]),
            ])
            end = rnd.choice(["\n", "\r\n"])
        lines.append(line + end)
    text = "".join(lines)
    if lines and rnd.random() < 0.5:
        text = text[:-len(end)]  # no final line end
    return text, lines


def _every_line_tokenized(text, fields, decode):
    """``records.read_columns`` as a plain loop that tokenizes every line."""
    codes: dict[str, int] = {}
    keys, numbers, code_of = [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        values = records.tokenize(line_no, line, fields)
        if values is None:
            continue
        key = " ".join(line.split()[1:])
        if key not in codes:
            codes[key] = len(keys)
            keys.append(decode(line_no, values[1:]))
        numbers.append(values[0])
        code_of.append(codes[key])
    return (np.array(numbers, dtype=np.dtype(fields[0][1].kind)),
            np.array(code_of, dtype=np.intp), keys)


def _columns(parsed):
    if hasattr(parsed, "channels"):
        return parsed.host, sorted((cid, s.times.tobytes()) for cid, s in parsed.channels.items())
    return [(f.name, v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else
            (f.name, v) for f in dataclasses.fields(parsed)
            for v in [getattr(parsed, f.name)]]


def _outcome(parse, source):
    try:
        return "ok", _columns(parse(source))
    except RecordError as exc:
        assert str(exc).startswith(f"line {exc.line_no}: ")
        return "error", str(exc)


def _block_reads(monkeypatch) -> list[str]:
    """The texts the block reader is handed from now on, in order."""
    seen = []
    block_columns = records._block_columns

    def spy(text, fields):
        seen.append(text)
        return block_columns(text, fields)

    monkeypatch.setattr(records, "_block_columns", spy)
    return seen


def _no_error_loop(*args):
    raise AssertionError("the error loop ran")


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
@settings(max_examples=300, deadline=None)
@given(rnd=st.randoms())
def test_block_path_matches_line_path(rnd, fmt):
    parse, fields = _FORMATS[fmt]
    text, lines = record_text(rnd, fields)
    # Put a block edge a few bytes either side of a line end, so that the
    # lines around it fall in different blocks.
    edge = len("".join(lines[:rnd.randint(0, len(lines))]).encode(errors="surrogatepass"))
    block = max(1, edge + rnd.randint(-3, 3))
    with mock.patch.object(traces, "read_columns", _every_line_tokenized), \
            mock.patch.object(repairs, "read_columns", _every_line_tokenized):
        expected = _outcome(parse, text)
    with mock.patch.object(records, "_block_columns", lambda *args: None):  # the error loop alone
        if expected[0] == "error":
            assert _outcome(parse, text) == expected
        else:
            with pytest.raises(RuntimeError, match="^record reader bug"):
                parse(text)
    with mock.patch.object(records, "_BLOCK_BYTES", block):
        assert _outcome(parse, text) == expected


# The layout checks alone must keep these from the block reader as written,
# whatever the check of each rest (its form) would make of them; non-ASCII
# text never reaches it as written.
@pytest.mark.parametrize("text", [
    "num=1 a=x b=y\u2028z\n", "num=1 a=x b=y\x85z\n", "num=1 a=x b=y\x0bz\n",
    "num=1 a=x\tq=1 b=y\n", "num=1 a=x b=y\r\n", "nmu=1 a=x b=y\n", "num= a=x b=y\n",
    "num a=x b=y\n", "num=1 a=x b=y\n  ", "num=1\x0ba=x b=y\n", "num=1 a=x b=y\xa0z\n",
], ids=["line-separator", "next-line", "vertical-tab", "tab", "crlf", "first-key",
        "empty-number", "no-equals", "short-last-line", "vertical-tab-for-space",
        "no-break-space"])
def test_layout_checks_do_not_lean_on_rest_form(text, monkeypatch):
    fields = (("num", records.Number(int, 0, 100)), ("a", str), ("b", str))

    def read(reader):
        try:
            numbers, codes, keys = reader(text, fields, lambda line_no, values: values)
        except RecordError as exc:
            return str(exc)
        return numbers.tolist(), codes.tolist(), keys

    expected = read(_every_line_tokenized)
    seen = _block_reads(monkeypatch)
    assert read(records.read_columns) == expected
    if not text.isascii():
        assert text not in seen
        return
    with mock.patch.object(records, "tokenize", lambda line_no, rest, fields: [rest]):
        assert records._block_columns(text, fields) is None


def test_written_form_skips_line_loop(monkeypatch):
    log = "tick=1 machine=m0 state=Healthy action=- reports=a:OK\n" * 3 \
        + "tick=2 machine= state=Failure action=Reboot reports=a:Error\n"
    truth = "tick=2 machine=m0 truth=ok\ntick=3 machine= truth=ok\n"
    trace = "ts=1.5 host=h remote=x service=http dir=in\nts=2 host=h remote=y service=dns dir=out"
    monkeypatch.setattr(records, "_BLOCK_BYTES", 40)
    monkeypatch.setattr(records, "_raise_first_error", _no_error_loop)
    seen = _block_reads(monkeypatch)
    parsed = parse_repair_log(log)
    assert (parsed.tick.tolist(), parsed.machines) == ([1, 1, 1, 2], ("m0", ""))
    parsed = parse_fault_truth(truth)
    assert (parsed.tick.tolist(), parsed.machines) == ([2, 3], ("m0", ""))
    written = parse_trace(trace)
    assert len(written.channels) == 2
    assert seen == [log, truth, trace]  # as written, once each
    seen.clear()
    tabbed = trace.replace(" ", "\t")
    assert parse_trace(tabbed) == written
    assert seen == [tabbed, trace]  # as written, then normalized


_LOG_OK = "tick=1 machine=m0 state=Healthy action=- reports=a:OK\n"


@pytest.mark.parametrize("parse,text,message", [
    (parse_trace, "\n  \nts=1 host=h remote=x service=http dir=in\n"
     " ts=2\thost=h  remote=h service=http dir=in \r\n", "line 4: host equals remote 'h'"),
    (parse_repair_log, "\t\n" + _LOG_OK + "\n\u3000tick=2  machine=m0 state=Healthy action=- "
     "reports=a:OK;a:Error\n", "line 4: duplicate watchdog 'a'"),
    (parse_repair_log, _LOG_OK * 2 + " \r\n\n" + _LOG_OK.replace(" ", "\xa0 ").replace(
        "a:OK", "a:Oops"), "line 5: bad status 'Oops'"),
], ids=["trace-host-equals-remote", "log-duplicate-watchdog", "log-bad-status"])
def test_decode_error_after_blank_and_padded_lines_names_its_line(parse, text, message,
                                                                 monkeypatch):
    monkeypatch.setattr(records, "_raise_first_error", _no_error_loop)
    with pytest.raises(RecordError, match=f"^{message}$"):
        parse(text)


def test_decode_error_in_later_block_keeps_its_line():
    text = "tick=1 machine=m0 state=Healthy action=- reports=a:OK\n" * 5 \
        + "tick=2 machine=m0 state=Healthy action=- reports=a:Oops\n"
    with mock.patch.object(records, "_BLOCK_BYTES", 100), \
            pytest.raises(RecordError, match=r"^line 6: bad status 'Oops'$"):
        parse_repair_log(text)


def test_parse_trace_peak_memory_stays_near_text_size():
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(0.01, 80_000))
    text = "".join(f"ts={t!r} host=desktop remote=client{k % 8:02d} service=s{k % 8:02d} "
                   f"dir={'in' if k % 2 else 'out'}\n"
                   for k, t in enumerate(times.tolist()))
    parse_trace(text[:1000].rsplit("\n", 1)[0])  # first-call imports are not counted
    tracemalloc.start()
    try:
        trace = parse_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.times.size for s in trace.channels.values()) == 80_000
    assert peak <= 1.5 * len(text), (peak, len(text))
