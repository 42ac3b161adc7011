"""Repair log and truth sidecar contract: exact error messages and line
numbers for every error class, the forms the parsers accept, and
serialize/parse round trips over simulated and hand-built logs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statops.records import RecordError
from statops.repairs import (
    ABSENT,
    ACTIONS,
    NO_ACTION,
    STATES,
    STATUSES,
    TRUTHS,
    FaultModel,
    FaultTruth,
    RepairLog,
    WatchdogSpec,
    always_do_nothing,
    always_replace,
    escalation_policy,
    parse_fault_truth,
    parse_repair_log,
    serialize_fault_truth,
    serialize_repair_log,
    simulate,
)

OK = "tick=0 machine=m00 state=Healthy action=- reports=a:OK;b:Warning"
OK2 = "tick=1 machine=m00 state=Failure action=Reboot reports=a:Error;b:OK"


def _rows(log: RepairLog) -> list[tuple]:
    """The log's rows with names in place of codes and reports as a dict."""
    return [
        (t, log.machines[m], s, a,
         {log.watchdogs[k]: c for k, c in enumerate(row) if c != ABSENT})
        for t, m, s, a, row in zip(log.tick.tolist(), log.machine.tolist(),
                                   log.state.tolist(), log.action.tolist(),
                                   log.status.tolist())
    ]


def _truth_rows(truth: FaultTruth) -> list[tuple[int, str, str]]:
    return [(t, truth.machines[m], TRUTHS[c]) for t, m, c in
            zip(truth.tick.tolist(), truth.machine.tolist(), truth.code.tolist())]


# (id, log text, exact message)
LOG_ERRORS = [
    ("too-few-fields", "tick=0 machine=m state=Healthy\n", "line 1: expected 5 fields, got 3"),
    ("too-many-fields", OK + " x=1\n", "line 1: expected 5 fields, got 6"),
    ("fields-out-of-order", "machine=m tick=0 state=Healthy action=- reports=-\n",
     "line 1: expected field 'tick', got 'machine=m'"),
    ("bad-tick", "tick=x machine=m state=Healthy action=- reports=-\n", "line 1: bad tick 'x'"),
    ("empty-tick", "tick= machine=m state=Healthy action=- reports=-\n", "line 1: bad tick ''"),
    ("float-tick", "tick=1.5 machine=m state=Healthy action=- reports=-\n",
     "line 1: bad tick '1.5'"),
    ("tick-beyond-int64", f"tick={2**63} machine=m state=Healthy action=- reports=-\n",
     f"line 1: bad tick '{2**63}'"),
    ("full-width-tick", "tick=１ machine=m state=Healthy action=- reports=-\n",
     "line 1: bad tick '１'"),
    ("control-character-in-machine", "tick=0 machine=m\x01 state=Healthy action=- reports=-\n",
     "line 1: bad machine 'm\x01'"),
    ("control-character-in-reports", OK + "\ntick=1 machine=m state=Healthy action=- "
     "reports=a:OK\x1b\n", "line 2: bad reports 'a:OK\x1b'"),
    ("lone-surrogate-in-machine", OK + "\ntick=1 machine=m\ud800 state=Healthy action=- "
     "reports=-\n", "line 2: bad machine 'm\ud800'"),
    ("wrong-machine-key", "tick=0 host=m state=Healthy action=- reports=-\n",
     "line 1: expected field 'machine', got 'host=m'"),
    ("bad-state", "tick=0 machine=m state=Broken action=- reports=-\n",
     "line 1: bad state 'Broken'"),
    ("bad-action", "tick=0 machine=m state=Failure action=Pray reports=-\n",
     "line 1: bad action 'Pray'"),
    ("bad-status", "tick=0 machine=m state=Healthy action=- reports=a:OK;b:Fine\n",
     "line 1: bad status 'Fine'"),
    ("missing-status", "tick=0 machine=m state=Healthy action=- reports=a\n",
     "line 1: bad status ''"),
    ("empty-reports", "tick=0 machine=m state=Healthy action=- reports=\n",
     "line 1: bad status ''"),
    ("empty-watchdog-name", OK + "\ntick=1 machine=m state=Failure action=- reports=:Error\n",
     "line 2: bad watchdog ''"),
    ("duplicate-watchdog", "tick=0 machine=m state=Healthy action=- reports=wd:OK;wd:Error\n",
     "line 1: duplicate watchdog 'wd'"),
    ("bad-status-before-duplicate", OK + "\n"
     "tick=1 machine=m state=Healthy action=- reports=wd:OK;wd:Bad\n",
     "line 2: bad status 'Bad'"),
    ("blank-lines-count",
     "\n \t\n" + OK + "\n\ntick=x machine=m state=Healthy action=- reports=-\n",
     "line 5: bad tick 'x'"),
    ("crlf-line-numbers", OK + "\r\n" + OK2 + "\r\ntick=2 machine=m\r\n",
     "line 3: expected 5 fields, got 2"),
    ("unicode-line-separator", OK + "\u2028tick=x machine=m state=Healthy action=- reports=-\n",
     "line 2: bad tick 'x'"),
    # The first bad line wins, whether or not it is in canonical form.
    ("canonical-bad-status-first", OK + "\n"
     "tick=1 machine=m state=Healthy action=- reports=a:Oops\n"
     "tick=x machine=m state=Healthy action=- reports=-\n", "line 2: bad status 'Oops'"),
    ("odd-spacing-bad-status-first", OK + "\n"
     "tick=1  machine=m state=Healthy action=- reports=a:Oops\n"
     "tick=2 machine=m state=Healthy action=- reports=b:Oops\n", "line 2: bad status 'Oops'"),
    ("padded-tick-of-known-rest", OK + "\n" + OK.replace("tick=", "tick=\t") + "\n",
     "line 2: expected 5 fields, got 6"),
    ("repeated-bad-reports-report-first-line", OK + "\n"
     "tick=1 machine=m state=Healthy action=- reports=a:Oops\n"
     "tick=2 machine=m state=Healthy action=- reports=a:Oops\n", "line 2: bad status 'Oops'"),
]


@pytest.mark.parametrize("text,message", [e[1:] for e in LOG_ERRORS],
                         ids=[e[0] for e in LOG_ERRORS])
def test_parse_repair_log_error_message_and_line(text, message):
    with pytest.raises(RecordError) as caught:
        parse_repair_log(text)
    assert str(caught.value) == message
    assert message.startswith(f"line {caught.value.line_no}: ")


# (id, truth text, exact message)
TRUTH_ERRORS = [
    ("too-few-fields", "tick=0 machine=m\n", "line 1: expected 3 fields, got 2"),
    ("bad-tick", "tick=x machine=m truth=ok\n", "line 1: bad tick 'x'"),
    ("control-character-in-machine", "tick=0 machine=\x00m truth=ok\n",
     "line 1: bad machine '\x00m'"),
    ("lone-surrogate-in-truth", "tick=0 machine=m truth=ok\ntick=1 machine=m truth=ok\udcff\n",
     "line 2: bad truth 'ok\udcff'"),
    ("wrong-key", "tick=0 machine=m status=ok\n",
     "line 1: expected field 'truth', got 'status=ok'"),
    ("bad-truth", "tick=0 machine=m truth=ok\ntick=0 machine=m truth=weird\n",
     "line 2: bad truth 'weird'"),
    # the written form's gaps, with no value after the tick
    ("tick-and-spaces", "tick=0 machine=m truth=ok\ntick=1  \n",
     "line 2: expected 3 fields, got 1"),
]


@pytest.mark.parametrize("text,message", [e[1:] for e in TRUTH_ERRORS],
                         ids=[e[0] for e in TRUTH_ERRORS])
def test_parse_fault_truth_error_message_and_line(text, message):
    with pytest.raises(RecordError) as caught:
        parse_fault_truth(text)
    assert str(caught.value) == message
    assert message.startswith(f"line {caught.value.line_no}: ")


CANONICAL = OK + "\n" + OK2 + "\n"

# (id, log text that must parse exactly like CANONICAL)
ACCEPTED = [
    ("tabs", OK.replace(" ", "\t") + "\n" + OK2 + "\n"),
    ("multiple-spaces", OK.replace(" ", "   ") + "\n" + OK2 + "\n"),
    ("leading-and-trailing-space", "  " + OK + " \t\n" + OK2 + "  \n"),
    ("crlf", OK + "\r\n" + OK2 + "\r\n"),
    ("blank-lines", "\n" + OK + "\n\n \t \n" + OK2),
    ("reports-in-any-order", OK.replace("a:OK;b:Warning", "b:Warning;a:OK") + "\n" + OK2 + "\n"),
    ("tick-spellings", OK.replace("tick=0", "tick=00") + "\n"
     + OK2.replace("tick=1", "tick=+1") + "\n"),
]


@pytest.mark.parametrize("text", [a[1] for a in ACCEPTED], ids=[a[0] for a in ACCEPTED])
def test_parse_repair_log_accepts_odd_forms(text):
    assert _rows(parse_repair_log(text)) == _rows(parse_repair_log(CANONICAL))
    assert serialize_repair_log(parse_repair_log(text)) == CANONICAL


def test_parse_repair_log_columns():
    log = parse_repair_log(CANONICAL + "tick=2 machine=m01 state=Healthy action=- reports=-\n")
    assert log.tick.tolist() == [0, 1, 2]
    assert [log.machines[m] for m in log.machine] == ["m00", "m00", "m01"]
    assert [STATES[s].value for s in log.state] == ["Healthy", "Failure", "Healthy"]
    assert [None if a == NO_ACTION else ACTIONS[a].value for a in log.action] == [
        None, "Reboot", None]
    assert log.watchdogs == ("a", "b")
    ok, warning, error = range(3)  # codes in STATUSES order
    assert log.status.tolist() == [[ok, warning], [error, ok], [ABSENT, ABSENT]]
    assert log.truth is None


def test_ragged_watchdog_sets_are_absent_where_missing():
    text = ("tick=0 machine=m state=Healthy action=- reports=b:OK\n"
            "tick=1 machine=m state=Healthy action=- reports=a:Error;c:OK\n")
    log = parse_repair_log(text)
    assert log.watchdogs == ("a", "b", "c")
    assert (log.status == ABSENT).tolist() == [[True, False, True], [False, True, False]]
    assert serialize_repair_log(log) == text


def test_parse_fault_truth_later_line_overrides_and_rows_sort_by_key():
    truth = parse_fault_truth("tick=2 machine=b truth=ok\n"
                              "tick=1 machine=b truth=persistent\n"
                              "tick=1 machine=a truth=ok\n"
                              "\n"
                              "tick=2 machine=b\ttruth=transient\n")
    assert _truth_rows(truth) == [(1, "a", "ok"), (1, "b", "persistent"), (2, "b", "transient")]


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

_NAME = st.text(alphabet="abcxyzABZ019_.=-", min_size=1, max_size=5)
_POLICIES = st.sampled_from((escalation_policy, always_do_nothing, always_replace))
_RATE = st.sampled_from((0.0, 0.01, 0.1, 0.5, 1.0))
_TICK = st.integers(-2**63, 2**63 - 1)  # every tick the readers accept


@st.composite
def simulated_logs(draw):
    names = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    watchdogs = tuple(
        WatchdogSpec(name, draw(st.sampled_from((0.0, 0.05, 0.5))),
                     draw(st.sampled_from((0.0, 0.1, 0.9))))
        for name in names
    )
    model = FaultModel(transient_rate=draw(_RATE), persistent_rate=draw(_RATE),
                       warning_rate=draw(_RATE), watchdogs=watchdogs)
    return simulate(draw(st.integers(1, 12)), model, draw(_POLICIES),
                    draw(st.integers(1, 40)), draw(st.integers(0, 2**32)))


@settings(max_examples=60, deadline=None)
@given(simulated_logs())
def test_simulated_log_round_trip(log):
    text = serialize_repair_log(log)
    parsed = parse_repair_log(text)
    assert _rows(parsed) == _rows(log)
    assert serialize_repair_log(parsed) == text
    assert parsed.truth is None
    assert "truth" not in text


@settings(max_examples=60, deadline=None)
@given(simulated_logs())
def test_simulated_truth_round_trip(log):
    text = serialize_fault_truth(log)
    parsed = parse_fault_truth(text)
    assert _truth_rows(parsed) == _truth_rows(log.truth)
    assert serialize_fault_truth(RepairLog(log.tick, log.machine, log.machines, log.state,
                                           log.action, log.status, log.watchdogs,
                                           truth=parsed)) == text


@st.composite
def hand_built_logs(draw):
    machines = tuple(draw(st.lists(_NAME, min_size=1, max_size=4, unique=True)))
    watchdogs = tuple(draw(st.lists(_NAME, max_size=4, unique=True)))
    n = draw(st.integers(0, 30))
    ints = lambda lo, hi: np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
                                   dtype=np.int64)
    status = np.array(draw(st.lists(
        st.lists(st.integers(ABSENT, len(STATUSES) - 1), min_size=len(watchdogs),
                 max_size=len(watchdogs)), min_size=n, max_size=n)), dtype=np.int8)
    return RepairLog(
        tick=ints(-2**63, 2**63 - 1), machine=ints(0, len(machines) - 1), machines=machines,
        state=ints(0, len(STATES) - 1).astype(np.int8),
        action=ints(NO_ACTION, len(ACTIONS) - 1).astype(np.int8),
        status=status.reshape(n, len(watchdogs)), watchdogs=watchdogs,
    )


@settings(max_examples=100, deadline=None)
@given(hand_built_logs())
def test_hand_built_log_round_trip(log):
    text = serialize_repair_log(log)
    parsed = parse_repair_log(text)
    assert _rows(parsed) == _rows(log)
    assert serialize_repair_log(parsed) == text


@st.composite
def hand_built_truths(draw):
    """Sidecar rows as ``parse_fault_truth`` returns them: unique and sorted
    by (tick, machine name), over machine names in any order."""
    machines = tuple(draw(st.lists(_NAME, min_size=1, max_size=4, unique=True)))
    keys = draw(st.lists(st.tuples(_TICK, st.integers(0, len(machines) - 1)),
                         max_size=30, unique=True))
    keys.sort(key=lambda key: (key[0], machines[key[1]]))
    codes = draw(st.lists(st.integers(0, len(TRUTHS) - 1), min_size=len(keys),
                          max_size=len(keys)))
    return FaultTruth(np.array([t for t, _ in keys], dtype=np.int64),
                      np.array([m for _, m in keys], dtype=np.intp), machines,
                      np.array(codes, dtype=np.int8))


@settings(max_examples=100, deadline=None)
@given(hand_built_truths())
@example(FaultTruth(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp), ("m",),
                    np.zeros(0, dtype=np.int8)))
@example(FaultTruth(np.array([-2**63, -2**63, 0, 2**63 - 1]), np.array([1, 0, 1, 0]),
                    ("z", "a"), np.array([2, 0, 1, 2], dtype=np.int8)))
def test_hand_built_truth_round_trip(truth):
    empty = np.zeros(0, dtype=np.int8)
    log = RepairLog(empty, empty, truth.machines, empty, empty, empty.reshape(0, 0), (),
                    truth=truth)
    text = serialize_fault_truth(log)
    parsed = parse_fault_truth(text)
    assert _truth_rows(parsed) == _truth_rows(truth)
    assert serialize_fault_truth(replace(log, truth=parsed)) == text
