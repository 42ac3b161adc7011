"""Fault-detection and repair-loop simulation plus log mining.

Watchdogs probe machines each tick and report OK / Warning / Error.  The
device manager holds a machine in error as soon as any watchdog reports
Error; Warning never counts against a machine.  ``error_predicate`` is that
rule, over an array of status codes: the simulator runs it on each block's
reports, and the log miner on a log's status matrix.  A machine in error
moves to the Failure state and is assigned a recovery action (Reboot,
ReImage, Replace or DoNothing) by the active policy; when the action's
latency has elapsed and the reports are clean it returns to Healthy.  A
repair that elapses while the error persists escalates: the policy is
consulted again with the grown repair history, which is how a persistent
fault walks up the Reboot -> ReImage -> Replace ladder.

Per tick and machine the simulator logs reports, assigned state and any
action issued; the true fault status is kept in a separate ground-truth
channel that mining code must not rely on.

The mined data is columnar: a RepairLog holds one array per field and a
rows x watchdogs status matrix, and serializing, parsing and mining work on
the arrays.  The simulator is event-driven: it draws a block of ticks' rolls
at once and fills the block's rows with array operations, and runs the
device-manager rule (``device_manager_step``, one machine at a time) only
for machines in Failure, with a persistent fault, or with a fault arrival or
an Error report on the tick.

Logs and their ground-truth sidecars hold one record per line in the shared
``key=value`` syntax of ``statops.records``, so no value, watchdog names
included, holds a control character.  Log lines are ``tick=<int>
machine=<id> state=<Healthy|Failure> action=<action|-> reports=<wd:status;...>``;
the sidecar uses ``tick=<int> machine=<id> truth=<ok|transient|persistent>``.
Both are read into columns by ``records.read_columns``, a block at a time;
each distinct rest of a line after its tick is decoded once.  The writers,
likewise, format each distinct tick and line tail once and gather them into
lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .records import Number, RecordError, read_columns

__all__ = [
    "WatchdogStatus",
    "RepairAction",
    "MachineHealth",
    "STATES",
    "ACTIONS",
    "STATUSES",
    "TRUTHS",
    "NO_ACTION",
    "ABSENT",
    "POLICY_WINDOW",
    "MachineState",
    "WatchdogSpec",
    "FaultModel",
    "FaultTruth",
    "RepairLog",
    "CostModel",
    "PolicyMetrics",
    "WatchdogRateEstimate",
    "error_predicate",
    "escalation_policy",
    "always_do_nothing",
    "always_replace",
    "device_manager_step",
    "simulate",
    "estimate_watchdog_fpr",
    "evaluate_policy",
    "serialize_repair_log",
    "parse_repair_log",
    "serialize_fault_truth",
    "parse_fault_truth",
]


class WatchdogStatus(Enum):
    OK = "OK"
    WARNING = "Warning"
    ERROR = "Error"


class RepairAction(Enum):
    REBOOT = "Reboot"
    REIMAGE = "ReImage"
    REPLACE = "Replace"
    DO_NOTHING = "DoNothing"


class MachineHealth(Enum):
    HEALTHY = "Healthy"
    FAILURE = "Failure"


# Integer codes of the columnar log: an array of codes indexes these tuples.
STATES = tuple(MachineHealth)
ACTIONS = tuple(RepairAction)
STATUSES = tuple(WatchdogStatus)
TRUTHS = ("ok", "transient", "persistent")
NO_ACTION = -1  # action code of a row on which no action was issued
ABSENT = -1  # status code of a watchdog that did not report on a row
POLICY_WINDOW = 100  # ticks of a machine's repair history the policy sees

_FAILURE = STATES.index(MachineHealth.FAILURE)
_OK, _WARNING, _ERROR = range(3)  # codes in STATUSES order
_ESCALATED = [ACTIONS.index(RepairAction.REIMAGE), ACTIONS.index(RepairAction.REPLACE)]
_STATE_BY_VALUE = {s.value: k for k, s in enumerate(STATES)}
_ACTION_BY_VALUE = {a.value: k for k, a in enumerate(ACTIONS)}
_STATUS_BY_VALUE = {s.value: k for k, s in enumerate(STATUSES)}
_TRUTH_CODE = {t: k for k, t in enumerate(TRUTHS)}


@dataclass(frozen=True)
class WatchdogSpec:
    name: str
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0

    def __post_init__(self) -> None:
        # the name must fit the log's reports=<wd:status;...> syntax
        if not re.fullmatch(r"[^\s;:\x00-\x1f]+", self.name):
            raise ValueError(f"watchdog name must be non-empty without whitespace, control "
                             f"characters, ';' or ':', got {self.name!r}")
        for rate in (self.false_positive_rate, self.false_negative_rate):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"watchdog rates must lie in [0, 1), got {rate}")


def _default_efficacy() -> dict[RepairAction, float]:
    # Reboot clears transients only (they clear themselves); ReImage has a
    # coin-flip shot at a persistent fault; Replace always works.
    return {
        RepairAction.REBOOT: 0.0,
        RepairAction.REIMAGE: 0.5,
        RepairAction.REPLACE: 1.0,
        RepairAction.DO_NOTHING: 0.0,
    }


def _default_latency() -> dict[RepairAction, int]:
    return {
        RepairAction.REBOOT: 1,
        RepairAction.REIMAGE: 3,
        RepairAction.REPLACE: 5,
        RepairAction.DO_NOTHING: 1,
    }


@dataclass(frozen=True)
class FaultModel:
    """Fault arrival, sensing and repair parameters for the simulator."""

    transient_rate: float = 0.0  # per machine-tick; clears itself after 1 tick
    persistent_rate: float = 0.0  # per machine-tick; persists until repaired
    watchdogs: tuple[WatchdogSpec, ...] = (WatchdogSpec("wd0"),)
    repair_efficacy: Mapping[RepairAction, float] = field(default_factory=_default_efficacy)
    repair_latency: Mapping[RepairAction, int] = field(default_factory=_default_latency)
    warning_rate: float = 0.0  # chance a non-Error report reads Warning

    def __post_init__(self) -> None:
        for rate in (self.transient_rate, self.persistent_rate, self.warning_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rates must lie in [0, 1], got {rate}")
        if not self.watchdogs:
            raise ValueError("need at least one watchdog")
        names = [w.name for w in self.watchdogs]
        if len(names) != len(set(names)):
            raise ValueError("watchdog names must be distinct")
        # partial overrides keep defaults for the remaining actions
        object.__setattr__(self, "repair_efficacy",
                           {**_default_efficacy(), **dict(self.repair_efficacy)})
        object.__setattr__(self, "repair_latency",
                           {**_default_latency(), **dict(self.repair_latency)})
        for action in RepairAction:
            if not 0.0 <= self.repair_efficacy[action] <= 1.0:
                raise ValueError("repair efficacies must lie in [0, 1]")
            if self.repair_latency[action] < 1:
                raise ValueError("repair latencies must be >= 1 tick")


@dataclass(frozen=True, eq=False)
class FaultTruth:
    """Simulator-only ground truth: one row per (tick, machine) key, sorted by
    tick and then machine name.  ``machine`` indexes ``machines`` and
    ``code`` indexes TRUTHS."""

    tick: np.ndarray
    machine: np.ndarray
    machines: tuple[str, ...]
    code: np.ndarray


@dataclass(eq=False)
class RepairLog:
    """A repair log as columns, one row per logged (tick, machine).

    ``machine`` indexes ``machines``, ``state`` indexes STATES, and
    ``action`` indexes ACTIONS or is NO_ACTION.  ``status[row, k]`` is the
    STATUSES code of watchdog ``watchdogs[k]`` on that row, or ABSENT when it
    did not report there.  ``truth`` is the ground-truth channel, kept
    separable from the mined log.
    """

    tick: np.ndarray
    machine: np.ndarray
    machines: tuple[str, ...]
    state: np.ndarray
    action: np.ndarray
    status: np.ndarray
    watchdogs: tuple[str, ...]
    truth: FaultTruth | None = None


Policy = Callable[[Sequence[tuple[int, RepairAction]], bool], RepairAction]


def error_predicate(status: np.ndarray) -> np.ndarray:
    """Whether a machine is in error: True where any watchdog reports Error.

    ``status`` holds STATUSES codes (or ABSENT) with the watchdogs on its last
    axis, as ``RepairLog.status`` does; the result drops that axis.  OK,
    Warning and absent reports, or no watchdog at all, read False.  An OR of
    the few watchdog columns: numpy reduces a short last axis an order of
    magnitude slower.
    """
    status = np.asarray(status)
    out = np.zeros(status.shape[:-1], dtype=bool)
    for k in range(status.shape[-1]):
        out |= status[..., k] == _ERROR
    return out


def escalation_policy(
    history: Sequence[tuple[int, RepairAction]], in_error: bool
) -> RepairAction:
    """Escalate with the recent repair history: first error gets a Reboot,
    the next a ReImage, anything beyond that a Replace."""
    if not in_error:
        return RepairAction.DO_NOTHING
    prior = len(history)
    if prior == 0:
        return RepairAction.REBOOT
    if prior == 1:
        return RepairAction.REIMAGE
    return RepairAction.REPLACE


def always_do_nothing(history: Sequence[tuple[int, RepairAction]], in_error: bool) -> RepairAction:
    return RepairAction.DO_NOTHING


def always_replace(history: Sequence[tuple[int, RepairAction]], in_error: bool) -> RepairAction:
    return RepairAction.REPLACE if in_error else RepairAction.DO_NOTHING


@dataclass(eq=False, slots=True)
class MachineState:
    """Device-manager view of one machine.  ``pending`` holds an action code
    exactly while the machine is in Failure (NO_ACTION otherwise), and
    ``due`` the tick that action's repair latency elapses; ``history`` holds
    the policy's actions of the last ``POLICY_WINDOW`` ticks, oldest first.
    ``latency`` is the repair latency of each action code."""

    latency: tuple[int, ...] = tuple(_default_latency()[a] for a in ACTIONS)
    pending: int = NO_ACTION
    due: int = 0
    history: list[tuple[int, RepairAction]] = field(default_factory=list)

    @property
    def failure(self) -> bool:
        return self.pending != NO_ACTION


def device_manager_step(
    machine: MachineState,
    in_error: bool,
    policy: Policy,
    tick: int,
) -> int:
    """Advance one machine one tick, given whether any watchdog reports
    Error on it.

    A Healthy machine found in error moves to Failure and gets a policy
    action.  A failed machine whose repair latency has elapsed returns to
    Healthy when its reports are clean, and otherwise escalates to a fresh
    policy action.  The policy sees the machine's actions of the last
    ``POLICY_WINDOW`` ticks.  Returns the action code issued this tick
    (NO_ACTION for none).
    """
    if machine.pending != NO_ACTION and tick < machine.due:
        return NO_ACTION
    if not in_error:
        machine.pending = NO_ACTION
        return NO_ACTION
    history = machine.history
    while history and history[0][0] < tick - POLICY_WINDOW:
        del history[0]
    action = policy(history.copy(), True)
    history.append((tick, action))
    machine.pending = code = ACTIONS.index(action)
    machine.due = tick + machine.latency[code]
    return code


# Report rolls drawn per block of ticks in simulate; bounds its scratch memory.
_BLOCK_ROLLS = 1 << 16


def _machine_ids(fleet: int) -> list[str]:
    width = max(2, len(str(max(fleet - 1, 0))))
    return [f"m{i:0{width}d}" for i in range(fleet)]


def simulate(
    fleet: int,
    fault_model: FaultModel,
    policy: Policy,
    horizon: int,
    seed: int,
) -> RepairLog:
    """Run the watchdog / device-manager loop for ``horizon`` ticks.

    Fault arrivals, watchdog noise and repair outcomes are drawn from three
    independent substreams of ``seed``, so policies can be compared on
    identical fault arrivals.  Deterministic per seed.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if fleet < 1:
        raise ValueError("fleet must be >= 1")
    rng_faults, rng_reports, rng_repairs = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    model = fault_model
    n_wd = len(model.watchdogs)
    fp = np.array([w.false_positive_rate for w in model.watchdogs])
    fn = np.array([w.false_negative_rate for w in model.watchdogs])
    efficacy = [model.repair_efficacy[a] for a in ACTIONS]
    latency = tuple(model.repair_latency[a] for a in ACTIONS)
    machines = [MachineState(latency) for _ in range(fleet)]
    persistent = [False] * fleet
    live: list[int] = []  # machines in Failure or with a persistent fault, in order
    # Rows on which nothing happens keep these values: Healthy, no action,
    # and the truth of the tick's transient roll.
    truth = np.empty((horizon, fleet), dtype=np.int8)  # TRUTHS codes
    state = np.zeros((horizon, fleet), dtype=np.int8)
    action = np.full((horizon, fleet), NO_ACTION, dtype=np.int8)
    status = np.empty((horizon, fleet, n_wd), dtype=np.int8)

    # Fault and report rolls do not depend on the fleet's state, so they are
    # drawn a block of ticks at a time: the same doubles, in the same order,
    # as one (fleet, 2) and one (fleet, watchdogs, 2) draw per tick.  Every
    # machine-tick takes the same draws, which keeps fault arrivals identical
    # across policies under one seed.
    block = max(1, _BLOCK_ROLLS // (fleet * n_wd))
    for first in range(0, horizon, block):
        size = min(block, horizon - first)
        rows = slice(first, first + size)
        u = rng_faults.random((size, fleet, 2))
        transient, arrival = u[..., 0] < model.transient_rate, u[..., 1] < model.persistent_rate
        # Each report's status if the machine is faulty on the tick, and if not.
        v = rng_reports.random((size, fleet, n_wd, 2))
        quiet = np.where(v[..., 1] < model.warning_rate, np.int8(_WARNING), np.int8(_OK))
        if_faulty = np.where(v[..., 0] >= fn, np.int8(_ERROR), quiet)
        if_ok = np.where(v[..., 0] < fp, np.int8(_ERROR), quiet)
        any_if_faulty = error_predicate(if_faulty)
        # Without a persistent fault a machine is faulty on its transient ticks.
        any_if_clear = np.where(transient, any_if_faulty, error_predicate(if_ok))
        truth[rows] = transient
        # Per machine-tick: bit 0 a persistent-fault arrival, bit 1 an Error
        # report if the machine holds a persistent fault, bit 2 one if not.
        rolls = (arrival + 2 * any_if_faulty + 4 * any_if_clear).tolist()
        # Machines with a persistent-fault arrival, or with an Error report
        # while free of a persistent fault, by tick.
        by_tick, hit = np.nonzero(arrival | any_if_clear)
        bounds = np.searchsorted(by_tick, np.arange(size + 1)).tolist()
        hit = hit.tolist()

        # The device-manager rule runs only for machines in Failure, with a
        # persistent fault, or with a hit this tick, in machine order; for
        # any other machine it would do nothing.  Their rows' changes are
        # collected as indices into the block's flattened rows.
        faulty, failed, issued, issued_codes = [], [], [], []
        for i in range(size):
            lo, hi = bounds[i], bounds[i + 1]
            if live:
                active = sorted({*live, *hit[lo:hi]}) if hi > lo else live
            elif hi > lo:
                active = hit[lo:hi]
            else:
                continue
            tick, row, at = first + i, rolls[i], i * fleet
            live = []
            for m in active:
                machine, r = machines[m], row[m]
                held = persistent[m] or r & 1 == 1
                if held and machine.pending != NO_ACTION and tick >= machine.due:
                    # the repair's efficacy roll: one draw per due, still-faulty machine
                    held = rng_repairs.random() >= efficacy[machine.pending]
                persistent[m] = held
                if held:
                    faulty.append(at + m)
                code = device_manager_step(machine, r & (2 if held else 4) != 0, policy, tick)
                if code != NO_ACTION:
                    issued.append(at + m)
                    issued_codes.append(code)
                if machine.pending != NO_ACTION:
                    failed.append(at + m)
                    live.append(m)
                elif held:
                    live.append(m)

        truth[rows].reshape(-1)[faulty] = _TRUTH_CODE["persistent"]
        state[rows].reshape(-1)[failed] = _FAILURE
        action[rows].reshape(-1)[issued] = issued_codes
        status[rows] = np.where(truth[rows, :, None] > 0, if_faulty, if_ok)

    ticks = np.repeat(np.arange(horizon, dtype=np.int64), fleet)
    codes = np.tile(np.arange(fleet), horizon)
    ids = tuple(_machine_ids(fleet))  # sorted, so the truth rows are in key order
    return RepairLog(
        tick=ticks, machine=codes, machines=ids, state=state.ravel(),
        action=action.ravel(), status=status.reshape(-1, n_wd),
        watchdogs=tuple(w.name for w in model.watchdogs),
        truth=FaultTruth(ticks, codes, ids, truth.ravel()),
    )


@dataclass(frozen=True)
class WatchdogRateEstimate:
    """False-positive evidence for one watchdog.

    estimated_fp_rate approximates the per-report false-positive probability
    from the log alone: Errors that kicked off an episode which resolved
    quickly (within the lookahead) using only DoNothing/Reboot, with no
    further Error in between, divided by the watchdog's reports on machines
    that started the tick Healthy.  suspected_per_error is the same numerator
    over the watchdog's total Error count.  true_fp_rate is filled from the
    ground-truth channel when available.
    """

    watchdog: str
    n_reports: int
    n_errors: int
    n_suspected_false: int
    estimated_fp_rate: float
    suspected_per_error: float
    true_fp_rate: float | None = None


def _failure_runs(machine: np.ndarray, failure: np.ndarray):
    """Failure episodes of rows sorted by (machine, tick): the maximal runs of
    Failure rows within one machine.

    Returns (first, starts, stops, completed): ``first`` flags each machine's
    first row; run i covers rows ``starts[i]`` to ``stops[i] - 1``, and
    ``completed[i]`` says row ``stops[i]`` exists and is the same machine's
    return to Healthy.
    """
    n = machine.size
    first = np.ones(n, dtype=bool)
    first[1:] = machine[1:] != machine[:-1]
    continues = np.zeros(n + 1, dtype=bool)  # row i extends a run from row i - 1
    continues[1:n] = failure[1:] & failure[:-1] & ~first[1:]
    starts = np.flatnonzero(failure & ~continues[:n])
    stops = np.flatnonzero(failure & ~continues[1:]) + 1
    completed = stops < n
    completed[completed] = ~first[stops[completed]]
    return first, starts, stops, completed


def _truth_rows(log: RepairLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ground truth of the log's machines: (tick, log machine code, reads
    ok), empty when the log carries no truth channel."""
    truth = log.truth
    if truth is None:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool)
    code_of = {mid: k for k, mid in enumerate(log.machines)}
    to_log = np.array([code_of.get(mid, -1) for mid in truth.machines], dtype=np.intp)
    machine = to_log[truth.machine]
    known = machine >= 0
    return truth.tick[known], machine[known], truth.code[known] == _TRUTH_CODE["ok"]


def estimate_watchdog_fpr(
    log: RepairLog, lookahead: int = 20
) -> dict[str, WatchdogRateEstimate]:
    """Estimate per-watchdog false-positive rates by mining the repair log.

    The estimator is a proxy: it assumes an error that vanished after at most
    a Reboot was probably never real.  It can err in either direction.
    Transient true faults look exactly the same and push it up, so a perfect
    watchdog can read above 0.  A false positive that starts a run in which
    the policy issues ReImage or Replace is never counted, and
    escalation_policy issues one after any recent repair; that pushes it
    down, so a noisy watchdog can read several times low.  Check it against
    ``true_fp_rate`` where the ground truth is known.  Watchdogs that never
    report Error are absent from the result.
    """
    n = log.tick.size
    if n == 0:
        raise ValueError("log is empty")
    order = np.lexsort((log.tick, log.machine))  # stable: file order breaks ties
    machine, tick = log.machine[order], log.tick[order]
    failure = log.state[order] == _FAILURE
    status = log.status[order]
    present, errors = status != ABSENT, status == _ERROR
    first, starts, stops, completed = _failure_runs(machine, failure)
    healthy_at_start = first.copy()
    healthy_at_start[1:] |= ~failure[:-1]

    # One dense key per (machine, tick), ordered like the rows; the tick
    # ranks cover the truth's ticks too, so the truth joins on the same key.
    truth_tick, truth_machine, truth_ok = _truth_rows(log)
    values, rank = np.unique(np.concatenate([tick, truth_tick]), return_inverse=True)
    key = machine * values.size + rank[:n]
    truth_key = truth_machine * values.size + rank[n:]
    by_key = np.argsort(truth_key)
    sorted_key = truth_key[by_key]
    ok = np.zeros(n, dtype=bool)  # rows whose truth reads ok
    if sorted_key.size:
        at = np.searchsorted(sorted_key, key).clip(max=sorted_key.size - 1)
        ok = (sorted_key[at] == key) & truth_ok[by_key[at]]

    # An Error on a row that starts a run counts as suspected false when the
    # run ends in Healthy within the lookahead, issued no ReImage or Replace,
    # and the machine reports no further Error on later ticks up to and
    # including the tick it is Healthy again.
    escalated = np.concatenate([[0], np.cumsum(np.isin(log.action[order], _ESCALATED))])
    calm = completed & (escalated[stops] == escalated[starts])
    starts, stops = starts[calm], stops[calm]
    quick = tick[stops] - tick[starts] <= lookahead
    starts, stops = starts[quick], stops[quick]
    error_rows = np.concatenate([[0], np.cumsum(error_predicate(status))])
    later_errors = (error_rows[np.searchsorted(key, key[stops], side="right")]
                    - error_rows[np.searchsorted(key, key[starts], side="right")])
    suspected = errors[starts[later_errors == 0]].sum(axis=0).tolist()

    n_reports = (present & healthy_at_start[:, None]).sum(axis=0).tolist()
    n_errors = errors.sum(axis=0).tolist()
    truth_reports = (present & ok[:, None]).sum(axis=0).tolist()
    fp_errors = (errors & ok[:, None]).sum(axis=0).tolist()
    out: dict[str, WatchdogRateEstimate] = {}
    for k in sorted(range(len(log.watchdogs)), key=log.watchdogs.__getitem__):
        if n_errors[k] == 0:
            continue
        true_rate = None
        if log.truth is not None and truth_reports[k] > 0:
            true_rate = fp_errors[k] / truth_reports[k]
        out[log.watchdogs[k]] = WatchdogRateEstimate(
            watchdog=log.watchdogs[k],
            n_reports=n_reports[k],
            n_errors=n_errors[k],
            n_suspected_false=suspected[k],
            estimated_fp_rate=suspected[k] / n_reports[k] if n_reports[k] else 0.0,
            suspected_per_error=suspected[k] / n_errors[k],
            true_fp_rate=true_rate,
        )
    return out


@dataclass(frozen=True)
class CostModel:
    action_costs: Mapping[RepairAction, float] = field(default_factory=lambda: {
        RepairAction.DO_NOTHING: 0.0,
        RepairAction.REBOOT: 1.0,
        RepairAction.REIMAGE: 10.0,
        RepairAction.REPLACE: 100.0,
    })
    downtime_cost_per_tick: float = 1.0


@dataclass(frozen=True)
class PolicyMetrics:
    availability: float
    total_cost: float
    mean_time_to_healthy: float | None  # ticks; None when no episode completed


def evaluate_policy(log: RepairLog, cost_model: CostModel | None = None) -> PolicyMetrics:
    """Availability, total cost and mean Failure-episode length for a log."""
    total_ticks = log.tick.size
    if total_ticks == 0:
        raise ValueError("log is empty")
    if cost_model is None:
        cost_model = CostModel()
    failure_ticks = int(np.count_nonzero(log.state == _FAILURE))
    issued = np.bincount(log.action[log.action != NO_ACTION], minlength=len(ACTIONS))
    action_cost = sum(cost_model.action_costs[a] * k
                      for a, k in zip(ACTIONS, issued.tolist()) if k)
    total_cost = action_cost + cost_model.downtime_cost_per_tick * failure_ticks

    # Only episodes that return to Healthy inside the log count toward
    # time-to-healthy.
    order = np.lexsort((log.tick, log.machine))
    _, starts, stops, completed = _failure_runs(log.machine[order],
                                                log.state[order] == _FAILURE)
    completed_lengths = (stops - starts)[completed]
    mtth = float(np.mean(completed_lengths)) if completed_lengths.size else None
    return PolicyMetrics(
        availability=1.0 - failure_ticks / total_ticks,
        total_cost=float(total_cost),
        mean_time_to_healthy=mtth,
    )


def serialize_repair_log(log: RepairLog) -> str:
    """Primary log serialization; never includes the ground-truth channel.
    Each line lists its watchdogs' reports in name order."""
    by_name = sorted(range(len(log.watchdogs)), key=log.watchdogs.__getitem__)
    # One integer per distinct (state, action, statuses) row, digit by digit;
    # ranks replace the digits before they could overflow.
    key = log.state.astype(np.int64) * (len(ACTIONS) + 1) + (log.action + 1)
    for k in by_name:
        if key.size and key.max() >= 1 << 56:
            key = np.unique(key, return_inverse=True)[1].ravel()
        key = key * (len(STATUSES) + 1) + (log.status[:, k] + 1)
    _, first, tail_of = np.unique(key, return_index=True, return_inverse=True)
    tails = []
    for row in first.tolist():
        action = log.action[row]
        reports = ";".join(f"{log.watchdogs[k]}:{STATUSES[log.status[row, k]].value}"
                           for k in by_name if log.status[row, k] != ABSENT)
        tails.append(f"state={STATES[log.state[row]].value} "
                     f"action={'-' if action == NO_ACTION else ACTIONS[action].value} "
                     f"reports={reports or '-'}")
    return _join_lines(log.tick, log.machine, log.machines, tail_of.ravel(), tails)


def serialize_fault_truth(log: RepairLog) -> str:
    truth = log.truth
    if truth is None:
        raise ValueError("log carries no ground-truth channel")
    return _join_lines(truth.tick, truth.machine, truth.machines, truth.code,
                       [f"truth={t}" for t in TRUTHS])


def _join_lines(tick: np.ndarray, machine: np.ndarray, machines: Sequence[str],
                tail: np.ndarray, tails: Sequence[str]) -> str:
    """One ``tick=<t> machine=<name> <tail>`` line per row, with each distinct
    tick and tail formatted once and gathered into place."""
    ticks, tick_of = np.unique(tick, return_inverse=True)
    heads = np.array([f"tick={t} machine=" for t in ticks.tolist()], dtype=object)
    pieces = np.empty((tick.size, 3), dtype=object)
    pieces[:, 0] = heads[tick_of.ravel()]
    pieces[:, 1] = np.array(machines, dtype=object)[machine]
    pieces[:, 2] = np.array([f" {t}\n" for t in tails], dtype=object)[tail]
    return "".join(pieces.ravel().tolist())


_TICK = ("tick", Number(int, -2**63, 2**63))
_LOG_FIELDS = (_TICK, ("machine", str), ("state", _STATE_BY_VALUE.__getitem__),
               ("action", {**_ACTION_BY_VALUE, "-": NO_ACTION}.__getitem__), ("reports", str))
_TRUTH_FIELDS = (_TICK, ("machine", str), ("truth", _TRUTH_CODE.__getitem__))


def _decode_log_rest(line_no: int, values: tuple) -> tuple[int, int, list[tuple[str, int]]]:
    """(state code, action code, [(watchdog, status code)]) of a log line's
    values after the machine."""
    state, action, reports = values
    pairs: dict[str, int] = {}
    for item in reports.split(";") if reports != "-" else ():
        watchdog, _, status = item.partition(":")
        if status not in _STATUS_BY_VALUE:
            raise RecordError(line_no, f"bad status '{status}'")
        if not watchdog:
            raise RecordError(line_no, "bad watchdog ''")
        if watchdog in pairs:
            raise RecordError(line_no, f"duplicate watchdog '{watchdog}'")
        pairs[watchdog] = _STATUS_BY_VALUE[status]
    return state, action, list(pairs.items())


def _read_rows(text: str, fields, decode: Callable):
    """Columns of a ``tick=<int> machine=<id> <rest>`` file: (tick, machine
    code, machine names, rest code, decoded rests).  Lines share few distinct
    rests, so each is decoded once, by ``decode(line_no, values)`` of the
    rest's values."""
    machines: dict[str, int] = {}
    rests: dict[tuple, int] = {}
    decoded: list = []

    def split(line_no: int, values: list) -> tuple[int, int]:
        machine, rest = values[0], tuple(values[1:])
        if rest not in rests:
            rests[rest] = len(decoded)
            decoded.append(decode(line_no, rest))
        return machines.setdefault(machine, len(machines)), rests[rest]

    tick, codes, keys = read_columns(text, fields, split)
    key_codes = np.array(keys, dtype=np.intp).reshape(-1, 2)
    return tick, key_codes[codes, 0], tuple(machines), key_codes[codes, 1], decoded


def parse_repair_log(text: str) -> RepairLog:
    """Parse a repair log into columns.

    Accepts the record syntax of ``statops.records``.  A line's reports may
    come in any order, but may name each watchdog once; watchdogs that do not
    report on a line are ABSENT there.  The first malformed line raises
    RecordError('line N: ...').
    """
    tick, machine, machines, rest_of, rests = _read_rows(text, _LOG_FIELDS, _decode_log_rest)
    watchdogs = sorted({w for _, _, pairs in rests for w, _ in pairs})
    column = {w: k for k, w in enumerate(watchdogs)}
    table = np.full((len(rests), len(watchdogs)), ABSENT, dtype=np.int8)
    for row, (_, _, pairs) in zip(table, rests):
        for w, c in pairs:
            row[column[w]] = c
    return RepairLog(
        tick=tick, machine=machine, machines=machines,
        state=np.array([s for s, _, _ in rests], dtype=np.int8)[rest_of],
        action=np.array([a for _, a, _ in rests], dtype=np.int8)[rest_of],
        status=table[rest_of], watchdogs=tuple(watchdogs),
    )


def parse_fault_truth(text: str) -> FaultTruth:
    """Parse a ground-truth sidecar.  A later line for the same (tick, machine)
    overrides an earlier one; the first malformed line raises
    RecordError('line N: ...')."""
    tick, machine, names, rest_of, rests = _read_rows(text, _TRUTH_FIELDS,
                                                      lambda _, rest: rest[0])
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((rank[machine], tick))
    tick, machine = tick[order], machine[order]
    last = np.ones(tick.size, dtype=bool)
    last[:-1] = (tick[1:] != tick[:-1]) | (machine[1:] != machine[:-1])
    return FaultTruth(tick[last], machine[last], names,
                      np.array(rests, dtype=np.int8)[rest_of[order]][last])
