from __future__ import annotations

import itertools

import numpy as np
import pytest

import sim_oracle
from statops.repairs import (
    _BLOCK_ROLLS,
    ABSENT,
    ACTIONS,
    NO_ACTION,
    STATES,
    STATUSES,
    TRUTHS,
    CostModel,
    FaultModel,
    MachineHealth,
    MachineState,
    RepairAction,
    WatchdogSpec,
    WatchdogStatus,
    always_do_nothing,
    always_replace,
    device_manager_step,
    error_predicate,
    escalation_policy,
    estimate_watchdog_fpr,
    evaluate_policy,
    parse_fault_truth,
    parse_repair_log,
    serialize_fault_truth,
    serialize_repair_log,
    simulate,
)


def _status(*statuses):
    return np.array([STATUSES.index(s) for s in statuses], dtype=np.int8)


def _actions(codes):
    return [None if c == NO_ACTION else ACTIONS[c] for c in codes]


def _log_columns(log):
    """Every column of a log, with names for codes and watchdogs in name order."""
    by_name = sorted(range(len(log.watchdogs)), key=log.watchdogs.__getitem__)
    return {
        "tick": log.tick.tolist(),
        "machine": [log.machines[m] for m in log.machine.tolist()],
        "state": log.state.tolist(),
        "action": log.action.tolist(),
        "watchdogs": [log.watchdogs[k] for k in by_name],
        "status": log.status[:, by_name].tolist(),
    }


def _truth_dict(truth):
    return {(t, truth.machines[m]): TRUTHS[c] for t, m, c in
            zip(truth.tick.tolist(), truth.machine.tolist(), truth.code.tolist())}


# ---------------------------------------------------------------------------
# error predicate and policies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["", "a;b", "a:b", "a b", "a\tb", "wd\n"])
def test_watchdog_name_outside_log_syntax_rejected(name):
    with pytest.raises(ValueError, match="watchdog name"):
        WatchdogSpec(name)


def test_watchdog_name_may_hold_other_punctuation():
    assert WatchdogSpec("wd=a.b-0_Z").name == "wd=a.b-0_Z"


def test_error_predicate_quoted_rule():
    ok, warn, err = WatchdogStatus.OK, WatchdogStatus.WARNING, WatchdogStatus.ERROR
    assert not error_predicate(_status(ok, warn))
    assert error_predicate(_status(ok, err)).dtype == bool
    assert error_predicate(_status(ok, err))
    assert not error_predicate(_status())
    # absent reports never count; one row per leading index
    rows = np.array([[ABSENT, 0], [ABSENT, 2], [ABSENT, ABSENT]], dtype=np.int8)
    assert error_predicate(rows).tolist() == [False, True, False]


def test_error_predicate_monotone():
    ok, warn, err = WatchdogStatus.OK, WatchdogStatus.WARNING, WatchdogStatus.ERROR
    assert error_predicate(_status(err, err))
    assert error_predicate(_status(err, ok, warn))


def test_escalation_ladder():
    assert escalation_policy([], True) is RepairAction.REBOOT
    assert escalation_policy([(10, RepairAction.REBOOT)], True) is RepairAction.REIMAGE
    assert escalation_policy(
        [(5, RepairAction.REBOOT), (9, RepairAction.REIMAGE)], True
    ) is RepairAction.REPLACE
    assert escalation_policy([], False) is RepairAction.DO_NOTHING
    assert always_do_nothing([], True) is RepairAction.DO_NOTHING
    assert always_replace([], True) is RepairAction.REPLACE


# ---------------------------------------------------------------------------
# device manager state machine
# ---------------------------------------------------------------------------


def test_step_healthy_plus_error_fails_with_action():
    machine = MachineState()
    issued = device_manager_step(machine, True, escalation_policy, tick=0)
    assert machine.failure is True
    assert _actions([machine.pending]) == [RepairAction.REBOOT]
    assert _actions([issued]) == [RepairAction.REBOOT]
    assert machine.history == [(0, RepairAction.REBOOT)]


def test_step_failure_recovers_after_latency():
    machine = MachineState()
    device_manager_step(machine, True, escalation_policy, tick=0)
    # latency for Reboot is 1: still Failure during the same tick window
    device_manager_step(machine, False, escalation_policy, tick=1)
    assert machine.failure is False
    assert _actions([machine.pending]) == [None]


def test_step_failure_escalates_when_error_persists():
    machine = MachineState()
    device_manager_step(machine, True, escalation_policy, tick=0)
    issued = device_manager_step(machine, True, escalation_policy, tick=1)
    assert _actions([issued]) == [RepairAction.REIMAGE]
    assert machine.failure is True


def test_step_healthy_all_ok_unchanged():
    machine = MachineState()
    issued = device_manager_step(machine, False, escalation_policy, tick=0)
    assert _actions([issued]) == [None]
    assert machine.failure is False
    assert machine.history == []


def test_pending_action_iff_failure_invariant():
    model = FaultModel(transient_rate=0.02, persistent_rate=0.003,
                       watchdogs=(WatchdogSpec("wd", 0.01, 0.05),))
    latency = tuple(model.repair_latency[a] for a in ACTIONS)
    machines = [MachineState(latency) for _ in range(4)]
    rng = np.random.default_rng(0)
    for tick in range(200):
        for machine, in_error in zip(machines, (rng.random(4) < 0.1).tolist()):
            device_manager_step(machine, in_error, escalation_policy, tick)
            assert (machine.pending != NO_ACTION) == machine.failure


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_zero_faults_all_healthy():
    model = FaultModel(watchdogs=(WatchdogSpec("wd"),))
    log = simulate(5, model, escalation_policy, horizon=50, seed=1)
    assert (log.state == STATES.index(MachineHealth.HEALTHY)).all()
    assert (log.action == NO_ACTION).all()
    assert all(v == "ok" for v in _truth_dict(log.truth).values())


def test_simulate_deterministic_per_seed():
    model = FaultModel(transient_rate=0.02, persistent_rate=0.004,
                       watchdogs=(WatchdogSpec("a", 0.02, 0.05), WatchdogSpec("b")),
                       warning_rate=0.1)
    log1 = simulate(6, model, escalation_policy, horizon=120, seed=9)
    log2 = simulate(6, model, escalation_policy, horizon=120, seed=9)
    assert serialize_repair_log(log1) == serialize_repair_log(log2)
    assert serialize_fault_truth(log1) == serialize_fault_truth(log2)
    log3 = simulate(6, model, escalation_policy, horizon=120, seed=10)
    assert serialize_repair_log(log1) != serialize_repair_log(log3)


def test_simulate_log_complete_one_entry_per_tick_machine():
    model = FaultModel(transient_rate=0.05, watchdogs=(WatchdogSpec("wd", 0.01, 0.0),))
    log = simulate(4, model, escalation_policy, horizon=60, seed=2)
    keys = [(t, log.machines[m]) for t, m in zip(log.tick.tolist(), log.machine.tolist())]
    assert len(keys) == 240
    assert len(set(keys)) == 240
    assert set(_truth_dict(log.truth)) == set(keys)


def test_simulate_persistent_fault_walks_up_the_ladder():
    # Reboot and ReImage cannot clear it, so Replace must be assigned within
    # the hand-derived bound and the machine must then recover.
    model = FaultModel(
        persistent_rate=1.0,
        watchdogs=(WatchdogSpec("wd"),),
        repair_efficacy={RepairAction.REBOOT: 0.0, RepairAction.REIMAGE: 0.0,
                         RepairAction.REPLACE: 1.0, RepairAction.DO_NOTHING: 0.0},
    )
    log = simulate(1, model, escalation_policy, horizon=30, seed=0)
    issued = log.action != NO_ACTION
    actions = list(zip(log.tick[issued].tolist(), _actions(log.action[issued])))
    assert actions[0] == (0, RepairAction.REBOOT)
    assert actions[1][1] is RepairAction.REIMAGE
    first_replace = next(t for t, a in actions if a is RepairAction.REPLACE)
    max_latency = max(model.repair_latency.values())
    assert first_replace <= 3 * (max_latency + 1)
    recovered = log.tick[log.state == STATES.index(MachineHealth.HEALTHY)].tolist()
    assert recovered and recovered[0] == first_replace + model.repair_latency[RepairAction.REPLACE]


def test_simulate_warning_reports_are_inert():
    model = FaultModel(watchdogs=(WatchdogSpec("wd"),), warning_rate=1.0)
    log = simulate(2, model, escalation_policy, horizon=20, seed=3)
    assert {STATUSES[c] for c in log.status.ravel().tolist()} == {WatchdogStatus.WARNING}
    assert (log.state == STATES.index(MachineHealth.HEALTHY)).all()


_POLICIES = (escalation_policy, always_do_nothing, always_replace)


def _random_model(rng, n_watchdogs):
    def rate(high):  # exactly 0 or 1 now and then, else uniform below high
        return float(rng.choice([0.0, 1.0, rng.uniform(0, high)], p=[0.15, 0.05, 0.8]))

    return FaultModel(
        transient_rate=rate(0.1),
        persistent_rate=rate(0.03),
        watchdogs=tuple(WatchdogSpec(f"w{k}", min(rate(0.2), 0.5), min(rate(0.5), 0.5))
                        for k in range(n_watchdogs)),
        repair_efficacy={a: float(rng.uniform()) for a in RepairAction},
        repair_latency={a: int(rng.integers(1, 8)) for a in RepairAction},
        warning_rate=float(rng.uniform(0.01, 0.5)),
    )


def _first_difference(got: str, want: str):
    """(line number, got, want) of the first line that differs, or None; a
    plain == on long texts would have pytest diff them for minutes."""
    for no, pair in enumerate(itertools.zip_longest(got.splitlines(), want.splitlines()), 1):
        if pair[0] != pair[1]:
            return no, *pair
    return None


def _assert_matches_oracle(fleet, model, policy, horizon, seed):
    log = simulate(fleet, model, policy, horizon, seed)
    want = sim_oracle.simulate(fleet, model, policy, horizon, seed)
    assert _first_difference(serialize_repair_log(log), serialize_repair_log(want)) is None
    assert _first_difference(serialize_fault_truth(log), serialize_fault_truth(want)) is None


@pytest.mark.parametrize("case", range(60))
def test_simulate_matches_per_tick_oracle(case):
    rng = np.random.default_rng(case)
    fleet = int(rng.choice([1, 40, rng.integers(1, 41)], p=[0.1, 0.1, 0.8]))
    horizon = int(rng.choice([1, 600, rng.integers(1, 601)], p=[0.1, 0.1, 0.8]))
    model = _random_model(rng, int(rng.integers(1, 5)))
    _assert_matches_oracle(fleet, model, _POLICIES[case % 3], horizon, seed=case)


@pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.__name__)
def test_simulate_matches_per_tick_oracle_across_roll_blocks(policy):
    fleet, n_watchdogs = 40, 4
    horizon = 3 * (_BLOCK_ROLLS // (fleet * n_watchdogs)) + 7  # four blocks of rolls
    model = _random_model(np.random.default_rng(100), n_watchdogs)
    _assert_matches_oracle(fleet, model, policy, horizon, seed=100)


# ---------------------------------------------------------------------------
# log mining
# ---------------------------------------------------------------------------


def test_estimate_fpr_zero_fp_watchdog_with_real_faults():
    model = FaultModel(persistent_rate=0.003, watchdogs=(WatchdogSpec("wd"),))
    log = simulate(25, model, escalation_policy, horizon=500, seed=4)
    rates = estimate_watchdog_fpr(log)
    assert rates["wd"].estimated_fp_rate <= 0.02


def test_estimate_fpr_absent_without_errors():
    model = FaultModel(watchdogs=(WatchdogSpec("quiet"),))
    log = simulate(3, model, escalation_policy, horizon=30, seed=5)
    assert estimate_watchdog_fpr(log) == {}


def test_estimate_fpr_rejects_empty_log():
    with pytest.raises(ValueError):
        estimate_watchdog_fpr(parse_repair_log(""))


def test_evaluate_policy_all_healthy():
    model = FaultModel(watchdogs=(WatchdogSpec("wd"),))
    log = simulate(3, model, escalation_policy, horizon=40, seed=6)
    metrics = evaluate_policy(log)
    assert metrics.availability == 1.0
    assert metrics.total_cost == 0.0
    assert metrics.mean_time_to_healthy is None


def test_evaluate_policy_accounts_costs_and_downtime():
    model = FaultModel(
        persistent_rate=1.0,
        watchdogs=(WatchdogSpec("wd"),),
        repair_efficacy={RepairAction.REBOOT: 0.0, RepairAction.REIMAGE: 1.0,
                         RepairAction.REPLACE: 1.0, RepairAction.DO_NOTHING: 0.0},
    )
    log = simulate(1, model, escalation_policy, horizon=5, seed=7)
    # ticks 0-4 all Failure (Reboot@0 fails, ReImage@1 due at 4, still error until repair applies)
    metrics = evaluate_policy(log, CostModel(downtime_cost_per_tick=2.0))
    failure_ticks = int(np.count_nonzero(log.state == STATES.index(MachineHealth.FAILURE)))
    assert metrics.availability == 1.0 - failure_ticks / 5
    assert metrics.total_cost == pytest.approx(1.0 + 10.0 + 2.0 * failure_ticks)


def test_escalation_beats_do_nothing_on_availability_sample():
    model = FaultModel(persistent_rate=0.004, watchdogs=(WatchdogSpec("wd"),))
    for seed in range(3):
        esc = evaluate_policy(simulate(10, model, escalation_policy, 300, seed))
        dn = evaluate_policy(simulate(10, model, always_do_nothing, 300, seed))
        assert esc.availability > dn.availability


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_log_serialization_round_trip():
    model = FaultModel(transient_rate=0.03, persistent_rate=0.002,
                       watchdogs=(WatchdogSpec("a", 0.02, 0.1), WatchdogSpec("b")),
                       warning_rate=0.2)
    log = simulate(4, model, escalation_policy, horizon=80, seed=8)
    text = serialize_repair_log(log)
    back = parse_repair_log(text)
    assert _log_columns(back) == _log_columns(log)
    assert back.truth is None
    truth_text = serialize_fault_truth(log)
    assert _truth_dict(parse_fault_truth(truth_text)) == _truth_dict(log.truth)
    # primary log never leaks ground truth
    assert "truth" not in text


def test_parse_log_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_repair_log("tick=0 machine=m state=Broken action=- reports=-\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_fault_truth("tick=0 machine=m truth=weird\n")
