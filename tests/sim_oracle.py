"""The repair simulator as a plain per-tick loop over whole-fleet arrays,
written independently of ``statops.repairs.simulate`` so the tests can check
its logs and truth sidecars against this one.

Each tick draws its own fault and report rolls and advances every machine
with array operations; the device manager consults the policy only for the
machines that need a decision, in machine order.
"""

from __future__ import annotations

import numpy as np

from statops.repairs import (
    ACTIONS,
    NO_ACTION,
    POLICY_WINDOW,
    FaultModel,
    FaultTruth,
    RepairLog,
)

_OK, _WARNING, _ERROR = range(3)  # STATUSES codes


def _machine_ids(fleet: int) -> tuple[str, ...]:
    width = max(2, len(str(max(fleet - 1, 0))))
    return tuple(f"m{i:0{width}d}" for i in range(fleet))


def simulate(fleet: int, model: FaultModel, policy, horizon: int, seed: int) -> RepairLog:
    rng_faults, rng_reports, rng_repairs = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    n_wd = len(model.watchdogs)
    fp = np.array([w.false_positive_rate for w in model.watchdogs])
    fn = np.array([w.false_negative_rate for w in model.watchdogs])
    efficacy = np.array([model.repair_efficacy[a] for a in ACTIONS])
    latency = np.array([model.repair_latency[a] for a in ACTIONS])

    # device-manager state: pending holds an action code exactly while failure is set
    failure = np.zeros(fleet, dtype=bool)
    pending = np.full(fleet, NO_ACTION, dtype=np.int64)
    since = np.zeros(fleet, dtype=np.int64)
    history: list[list] = [[] for _ in range(fleet)]
    persistent = np.zeros(fleet, dtype=bool)

    truth = np.empty((horizon, fleet), dtype=np.int8)
    state = np.empty((horizon, fleet), dtype=np.int8)
    action = np.empty((horizon, fleet), dtype=np.int8)
    status = np.empty((horizon, fleet, n_wd), dtype=np.int8)
    for tick in range(horizon):
        u = rng_faults.random((fleet, 2))
        v = rng_reports.random((fleet, n_wd, 2))
        persistent |= u[:, 1] < model.persistent_rate
        due = failure & (tick >= since + latency[pending])
        rolled = np.flatnonzero(due & persistent)
        cured = rng_repairs.random(rolled.size) < efficacy[pending[rolled]]
        persistent[rolled[cured]] = False
        truth[tick] = np.where(persistent, 2, u[:, 0] < model.transient_rate)

        errors = np.where(truth[tick, :, None] > 0, v[..., 0] >= fn, v[..., 0] < fp)
        status[tick] = np.where(errors, _ERROR,
                                np.where(v[..., 1] < model.warning_rate, _WARNING, _OK))
        in_error = errors.any(axis=1)

        recovered = due & ~in_error
        failure[recovered] = False
        pending[recovered] = NO_ACTION
        issued = np.full(fleet, NO_ACTION, dtype=np.int8)
        for m in np.flatnonzero(in_error & (due | ~failure)).tolist():
            chosen = policy([(t, a) for t, a in history[m] if t >= tick - POLICY_WINDOW], True)
            history[m].append((tick, chosen))
            issued[m] = ACTIONS.index(chosen)
            failure[m], pending[m], since[m] = True, issued[m], tick
        action[tick] = issued
        state[tick] = failure

    ticks = np.repeat(np.arange(horizon, dtype=np.int64), fleet)
    codes = np.tile(np.arange(fleet), horizon)
    ids = _machine_ids(fleet)
    return RepairLog(
        tick=ticks, machine=codes, machines=ids, state=state.ravel(),
        action=action.ravel(), status=status.reshape(-1, n_wd),
        watchdogs=tuple(w.name for w in model.watchdogs),
        truth=FaultTruth(ticks, codes, ids, truth.ravel()),
    )
