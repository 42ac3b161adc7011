"""Golden digests of the bytes ``repair-sim`` and ``repair-mine`` write.

For every (fault model, policy, seed) in a small grid the test runs
``repair-sim`` and ``repair-mine`` and compares the sha256 of ``repair.log``,
``repair.log.truth``, ``watchdogs.csv`` and ``policy.json`` with the digests
recorded in ``golden_repairs.json``.  The fault models are the benchmark's
desk and fleet configurations at their benchmark sizes plus a noisy one with
warnings and watchdogs given in non-sorted order.

A second set of cases mines hand-edited logs: lines out of order, skipped
ticks, ragged watchdog sets, duplicated lines and a truth sidecar with missing
rows, all derived from one simulated log by seeded edits.

After an intended change to the report bytes, regenerate the digests with

    PYTHONPATH=src python tests/test_golden_repairs.py

and name the changed bytes and the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from statops.cli import main

GOLDEN = Path(__file__).with_name("golden_repairs.json")

SEEDS = (3, 11, 29)
POLICIES = ("escalation", "do-nothing", "always-replace")

MODELS = {
    "desk": ["--machines", "10", "--ticks", "4000", "--transient-rate", "0.005",
             "--persistent-rate", "0.001", "--warning-rate", "0.0",
             "--watchdog", "wd_a:0.01:0.02", "--watchdog", "wd_b:0:0"],
    "fleet": ["--machines", "200", "--ticks", "200", "--transient-rate", "0.002",
              "--persistent-rate", "0.0", "--warning-rate", "0.05",
              "--watchdog", "wd_a:0.05:0.02", "--watchdog", "wd_b:0:0",
              "--watchdog", "wd_c:0.01:0.1", "--watchdog", "wd_d:0.02:0"],
    "noisy": ["--machines", "30", "--ticks", "300", "--transient-rate", "0.01",
              "--persistent-rate", "0.003", "--warning-rate", "0.2",
              "--watchdog", "zz:0.05:0.1", "--watchdog", "aa:0.02:0.0",
              "--watchdog", "mm:0:0"],
}
SIM_REPORTS = ("repair.log", "repair.log.truth")
MINE_REPORTS = ("watchdogs.csv", "policy.json")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mine(log: Path, out: Path) -> dict[str, str]:
    assert main(["repair-mine", str(log), "--out", str(out)]) == 0
    return {name: _digest(out / name) for name in MINE_REPORTS}


def sim_digests(model: str, policy: str, seed: int, work: Path) -> dict[str, str]:
    log = work / "repair.log"
    assert main(["repair-sim", *MODELS[model], "--policy", policy, "--seed", str(seed),
                 "--out", str(log)]) == 0
    digests = {name: _digest(work / name) for name in SIM_REPORTS}
    return {**digests, **_mine(log, work / "mine")}


# ---------------------------------------------------------------------------
# hand-edited logs
# ---------------------------------------------------------------------------


def _shuffled(lines, truth, rng):
    rng.shuffle(lines)
    rng.shuffle(truth)
    return lines, truth


def _skipped_ticks(lines, truth, rng):
    return [l for l in lines if rng.random() >= 0.1], truth


def _ragged_watchdogs(lines, truth, rng):
    out = []
    for line in lines:
        head, reports = line.rsplit(" reports=", 1)
        items = reports.split(";")
        items = [item for item in items if rng.random() >= 0.3]
        if rng.random() < 0.05:
            items.append(f"extra:{rng.choice(['OK', 'Warning', 'Error'])}")
        rng.shuffle(items)
        out.append(f"{head} reports={';'.join(items) or '-'}")
    return out, truth


def _duplicated_lines(lines, truth, rng):
    for line in rng.sample(lines, len(lines) // 30):
        lines.insert(rng.randrange(len(lines) + 1), line)
    # a later truth line for the same key overrides an earlier one
    for line in rng.sample(truth, len(truth) // 30):
        key, _ = line.rsplit(" truth=", 1)
        truth.append(f"{key} truth={rng.choice(['ok', 'transient', 'persistent'])}")
    return lines, truth


def _truth_missing_rows(lines, truth, rng):
    return lines, [l for l in truth if rng.random() >= 0.33]


def _combined(lines, truth, rng):
    for edit in (_ragged_watchdogs, _skipped_ticks, _duplicated_lines,
                 _truth_missing_rows, _shuffled):
        lines, truth = edit(lines, truth, rng)
    return lines, truth


EDITS = {
    "shuffled": _shuffled,
    "skipped-ticks": _skipped_ticks,
    "ragged-watchdogs": _ragged_watchdogs,
    "duplicated-lines": _duplicated_lines,
    "truth-missing-rows": _truth_missing_rows,
    "combined": _combined,
}
EDIT_POLICIES = ("escalation", "do-nothing")


def edited_digests(edit: str, policy: str, work: Path) -> dict[str, str]:
    log = work / "repair.log"
    assert main(["repair-sim", *MODELS["noisy"], "--policy", policy, "--seed", "3",
                 "--out", str(log)]) == 0
    truth = Path(str(log) + ".truth")
    lines, truth_lines = EDITS[edit](
        log.read_text(encoding="utf-8").splitlines(),
        truth.read_text(encoding="utf-8").splitlines(),
        random.Random(f"{edit}/{policy}"),
    )
    log.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    truth.write_text("".join(l + "\n" for l in truth_lines), encoding="utf-8")
    return _mine(log, work / "mine")


SIM_CASES = [(m, p, s) for m in MODELS for p in POLICIES for s in SEEDS]
EDIT_CASES = [(e, p) for e in EDITS for p in EDIT_POLICIES]


def sim_case(model: str, policy: str, seed: int) -> str:
    return f"{model}/{policy}/seed{seed}"


def edit_case(edit: str, policy: str) -> str:
    return f"edited/{edit}/{policy}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("model,policy,seed", SIM_CASES,
                         ids=[sim_case(*c) for c in SIM_CASES])
def test_repair_reports_match_golden_digests(model, policy, seed, tmp_path, golden):
    assert sim_digests(model, policy, seed, tmp_path) == golden[sim_case(model, policy, seed)]


@pytest.mark.parametrize("edit,policy", EDIT_CASES, ids=[edit_case(*c) for c in EDIT_CASES])
def test_hand_edited_log_reports_match_golden_digests(edit, policy, tmp_path, golden):
    assert edited_digests(edit, policy, tmp_path) == golden[edit_case(edit, policy)]


def regenerate() -> None:
    golden = {}
    for case in SIM_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[sim_case(*case)] = sim_digests(*case, Path(tmp))
    for case in EDIT_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[edit_case(*case)] = edited_digests(*case, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
