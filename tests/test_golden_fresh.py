"""Golden reports written by ``python -m statops`` in fresh interpreters.

The golden suites call ``cli.main`` in-process, where the entry's start-up
(one OpenBLAS thread, the cyclic GC off while the modules load) never runs.
Here one stored case from each of the discover, diagnose and repairs suites
runs every command as its own ``python -m statops`` process, with
DeprecationWarning an error, and must match the digests those suites store.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statops
import test_golden_diagnose
import test_golden_discover
import test_golden_repairs

SRC = str(Path(statops.__file__).resolve().parents[1])


def _fresh_main(argv: list[str]) -> int:
    """``cli.main(argv)``'s exit code, run as ``python -m statops``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)  # the entry's own setting
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-m", "statops",
                           *argv], capture_output=True, text=True, env=env)
    sys.stderr.write(proc.stderr)
    return proc.returncode


# suite -> (its module, digest function, case name function, the case)
CASES = {
    "discover": (test_golden_discover, test_golden_discover.report_digests,
                 test_golden_discover.case_name, ("three-hosts", "both", 3)),
    "diagnose": (test_golden_diagnose, test_golden_diagnose.diagnose_digests,
                 test_golden_diagnose.case_id, ("wide", 3)),
    "repairs": (test_golden_repairs, test_golden_repairs.sim_digests,
                test_golden_repairs.sim_case, ("fleet", "escalation", 3)),
}


@pytest.mark.parametrize("suite", sorted(CASES))
def test_fresh_process_reports_match_golden_digests(suite, tmp_path, monkeypatch):
    module, digests, name, case = CASES[suite]
    monkeypatch.setattr(module, "main", _fresh_main)
    golden = json.loads(module.GOLDEN.read_text(encoding="utf-8"))
    assert digests(*case, tmp_path) == golden[name(*case)]
