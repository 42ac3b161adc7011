"""Each command imports only the modules it runs.

Every case runs ``cli.main`` in a fresh interpreter on tiny inputs and then
reads that interpreter's ``sys.modules``: a command must load the modules it
runs and none of the others (``numpy.ma`` included, which ``np.unique``
would pull in).  No command may load scipy, which serves the tests only.
The commands that draw no random numbers must not load ``numpy.random``:
with ``secrets`` and ``hashlib`` it costs 12-15 ms of start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statops
from statops import diagnosis
from statops.cli import main

SRC = str(Path(statops.__file__).resolve().parents[1])

SPEC = """\
kind=trace host=desktop duration=60 seed=3
kind=channel dir=in service=http remote=web01 rate=2.0
kind=channel dir=out service=sql remote=db01 rate=1.0
kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9
"""

DISCOVERY = {"statops.traces", "statops.discovery", "statops.stats"}
OTHER_THAN_DIAGNOSIS = {"statops.repairs", "statops.records"} | DISCOVERY
OTHER_THAN_STATS = {"statops.traces", "statops.discovery", "statops.diagnosis",
                    "statops.repairs", "statops.records", "numpy.ma", "numpy.random"}

# command -> (modules it must load, modules it must not load, besides scipy)
CASES = {
    "gen-trace": ({"statops.traces"}, {"statops.diagnosis", "statops.repairs", "numpy.ma"}),
    "discover": (DISCOVERY, {"statops.diagnosis", "statops.repairs", "numpy.ma", "numpy.random"}),
    "diagnose-train": ({"statops.diagnosis"}, OTHER_THAN_DIAGNOSIS),
    "diagnose-retrieve": ({"statops.diagnosis"}, OTHER_THAN_DIAGNOSIS | {"numpy.random"}),
    "repair-sim": ({"statops.repairs"}, {"statops.diagnosis", "statops.discovery"}),
    "repair-mine": ({"statops.repairs"}, {"statops.diagnosis", "statops.discovery",
                                          "numpy.random"}),
    "stats-bh": ({"statops.stats"}, OTHER_THAN_STATS),
    "stats-ks": ({"statops.stats"}, OTHER_THAN_STATS),
}
# What the stats commands read on stdin.
STDIN = {"stats-bh": "0.001 0.02 0.4 0.03\n", "stats-ks": "0.1 0.4 0.7 0.9\n0.2 0.5 1.5\n"}


def _run_fresh(code: str, stdin: str = "") -> list:
    """The JSON that ``code`` prints last, run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def argvs(tmp_path_factory) -> dict[str, list[str]]:
    d = tmp_path_factory.mktemp("inputs")
    (d / "host.spec").write_text(SPEC, encoding="utf-8")
    trace, log = str(d / "host.trace"), str(d / "repair.log")
    assert main(["gen-trace", str(d / "host.spec"), "--out", trace]) == 0
    assert main(["repair-sim", "--machines", "2", "--ticks", "20", "--out", log]) == 0
    ds, _, _ = diagnosis.synth_metrics(n_epochs=60, n_metrics=3, cause_metric_sets=((0,),),
                                       seed=1)
    metrics = d / "metrics.csv"
    metrics.write_text(diagnosis.write_metrics_csv(ds), encoding="utf-8")
    diagnose = ["diagnose", str(metrics), "--slo-threshold", "200"]
    assert main([*diagnose, "--actions", "signatures", "--out", str(d / "cat")]) == 0
    return {
        "gen-trace": ["gen-trace", str(d / "host.spec"), "--out", str(d / "again.trace")],
        "discover": ["discover", trace, "--out", str(d / "disc")],
        "diagnose-train": [*diagnose, "--actions", "train,signatures,cluster",
                           "--clusters", "1", "--out", str(d / "diag")],
        "diagnose-retrieve": [*diagnose, "--actions", "retrieve", "--query-epoch", "5",
                              "--catalog", str(d / "cat" / "signatures.jsonl"),
                              "--out", str(d / "retr")],
        "repair-sim": ["repair-sim", "--machines", "2", "--ticks", "20",
                       "--out", str(d / "again.log")],
        "repair-mine": ["repair-mine", log, "--out", str(d / "mine")],
        "stats-bh": ["stats", "bh", "--out", str(d / "bh.json")],
        "stats-ks": ["stats", "ks", "--out", str(d / "ks.json")],
    }


@pytest.mark.parametrize("case", CASES)
def test_command_loads_only_its_modules(case, argvs):
    code = ("import json, sys; from statops.cli import main; "
            f"exit_code = main({argvs[case]!r}); "
            "print(json.dumps([exit_code, sorted(sys.modules)]))")
    exit_code, modules = _run_fresh(code, STDIN.get(case, ""))
    assert exit_code == 0
    needed, unwanted = CASES[case]
    assert needed <= set(modules)
    assert not (unwanted | {"scipy"}) & set(modules)


def test_import_statops_loads_submodules_on_first_access():
    code = ("import json, sys, statops; before = 'statops.repairs' in sys.modules; "
            "simulate = statops.repairs.simulate; "
            "print(json.dumps([before, simulate.__module__, statops.__all__]))")
    before, module, names = _run_fresh(code)
    assert not before
    assert module == "statops.repairs"
    assert names == ["stats", "traces", "discovery", "diagnosis", "repairs"]
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        statops.nope  # noqa: B018
