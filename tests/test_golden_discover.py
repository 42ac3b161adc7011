"""Golden digests of the bytes ``discover`` writes.

For every (host shape, method, seed) in a small grid the test generates the
host traces with ``gen-trace``, runs ``discover`` once per graph format and
compares the sha256 of ``pairs.csv``, ``graph.json`` and ``graph.dot`` with
the digests recorded in ``golden_discover.json``.  Any change to the report
bytes shows up here, however small.

After an intended change to the report bytes, regenerate the digests with

    PYTHONPATH=src python tests/test_golden_discover.py

and name the changed bytes and the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from statops.cli import main

GOLDEN = Path(__file__).with_name("golden_discover.json")

SEEDS = (3, 11, 29)
METHODS = ("ks", "log-odds", "both")

DESKTOP = """\
kind=trace host=desktop duration=120 seed=0
kind=channel dir=in service=http remote=web01 rate=3.0
kind=channel dir=in service=ldap remote=dc01 rate=2.0
kind=channel dir=in service=smb remote=files01 rate=1.0
kind=channel dir=in service=rpc remote=app01 rate=2.5
kind=channel dir=out service=sql remote=db01 rate=1.5
kind=channel dir=out service=dns remote=ns01 rate=1.0
kind=channel dir=out service=cache remote=mc01 rate=0.8
kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9
kind=dep in_service=rpc in_remote=app01 out_service=cache out_remote=mc01 mean_delay=0.08 prob=0.7
"""

SRV01 = """\
kind=trace host=srv01 duration=150 seed=0
kind=channel dir=in service=http remote=lb01 rate=2.0
kind=channel dir=in service=rpc remote=app02 rate=1.5
kind=channel dir=in service=ssh remote=admin01 rate=0.5
kind=channel dir=out service=sql remote=db01 rate=1.0
kind=channel dir=out service=dns remote=ns01 rate=0.7
kind=channel dir=out service=smtp remote=mx01 rate=0.4
kind=dep in_service=http in_remote=lb01 out_service=sql out_remote=db01 mean_delay=0.04 prob=0.85
"""

SRV02 = """\
kind=trace host=srv02 duration=150 seed=0
kind=channel dir=in service=http remote=lb01 rate=1.0
kind=channel dir=in service=rpc remote=srv01 rate=1.2
kind=channel dir=out service=sql remote=db02 rate=0.5
kind=channel dir=out service=dns remote=ns01 rate=0.5
kind=channel dir=out service=cache remote=mc01 rate=0.6
kind=channel dir=out service=rpc remote=app03 rate=0.3
kind=dep in_service=http in_remote=lb01 out_service=sql out_remote=db02 mean_delay=0.05 prob=0.9
kind=dep in_service=rpc in_remote=srv01 out_service=rpc out_remote=app03 mean_delay=0.1 prob=0.8
"""

# Channel sizes three orders of magnitude apart: one dense input, one nearly
# silent input, one sparse output fed by a rare response and one busy one.
EDGE03 = """\
kind=trace host=edge03 duration=150 seed=0
kind=channel dir=in service=http remote=lb01 rate=20.0
kind=channel dir=in service=ssh remote=admin01 rate=0.05
kind=channel dir=out service=sql remote=db01 rate=0.05
kind=channel dir=out service=cache remote=mc01 rate=6.0
kind=dep in_service=http in_remote=lb01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.02
"""

SHAPES = {"one-host": (DESKTOP,), "three-hosts": (SRV01, SRV02, EDGE03)}
REPORTS = ("pairs.csv", "graph.json", "graph.dot")


def case_name(shape: str, method: str, seed: int) -> str:
    return f"{shape}/{method}/seed{seed}"


def report_digests(shape: str, method: str, seed: int, work: Path) -> dict[str, str]:
    """Generate the shape's traces at ``seed`` and digest discover's reports."""
    paths = []
    for h, spec_text in enumerate(SHAPES[shape]):
        spec = work / f"host{h}.spec"
        spec.write_text(spec_text, encoding="utf-8")
        trace = work / f"host{h}.trace"
        assert main(["gen-trace", str(spec), "--seed", str(seed), "--out", str(trace)]) == 0
        paths.append(str(trace))
    digests = {}
    for fmt in ("json", "dot"):
        out = work / f"out-{fmt}"
        code = main(["discover", *paths, "--method", method, "--seed", str(seed),
                     "--format", fmt, "--out", str(out)])
        assert code in (0, 1)
        for name in REPORTS:
            if (out / name).is_file():
                digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


CASES = [(s, m, seed) for s in SHAPES for m in METHODS for seed in SEEDS]


@pytest.mark.parametrize("shape,method,seed", CASES,
                         ids=[case_name(*c) for c in CASES])
def test_discover_reports_match_golden_digests(shape, method, seed, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report_digests(shape, method, seed, tmp_path) == golden[case_name(shape, method, seed)]


def regenerate() -> None:
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case_name(*case)] = report_digests(*case, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
