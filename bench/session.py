"""Running the program's CLI and checking what it wrote.

Only the CLI invocations themselves are timed; the checks here (parsing
reports, comparing them with planted truth, hashing them) run between them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import TOP_K, Inputs, Workload, commands, trace_spec, write_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Quality thresholds the program's acceptance criteria 3 and 9 set.
MIN_RECALL = 0.9
MIN_ACCURACY = 0.9
# At most this share of the dependent pairs may be unplanted.  BH at 0.05
# keeps it near 0 on average, but desk's single host (3 planted pairs)
# reads up to 0.4 on some seeds; a tester that marks most pairs dependent reads above 0.8.
MAX_FDP = 0.5
FPR_WATCHDOG = "wd_a"


@dataclass
class Op:
    """One CLI invocation: what ran, how long it took, and whether it passed."""

    stem: str
    argv: list[str]
    wall_s: float = 0.0
    rss_mb: float = 0.0
    code: int = -1
    problem: str = ""
    accept: tuple[int, ...] = (0,)  # exit codes that are not a failure

    @property
    def failed(self) -> bool:
        return self.code not in self.accept or bool(self.problem)


def run_fresh(op: Op, log: Path) -> Op:
    """Run ``python -m statops *op.argv`` in a fresh interpreter, the way
    users run it; records exit code, wall time and the child's peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "statops", *op.argv], cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        op.wall_s = time.perf_counter() - start
    proc.returncode = op.code = os.waitstatus_to_exitcode(status)
    op.rss_mb = usage.ru_maxrss / 1024.0
    return op


def make_inputs(w: Workload, seed: int, dest: Path, log: Path) -> tuple[Inputs, list[Op]]:
    """Write spec files, generate one trace per host with ``gen-trace`` and
    write the metrics CSV.  Returns the inputs and the gen-trace ops."""
    dest.mkdir(parents=True, exist_ok=True)
    traces, ops = [], []
    for h in range(w.hosts):
        spec = dest / f"host{h:02d}.spec"
        spec.write_text(trace_spec(w, seed, h), encoding="utf-8")
        trace = dest / f"host{h:02d}.trace"
        ops.append(run_fresh(Op("gen_trace", ["gen-trace", str(spec), "--out", str(trace)]), log))
        traces.append(trace)
    metrics = dest / "metrics.csv"
    epochs = write_metrics(w, seed, metrics)
    return Inputs(dest, tuple(traces), metrics, epochs), ops


def session_ops(w: Workload, seed: int, inputs: Inputs, out: Path) -> list[Op]:
    return [Op(stem, argv) for stem, argv in commands(w, seed, inputs, out)]


# --- output checks ---------------------------------------------------------


def _kv(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split())


def planted_pairs(traces: tuple[Path, ...]) -> set[tuple[str, ...]]:
    """Planted (host, in_service, in_remote, out_service, out_remote) pairs,
    read from each trace's ``.truth`` sidecar and its spec's host line."""
    planted = set()
    for trace in traces:
        host = None
        spec = trace.with_suffix(".spec").read_text(encoding="utf-8")
        for line in spec.splitlines():
            fields = _kv(line)
            if fields.get("kind") == "trace":
                host = fields["host"]
        truth = Path(str(trace) + ".truth").read_text(encoding="utf-8")
        for line in truth.splitlines():
            if line.strip():
                f = _kv(line)
                planted.add((host, f["in_service"], f["in_remote"],
                             f["out_service"], f["out_remote"]))
    return planted


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def discovery_quality(out: Path, traces: tuple[Path, ...]) -> tuple[float, float, int]:
    """(recall, precision, pairs) of the dependent set in ``pairs.csv``."""
    rows = _csv_rows(out / "discover" / "pairs.csv")
    planted = planted_pairs(traces)
    dependent = {
        (r["host"], r["input_service"], r["input_remote"], r["output_service"], r["output_remote"])
        for r in rows if r["dependent"] == "true"
    }
    hits = len(dependent & planted)
    recall = hits / len(planted) if planted else 1.0
    precision = hits / len(dependent) if dependent else 0.0
    return recall, precision, len(rows)


def count_tested(pairs_csv: Path) -> tuple[int, int]:
    """(pairs tested, pairs) in one ``pairs.csv``."""
    rows = _csv_rows(pairs_csv)
    return sum(r["insufficient_data"] == "false" for r in rows), len(rows)


def check_session(w: Workload, inputs: Inputs, out: Path, ops: list[Op]) -> dict[str, float]:
    """Check every report the session wrote; mark failing ops in place and
    return the quality metrics."""
    quality: dict[str, float] = {}

    def check(op: Op, fn) -> None:
        if op.code not in op.accept:
            op.problem = f"exit code {op.code}"
            return
        try:
            problem = fn()
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        op.problem = problem or ""

    def discover() -> str | None:
        json.loads((out / "discover" / "graph.json").read_text(encoding="utf-8"))["edges"]
        recall, precision, n_pairs = discovery_quality(out, inputs.traces)
        quality["discover_recall"] = recall
        if n_pairs != w.hosts * w.inputs * w.outputs:
            return f"pairs.csv has {n_pairs} pairs"
        if recall < MIN_RECALL:
            return f"discover recall {recall:.3f} < {MIN_RECALL}"
        if 1.0 - precision > MAX_FDP:
            return f"discover false discovery proportion {1.0 - precision:.3f} > {MAX_FDP}"
        return None

    def diagnose() -> str | None:
        d = out / "diagnose"
        accuracy = float(json.loads((d / "model.json").read_text(encoding="utf-8"))["accuracy"])
        quality["diagnose_accuracy"] = accuracy
        for line in (d / "signatures.jsonl").read_text(encoding="utf-8").splitlines():
            json.loads(line)["attributions"]
        timeline = list(csv.reader(
            l for l in (d / "timeline.csv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")))
        if len(timeline) != w.epochs + 1:
            return f"timeline.csv has {len(timeline) - 1} epochs"
        if accuracy < MIN_ACCURACY:
            return f"diagnose accuracy {accuracy:.3f} < {MIN_ACCURACY}"
        return None

    def retrieve(q: int) -> str | None:
        payload = json.loads((out / f"retrieve{q}" / "retrieval.json").read_text(encoding="utf-8"))
        if len(payload["results"]) != TOP_K or payload["results"][0]["distance"] != 0.0:
            return "retrieval did not rank the query's own signature first"
        return None

    def repair_sim() -> str | None:
        for path in (out / "repair.log", out / "repair.log.truth"):
            if path.stat().st_size == 0:
                return f"{path.name} is empty"
        return None

    def repair_mine() -> str | None:
        rows = {r["watchdog"]: r for r in _csv_rows(out / "mine" / "watchdogs.csv")}
        json.loads((out / "mine" / "policy.json").read_text(encoding="utf-8"))["availability"]
        r = rows[FPR_WATCHDOG]
        estimated, true = float(r["estimated_fp_rate"]), float(r["true_fp_rate"])
        # 1 when the estimate is right; over- and under-estimates by the same
        # factor read the same
        quality["fpr_closeness"] = min(estimated, true) / max(estimated, true)
        return None

    q = 0
    for op in ops:
        if op.stem == "retrieve":
            check(op, lambda q=q: retrieve(q))
            q += 1
        else:
            check(op, {"discover": discover, "diagnose": diagnose, "repair_sim": repair_sim,
                       "repair_mine": repair_mine}[op.stem])
    return quality


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
