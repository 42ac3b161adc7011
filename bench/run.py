"""statops benchmark: one analyst's CLI session on the `desk` or `fleet` workload.

    python3 bench/run.py --workload desk --seed 1 --seconds 60 --trace 0

With ``--trace 0`` each command runs as ``python -m statops ...`` in a fresh
interpreter, the way users run it, and each command's time is a trimmed
mean over the sessions that fit in ``--seconds``, scaled to the reference
machine speed (see ``reference_seconds``).  With ``--trace 1`` the session
runs in-process through ``statops.cli.main`` with every layer wrapped (see
spans.py), next to an untraced in-process session whose wall time gives the
tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from session import (ROOT, SRC, Op, check_session, count_tested, digest_tree, discovery_quality,
                     make_inputs, run_fresh, session_ops)
from spans import (COMMANDS, LAYERS, POLICY_MAPPING, POLICY_SPAN, Recorder, install,
                   per_layer_names, summarize, uninstall)
from workloads import WORKLOADS, Inputs, Workload

WORK = ROOT / ".bench_work"
MIN_SESSIONS = 2  # the second session's reports are compared with the first's
SETUPS = 3  # sessions that set up afresh; later ones reuse the last inputs
STARTUP_PROBES = 5
# Fixed key=value parsing work, timed inside a fresh interpreter after every
# session; it imports nothing from statops, so program changes never move it.
REFERENCE_CODE = """
import time
import numpy as np
t = time.perf_counter()
text = "".join(f"ts={i * 0.01!r} kind=req host=h{i % 7} svc=s{i % 13} remote=r{i % 5}\\n"
               for i in range(30000))
rows = [dict(tok.split("=", 1) for tok in line.split()) for line in text.splitlines()]
np.sort(np.array([float(r["ts"]) for r in rows]))
print(time.perf_counter() - t)
"""
REFERENCE_NOMINAL_S = 0.12  # REFERENCE_CODE's time on an idle Xeon 2-vCPU VM
EPOCH_SHIFT_S = 1.7e9  # a Unix-epoch time origin (ROADMAP item 1)

END_TO_END = (
    ("setup_s", "s"), ("discover_s", "s"), ("diagnose_s", "s"), ("retrieve_s", "s"),
    ("repair_sim_s", "s"), ("repair_mine_s", "s"), ("peak_rss_mb", "MB"),
    ("discover_recall", "ratio"), ("diagnose_accuracy", "ratio"), ("fpr_closeness", "ratio"),
)
QUALITY = ("discover_recall", "diagnose_accuracy", "fpr_closeness")  # fixed per seed


def environment() -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def run_in_process(op: Op, main, log: Path) -> Op:
    """Run ``main(op.argv)`` in this interpreter, its output sent to ``log``."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            op.code = main(op.argv)
    except Exception:  # the session must go on; the op counts as failed
        op.code = -1
        sink.write(traceback.format_exc())
    op.wall_s = time.perf_counter() - start
    with open(log, "a", encoding="utf-8") as f:
        f.write(sink.getvalue())
    return op


def compare_outputs(ops: list[Op], base: Path, digests: dict[str, str],
                    reference: dict[str, str]) -> None:
    """Fail every passing op whose output files differ from the reference
    session's (same seed, so reports must be byte-identical)."""
    for op in ops:
        if op.failed:
            continue
        prefix = str(Path(op.argv[op.argv.index("--out") + 1]).relative_to(base))
        mine = {k: v for k, v in digests.items() if k.startswith(prefix)}
        theirs = {k: v for k, v in reference.items() if k.startswith(prefix)}
        if mine != theirs:
            op.problem = "output differs from the first session's"


def trimmed_mean(values: list[float]) -> float:
    """Mean without the fastest and slowest tenth (at least one each from
    five samples on).  Short contention spikes on a shared 2-vCPU machine
    swing single commands by 30% and more; over ten-seed sets this spread
    less from run to run than the median, and one spike cannot move it."""
    ordered = sorted(values)
    k = max(1, len(ordered) // 10) if len(ordered) >= 5 else 0
    return statistics.fmean(ordered[k:len(ordered) - k])


def reference_seconds() -> float:
    """One timing of REFERENCE_CODE.

    The shared 2-vCPU machine drifts in speed by up to 1.6x within ten
    minutes, moving every command of a run together; a run's times are
    divided by the trimmed mean of the same run's reference times and
    multiplied by REFERENCE_NOMINAL_S.  Over five ten-run sets this cut the
    largest run-to-run spread (IQR / median) of a command time from 0.36 to
    0.18.
    """
    return float(subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout)


def timed_run(w: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, list[Op], dict]:
    """Run whole sessions in fresh interpreters until ``seconds`` is spent
    (at least MIN_SESSIONS), setting up afresh before each of the first
    SETUPS.  Command times are trimmed means and set-up time a median, both
    scaled to the reference speed; peak RSS is a median."""
    log = work / "stderr.log"
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END if name not in QUALITY}
    all_ops: list[Op] = []
    quality: dict[str, float] = {}
    references: list[float] = []
    ref_inputs = ref_outputs = None
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        if i < SETUPS:
            inputs, gen_ops = make_inputs(w, seed, work / f"in{i}", log)
            samples["setup_s"].append(time.perf_counter() - t0)
            digests = digest_tree(inputs.root)
            ref_inputs = ref_inputs or digests
            compare_outputs(gen_ops, inputs.root, digests, ref_inputs)
            all_ops += gen_ops
        out = work / f"out{i}"
        ops = [run_fresh(op, log) for op in session_ops(w, seed, inputs, out)]
        for stem in COMMANDS:
            samples[f"{stem}_s"] += [op.wall_s for op in ops if op.stem == stem]
        samples["peak_rss_mb"].append(max(op.rss_mb for op in ops))
        q = check_session(w, inputs, out, ops)
        quality = quality or q
        digests = digest_tree(out)
        ref_outputs = ref_outputs or digests
        compare_outputs(ops, out, digests, ref_outputs)
        all_ops += ops
        shutil.rmtree(out)
        references.append(reference_seconds())

        i += 1
        elapsed, last = time.perf_counter() - start, time.perf_counter() - t0
        if i >= MIN_SESSIONS and elapsed + last > seconds:
            break

    measured = {name: trimmed_mean(values) if name.removesuffix("_s") in COMMANDS
                else statistics.median(values) for name, values in samples.items()}
    speed = REFERENCE_NOMINAL_S / trimmed_mean(references)
    metrics = {name: value * speed if name.endswith("_s") else value
               for name, value in measured.items()}
    metrics.update((name, quality[name]) for name in QUALITY if name in quality)
    details = {"sessions": i, "speed": speed, "unscaled": measured,
               "references": [round(v, 4) for v in references],
               "samples": {k: [round(v, 4) for v in s] for k, s in samples.items()}}
    return metrics, all_ops, details


def startup_seconds() -> float:
    """Median wall time of a fresh ``import statops.cli``, measured inside
    the child so interpreter start-up itself is excluded."""
    code = ("import time; t = time.perf_counter(); import statops.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(STARTUP_PROBES)]
    return statistics.median(times)


def shifted_probe(trace: Path, work: Path, log: Path) -> tuple[int, int, Op]:
    """Discover on ``trace`` with every timestamp moved by EPOCH_SHIFT_S.

    Untimed; counts the pairs that still get tested.  Exit code 1 ("no
    testable channel pairs") is the known time-origin defect, not a failure.
    """
    lines = []
    for line in trace.read_text(encoding="utf-8").splitlines():
        ts, rest = line.split(" ", 1)
        lines.append(f"ts={float(ts[3:]) + EPOCH_SHIFT_S!r} {rest}\n")
    shifted = work / "shifted.trace"
    shifted.write_text("".join(lines), encoding="utf-8")
    argv = ["discover", str(shifted), "--out", str(work / "shifted")]
    op = run_fresh(Op("discover_shifted", argv, accept=(0, 1)), log)
    if op.failed:
        return 0, 0, op
    tested, pairs = count_tested(work / "shifted" / "pairs.csv")
    return tested, pairs, op


def in_process_session(w: Workload, seed: int, inputs: Inputs, out: Path, log: Path,
                       recorder: Recorder | None) -> tuple[float, list[Op], list[str]]:
    """One session through ``statops.cli.main``; traced when ``recorder`` is given."""
    from statops import cli

    ops = session_ops(w, seed, inputs, out)
    patches, absent = install(recorder) if recorder is not None else ([], [])
    start = time.perf_counter()
    try:
        for op in ops:
            main = recorder.wrap(f"cli.{op.stem}", cli.main) if recorder is not None else cli.main
            run_in_process(op, main, log)
    finally:
        wall = time.perf_counter() - start
        uninstall(patches)
    return wall, ops, absent


def layer_metrics(recorder: Recorder, out: Path, inputs: Inputs) -> dict[str, float]:
    """Per-layer metrics of one traced session (totals over its commands)."""
    summary = summarize(recorder.spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        entry = summary.get(layer.name, {})
        m[f"{layer.name}.self_s"] = entry.get("self_s", 0.0)
        m[f"{layer.name}.calls"] = entry.get("calls", 0)
        if layer.item_unit:
            m[f"{layer.name}.items"] = recorder.items[layer.name]
    policy_calls = summary.get(POLICY_SPAN, {}).get("calls", 0)
    machine_ticks = recorder.items["repairs.simulate"]
    m[f"{POLICY_SPAN}.calls"] = policy_calls
    m[f"{POLICY_SPAN}.calls_per_machine_tick"] = policy_calls / max(machine_ticks, 1)
    signatures = summary.get("diagnosis.signature", {}).get("calls_in.cli.retrieve", 0)
    m["diagnosis.retrieve.signatures_per_query"] = signatures / max(len(inputs.query_epochs), 1)
    for stem in COMMANDS:
        m[f"cli.{stem}.self_s"] = summary.get(f"cli.{stem}", {}).get("self_s", 0.0)
    with contextlib.suppress(OSError, KeyError, ZeroDivisionError):
        tested, pairs = count_tested(out / "discover" / "pairs.csv")
        m["discovery.pairs_tested"] = tested
        m["discovery.tested_ratio"] = tested / pairs
        m["discovery.precision"] = discovery_quality(out, inputs.traces)[1]
    return m


def traced_run(w: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, list[Op], dict]:
    """Per-layer metrics from traced in-process sessions, next to untraced
    in-process sessions for the overhead; medians over the session pairs
    that fit in ``seconds`` (at least one)."""
    log = work / "stderr.log"
    start = time.perf_counter()
    inputs, all_ops = make_inputs(w, seed, work / "in", log)
    shifted_tested, shifted_pairs, probe_op = shifted_probe(inputs.traces[0], work, log)
    all_ops.append(probe_op)
    startup = startup_seconds()

    samples: dict[str, list[float]] = {}
    walls: dict[bool, list[float]] = {True: [], False: []}
    reference = None
    absent: list[str] = []
    i = 0
    while True:
        t0 = time.perf_counter()
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            out = work / f"out{i}{'t' if traced else 'u'}"
            recorder = Recorder() if traced else None
            wall, ops, absent_now = in_process_session(w, seed, inputs, out, log, recorder)
            walls[traced].append(wall)
            check_session(w, inputs, out, ops)
            digests = digest_tree(out)
            reference = reference or digests
            compare_outputs(ops, out, digests, reference)
            all_ops += ops
            if recorder is not None:
                absent = absent_now
                for name, value in layer_metrics(recorder, out, inputs).items():
                    samples.setdefault(name, []).append(value)
            shutil.rmtree(out)
        i += 1
        elapsed, last = time.perf_counter() - start, time.perf_counter() - t0
        if elapsed + last > seconds:
            break

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["discovery.shifted.pairs_tested"] = shifted_tested
    metrics["discovery.shifted.pairs"] = shifted_pairs
    metrics["cli.startup_s"] = startup
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["bench.trace_overhead_s"] = overhead
    mapping = {layer.name: {"moves": layer.moves, "mainly_on": layer.mainly_on} for layer in LAYERS}
    mapping[POLICY_SPAN] = POLICY_MAPPING
    details = {"sessions": i, "absent_layers": absent, "layers": mapping,
               "traced_session_s": walls[True], "untraced_session_s": walls[False]}
    return metrics, all_ops, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "statops" / "__init__.py").is_file():
        print(f"error: no statops source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import statops.cli  # noqa: F401  (lazy imports finish before any timing)

    w = WORKLOADS[args.workload]
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(json.dumps({"environment": environment(), "workload": w.name, "why": w.why,
                      "seed": args.seed, "trace": args.trace}), flush=True)

    run = traced_run if args.trace else timed_run
    metrics, ops, details = run(w, args.seed, args.seconds, work)
    failures = [f"{op.stem}: {op.problem or op.code} :: {' '.join(op.argv)}" for op in ops
                if op.failed]
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in per_layer_names()}
    missing = sorted(set(units) - set(metrics))
    if missing:
        details["missing"] = missing
    details["failures"] = failures
    print(json.dumps({"details": details}), flush=True)
    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
