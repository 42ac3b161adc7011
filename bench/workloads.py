"""The benchmark's two workloads and the input files each hands the program.

A workload is one analyst's closed-loop CLI session: ``discover`` over the
host traces, ``diagnose`` (train, signatures, cluster), a few ``diagnose
--actions retrieve`` queries, ``repair-sim`` and ``repair-mine``, each
started when the previous one exits.  Inputs are a pure function of the
workload and the seed; the program only ever sees the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SLO_THRESHOLD_MS = 200.0
TOP_K = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # discovery: per host, `inputs` x `outputs` Poisson channels, `deps` planted
    hosts: int
    inputs: int
    outputs: int
    in_rate: float
    out_rate: float
    deps: int
    duration: float
    # diagnosis: synthetic metric log with planted causes
    epochs: int
    metrics: int
    causes: int
    cause_width: int
    clusters: int
    queries: int
    # repairs: simulator configuration passed as repair-sim flags
    machines: int
    ticks: int
    policy: str
    transient_rate: float
    persistent_rate: float
    warning_rate: float
    watchdogs: tuple[str, ...]


DESK = Workload(
    name="desk",
    why="one busy host, a long narrow metrics log and escalation repairs: trace "
        "parsing is 93% of discover; 11k narrow signature calls; device-manager "
        "steps; 16 pairs on large samples",
    hosts=1, inputs=4, outputs=4, in_rate=15.0, out_rate=8.0, deps=3, duration=600.0,
    epochs=12_000, metrics=12, causes=3, cause_width=3, clusters=3, queries=2,
    machines=10, ticks=4000, policy="escalation",
    transient_rate=0.005, persistent_rate=0.001, warning_rate=0.0,
    watchdogs=("wd_a:0.01:0.02", "wd_b:0:0"),
)

FLEET = Workload(
    name="fleet",
    why="eight sparse hosts, a wide metrics log and 4-watchdog repairs: 2,048 "
        "small pair tests are 45% of discover; wide CSV loads; report-heavy "
        "simulation",
    hosts=8, inputs=16, outputs=16, in_rate=1.0, out_rate=0.5, deps=4, duration=200.0,
    epochs=1600, metrics=150, causes=6, cause_width=10, clusters=6, queries=2,
    machines=200, ticks=200, policy="do-nothing",
    transient_rate=0.002, persistent_rate=0.0, warning_rate=0.05,
    watchdogs=("wd_a:0.05:0.02", "wd_b:0:0", "wd_c:0.01:0.1", "wd_d:0.02:0"),
)

WORKLOADS = {w.name: w for w in (DESK, FLEET)}


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set plus the seeded query epochs.  Each
    trace's generator spec sits next to it as ``<name>.spec``."""

    root: Path
    traces: tuple[Path, ...]
    metrics: Path
    query_epochs: tuple[float, ...]


def trace_spec(w: Workload, seed: int, h: int) -> str:
    """Generator spec text for host ``h``: channels plus planted dependencies."""
    rng = np.random.default_rng([seed, h, 1])
    ins = [(f"s{i:02d}", f"client{i:02d}") for i in range(w.inputs)]
    outs = [(f"b{j:02d}", f"backend{j:02d}") for j in range(w.outputs)]
    host = "desktop" if w.hosts == 1 else f"srv{h:02d}"
    lines = [f"kind=trace host={host} duration={w.duration!r} "
             f"seed={int(rng.integers(0, 2**31))}"]
    lines += [f"kind=channel dir=in service={s} remote={r} rate={w.in_rate!r}" for s, r in ins]
    lines += [f"kind=channel dir=out service={s} remote={r} rate={w.out_rate!r}" for s, r in outs]
    for k in sorted(rng.choice(w.inputs * w.outputs, size=w.deps, replace=False)):
        (in_s, in_r), (out_s, out_r) = ins[k // w.outputs], outs[k % w.outputs]
        mean_delay = float(rng.uniform(0.02, 0.1))
        prob = float(rng.uniform(0.8, 1.0))
        lines.append(f"kind=dep in_service={in_s} in_remote={in_r} out_service={out_s} "
                     f"out_remote={out_r} mean_delay={mean_delay!r} prob={prob!r}")
    return "".join(line + "\n" for line in lines)


def write_metrics(w: Workload, seed: int, path: Path) -> tuple[float, ...]:
    """Write the metrics CSV with the program's own generator and writer;
    returns the seeded violation epochs the retrieve queries ask about."""
    from statops import diagnosis

    causes = tuple(tuple(range(c * w.cause_width, (c + 1) * w.cause_width))
                   for c in range(w.causes))
    dataset, _, _ = diagnosis.synth_metrics(
        n_epochs=w.epochs, n_metrics=w.metrics, cause_metric_sets=causes,
        slo_threshold=SLO_THRESHOLD_MS, seed=seed,
    )
    path.write_text(diagnosis.write_metrics_csv(dataset), encoding="utf-8")
    violations = dataset.timestamps[dataset.art > SLO_THRESHOLD_MS]
    rng = np.random.default_rng([seed, 2])
    picked = rng.choice(violations.size, size=min(w.queries, violations.size), replace=False)
    return tuple(float(violations[i]) for i in sorted(picked))


def commands(w: Workload, seed: int, inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """The session's CLI invocations in order, as (metric stem, argv)."""
    s = str(seed)
    diagnose = ["diagnose", str(inputs.metrics), "--slo-threshold", repr(SLO_THRESHOLD_MS),
                "--seed", s]
    cmds = [
        ("discover", ["discover", *map(str, inputs.traces), "--seed", s,
                      "--out", str(out / "discover")]),
        ("diagnose", [*diagnose, "--actions", "train,signatures,cluster",
                      "--clusters", str(w.clusters), "--out", str(out / "diagnose")]),
    ]
    for q, epoch in enumerate(inputs.query_epochs):
        cmds.append(("retrieve", [*diagnose, "--actions", "retrieve",
                                  "--catalog", str(out / "diagnose" / "signatures.jsonl"),
                                  "--query-epoch", repr(epoch), "--top-k", str(TOP_K),
                                  "--out", str(out / f"retrieve{q}")]))
    sim = ["repair-sim", "--machines", str(w.machines), "--ticks", str(w.ticks),
           "--policy", w.policy, "--seed", s,
           "--transient-rate", repr(w.transient_rate),
           "--persistent-rate", repr(w.persistent_rate),
           "--warning-rate", repr(w.warning_rate)]
    for spec in w.watchdogs:
        sim += ["--watchdog", spec]
    cmds.append(("repair_sim", [*sim, "--out", str(out / "repair.log")]))
    cmds.append(("repair_mine", ["repair-mine", str(out / "repair.log"),
                                 "--out", str(out / "mine")]))
    return cmds

