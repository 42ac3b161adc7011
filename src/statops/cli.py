"""Command-line front door: generation, pipelines and deterministic reports.

Subcommands: gen-trace, discover, diagnose, repair-sim, repair-mine, stats.
Exit codes: 0 success, 1 completed with warnings, 2 input/config error.
Every report embeds the seed and the effective configuration, and all output
is a pure function of (inputs, seed), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import pickle
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

# Each command imports only the statops modules it runs, as `import statops.x
# as x`: `python -X importtime` does not record a submodule that `from statops
# import x` loads.
if TYPE_CHECKING:
    from statops import diagnosis, discovery, repairs

_EXIT_OK = 0
_EXIT_WARN = 1
_EXIT_ERROR = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _EXIT_ERROR


def _write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")


def _load(path: Path, parse, what: str):
    """parse() of the file's text; a missing file or a parse error raises a
    ValueError that names the file."""
    if not path.is_file():
        raise ValueError(f"{what} not found: {path}")
    try:
        return parse(path.read_text(encoding="utf-8-sig"))  # a leading BOM is dropped
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _map_forked(fn, items: Sequence) -> list:
    """[fn(x) for x in items], run in contiguous chunks, one per usable CPU.

    The parent runs the first chunk; each other chunk runs in a forked child
    that sends its results back pickled through a pipe.  Chunk k's process is
    pinned to the k-th CPU of the mask (the kernel tends to leave a fresh child
    on its parent's CPU) until the join restores the parent's mask.  A chunk
    whose child raised or died is run again by the parent, so any error is the
    plain loop's, raised in its order.  Every child ends in os._exit and is
    reaped before this returns, killed first if the parent raises.  fn must
    write nothing, and its results must pickle.
    """
    items = list(items)
    # os.sched_getaffinity exists only where os.fork does; elsewhere: the plain loop
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    n = min(len(items), len(cpus))
    if n <= 1:
        return [fn(x) for x in items]
    bounds = [len(items) * k // n for k in range(n + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []  # (pid, read end of its pipe) per chunk after the first; -1: none to reap
    try:
        for cpu, chunk in zip(cpus[1:], chunks[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent runs this chunk
                pid = -1
            if pid == 0:  # the child: never returns
                status = 1
                try:
                    _pin({cpu})
                    with open(write, "wb") as pipe:
                        pickle.dump([fn(x) for x in chunk], pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, open(read, "rb")))
        _pin({cpus[0]})
        results = [fn(x) for x in chunks[0]]
        for k, chunk in enumerate(chunks[1:]):
            pid, pipe = children[k]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1] if pid > 0 else 1
            children[k] = (-1, pipe)  # reaped
            results += pickle.loads(data) if status == 0 else [fn(x) for x in chunk]
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid > 0:
                import signal  # only on this path: every command imports this module

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        _pin(cpus)


def _pin(cpus) -> None:
    with contextlib.suppress(OSError):  # a CPU set the kernel refuses: left unpinned
        os.sched_setaffinity(0, cpus)


def _seed(raw: str) -> int:
    """argparse type of every --seed flag; argparse names the flag in the error."""
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got '{raw}'")
    return seed


def _json_report(payload: dict, config: dict) -> str:
    return json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"


def _config_comment(config: dict) -> str:
    items = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return f"# {items}\n"


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    import statops.traces as traces

    spec = _load(Path(args.spec), traces.parse_synth_spec, "spec file")
    if args.seed is not None:  # flag overrides the spec file
        spec = dataclasses.replace(spec, seed=args.seed)
    trace, truth = traces.synth_trace(spec)
    out = Path(args.out)
    _write(out, traces.serialize_trace(trace))
    _write(Path(str(out) + ".truth"), traces.serialize_ground_truth(truth))
    print(f"wrote {out} and {out}.truth (host={spec.host}, seed={spec.seed})")
    return _EXIT_OK


def _pair_rows(host: str, table: discovery.PairTable) -> list[str]:
    rows = []
    columns = zip(table.pairs(), table.n_delays.tolist(), table.statistic.tolist(),
                  table.p_value.tolist(), table.log_odds.tolist(), table.q_value.tolist(),
                  table.dependent.tolist(), table.tested.tolist())
    for (cin, cout), n, stat, p, log_odds, q, dependent, tested in columns:
        rows.append(",".join([
            host, cin.service, cin.remote, cout.service, cout.remote, str(n),
            repr(stat) if tested else "", repr(p) if tested else "", repr(log_odds),
            repr(q) if tested else "", str(dependent).lower(), str(not tested).lower(),
        ]))
    return rows


def _cmd_discover(args: argparse.Namespace) -> int:
    # DiscoveryConfig and LogOddsModel check these too, in their own field names
    if not 0 < args.alpha < 1:
        return _fail(f"--alpha must lie in (0, 1), got {args.alpha}")
    if not 0 < args.horizon < math.inf:
        return _fail(f"--horizon must be a finite number > 0, got {args.horizon}")
    if args.min_samples < 1:
        return _fail(f"--min-samples must be >= 1, got {args.min_samples}")
    import statops.discovery as discovery
    import statops.traces as traces

    config = discovery.DiscoveryConfig(
        alpha=args.alpha, horizon=args.horizon, min_samples=args.min_samples,
        method=args.method.replace("-", "_"),
    )

    def discover_host(path: str):
        trace = _load(Path(path), traces.parse_trace, "trace file")
        return trace.host, discovery.local_dependencies(trace, config)

    # Hosts are independent, so their traces can be discovered in any process.
    per_host = _map_forked(discover_host, args.traces)

    # --seed changes no result (the null is exact); it is echoed as given
    echo = {
        "alpha": args.alpha, "horizon": args.horizon, "method": args.method,
        "min_samples": args.min_samples, "seed": args.seed,
    }
    graph = discovery.build_graph(per_host)  # rejects repeated hosts before any write
    out_dir = Path(args.out)
    header = "host,input_service,input_remote,output_service,output_remote," \
             "n_delays,statistic,p_value,log_odds,q_value,dependent,insufficient_data"
    lines = [_config_comment(echo) + header]
    for host, table in per_host:
        lines.extend(_pair_rows(host, table))
    lines.append("")  # the last line end; the text is built in one join
    _write(out_dir / "pairs.csv", "\n".join(lines))

    if args.format == "dot":
        comment = "// " + " ".join(f"{k}={echo[k]}" for k in sorted(echo)) + "\n"
        _write(out_dir / "graph.dot", comment.encode() + discovery.export_graph(graph, "dot"))
    else:
        _write(out_dir / "graph.json", _json_report(discovery.graph_payload(graph), echo))

    if any(not table.tested.any() for _, table in per_host):
        print("warning: at least one host had no testable channel pairs", file=sys.stderr)
        return _EXIT_WARN
    return _EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    # the flags are checked before the metrics log is read, and every
    # precondition before the first report is written
    if not (math.isfinite(args.slo_threshold) and args.slo_threshold > 0):
        return _fail(f"--slo-threshold must be a finite number > 0, got {args.slo_threshold}")
    actions = [a.strip() for a in args.actions.split(",") if a.strip()]
    if not actions:
        return _fail(f"--actions must name at least one action, got '{args.actions}'")
    unknown = set(actions) - {"train", "signatures", "cluster", "retrieve"}
    if unknown:
        return _fail(f"unknown actions: {sorted(unknown)}")
    if "retrieve" in actions:
        if not args.catalog:
            return _fail("retrieve requires --catalog")
        if args.query_epoch is None:
            return _fail("retrieve requires --query-epoch")
        if not math.isfinite(args.query_epoch):
            return _fail(f"--query-epoch must be a finite number, got {args.query_epoch}")
        if args.top_k < 1:
            return _fail("--top-k must be >= 1")

    import statops.diagnosis as diagnosis

    # The metrics log is read here and the catalog in a child; a read error
    # is raised only where the checks below reach its file.
    reads = [lambda: _load(Path(args.metrics), diagnosis.load_metrics_csv, "metrics file")]
    if "retrieve" in actions:
        reads.append(lambda: _load(Path(args.catalog), diagnosis.catalog_from_jsonl, "catalog"))
    dataset, *catalog_read = _map_forked(_outcome, reads)
    dataset = _value(dataset)
    labels = diagnosis.label_slo(dataset, diagnosis.SloConfig(args.slo_threshold))
    violation_idx = np.flatnonzero(labels)
    if violation_idx.size in (0, dataset.n_epochs):
        missing, which = (("a violation", "no") if violation_idx.size == 0 else
                          ("compliant", "every"))
        return _fail(f"need both classes, but no epoch is {missing}: {which} art_ms exceeds "
                     f"--slo-threshold {args.slo_threshold}")
    if "cluster" in actions and not 1 <= args.clusters <= violation_idx.size:
        return _fail(f"--clusters must lie in [1, {violation_idx.size}], the number of "
                     f"violations, got {args.clusters}")
    catalog = _check_catalog(_value(catalog_read[0]), Path(args.catalog),
                             dataset.n_metrics) if catalog_read else None
    model = diagnosis.fit_classifier(dataset, labels)

    echo = {
        "slo_threshold": args.slo_threshold, "seed": args.seed, "clusters": args.clusters,
        "actions": ",".join(actions),
    }
    out_dir = Path(args.out)
    if "train" in actions:
        pred = diagnosis.predict(model, dataset.metrics)
        payload = {
            "accuracy": float(np.mean(pred == labels)),
            "prior": {"compliant": model.prior[0], "violation": model.prior[1]},
            "feature_set": list(range(dataset.n_metrics)),
            "metric_names": list(model.metric_names),
            "n_epochs": dataset.n_epochs,
        }
        _write(out_dir / "model.json", _json_report(payload, echo))

    if {"signatures", "cluster"} & set(actions):
        signatures = diagnosis.signatures(model, dataset.metrics[violation_idx],
                                          dataset.timestamps[violation_idx])
    if "signatures" in actions:
        _write(out_dir / "signatures.jsonl", signatures.to_jsonl())

    if "cluster" in actions:
        cluster_id = np.full(dataset.n_epochs, -1)
        cluster_id[violation_idx] = diagnosis.cluster_signatures(
            signatures.attributions, args.clusters, seed=args.seed)
        rows = zip(dataset.timestamps.tolist(), dataset.art.tolist(), labels.tolist(),
                   cluster_id.tolist())
        lines = ["ts,art_ms,slo_state,cluster_id"] + [
            f"{ts!r},{art!r},{'violation' if violated else 'compliant'},{c}"
            for ts, art, violated, c in rows
        ]
        _write(out_dir / "timeline.csv", _config_comment(echo) + "".join(l + "\n" for l in lines))

    if "retrieve" in actions:
        i = int(np.argmin(np.abs(dataset.timestamps - args.query_epoch)))
        query = diagnosis.signatures(model, dataset.metrics[i:i + 1], dataset.timestamps[i:i + 1])
        order, distances = diagnosis.retrieve(query.attributions[0], catalog, args.top_k)
        payload = {
            "query_epoch": float(query.epochs[0]),
            "results": [
                {"ts": ts, "annotation": catalog.annotations[j], "distance": d}
                for j, ts, d in zip(order.tolist(), catalog.epochs[order].tolist(),
                                    distances.tolist())
            ],
        }
        _write(out_dir / "retrieval.json", _json_report(payload, echo))
    return _EXIT_OK


def _outcome(read):
    """read()'s value, or the ValueError or OSError it raised."""
    try:
        return read()
    except (ValueError, OSError) as exc:
        return exc


def _value(outcome):
    """Raise the error _outcome caught, or return its value."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _check_catalog(catalog: diagnosis.SignatureCatalog, path: Path,
                   n_metrics: int) -> diagnosis.SignatureCatalog:
    """The --catalog of a retrieve action, read from path; a ValueError says
    what is wrong."""
    if not len(catalog):
        raise ValueError(f"{path}: catalog is empty")
    if catalog.attributions.shape[1] != n_metrics:
        raise ValueError(f"{path}: catalog entries have {catalog.attributions.shape[1]} "
                         f"attributions, the metrics log has {n_metrics} metrics")
    return catalog


# --policy name -> the name of its function in statops.repairs
_POLICIES = {
    "escalation": "escalation_policy",
    "do-nothing": "always_do_nothing",
    "always-replace": "always_replace",
}


def _parse_watchdogs(specs: list[str]) -> tuple[repairs.WatchdogSpec, ...]:
    import statops.repairs as repairs

    out = []
    for raw in specs:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"--watchdog must be NAME:FP:FN, got '{raw}'")
        if any(spec.name == parts[0] for spec in out):
            raise ValueError(f"--watchdog names must be distinct, '{parts[0]}' repeats")
        try:
            rates = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"--watchdog FP and FN must be numbers, got '{raw}'") from None
        for what, rate in zip(("FP", "FN"), rates):
            if not 0 <= rate < 1:
                raise ValueError(f"--watchdog {what} must lie in [0, 1), got {rate} in '{raw}'")
        try:
            out.append(repairs.WatchdogSpec(parts[0], *rates))
        except ValueError as exc:  # the rates are checked above: the name
            raise ValueError(f"--watchdog: {exc}") from None
    return tuple(out)


def _cmd_repair_sim(args: argparse.Namespace) -> int:
    if args.machines < 1:
        return _fail(f"--machines must be >= 1, got {args.machines}")
    if args.ticks < 1:
        return _fail(f"--ticks must be >= 1, got {args.ticks}")
    for flag in ("transient_rate", "persistent_rate", "warning_rate"):
        rate = getattr(args, flag)
        if not 0 <= rate <= 1:
            return _fail(f"--{flag.replace('_', '-')} must lie in [0, 1], got {rate}")
    import statops.repairs as repairs

    watchdogs = _parse_watchdogs(args.watchdog) if args.watchdog else (repairs.WatchdogSpec("wd0"),)
    model = repairs.FaultModel(
        transient_rate=args.transient_rate,
        persistent_rate=args.persistent_rate,
        watchdogs=watchdogs,
        warning_rate=args.warning_rate,
    )
    policy = getattr(repairs, _POLICIES[args.policy])
    log = repairs.simulate(args.machines, model, policy, args.ticks, args.seed)
    out = Path(args.out)
    _write(out, repairs.serialize_repair_log(log))
    _write(Path(str(out) + ".truth"), repairs.serialize_fault_truth(log))
    print(f"wrote {out} and {out}.truth (machines={args.machines}, ticks={args.ticks}, seed={args.seed})")
    return _EXIT_OK


def _cmd_repair_mine(args: argparse.Namespace) -> int:
    if args.lookahead < 0:
        return _fail(f"--lookahead must be >= 0, got {args.lookahead}")
    if not 0 <= args.downtime_cost < math.inf:
        return _fail(f"--downtime-cost must be a finite number >= 0, got {args.downtime_cost}")
    import statops.repairs as repairs

    log = _load(Path(args.log), repairs.parse_repair_log, "log file")
    # the default <log>.truth is optional, an explicit --truth is not
    truth_path = Path(args.truth or args.log + ".truth")
    if args.truth or truth_path.is_file():
        log.truth = _load(truth_path, repairs.parse_fault_truth, "truth file")

    echo = {"lookahead": args.lookahead, "downtime_cost": args.downtime_cost}
    out_dir = Path(args.out)
    rates = repairs.estimate_watchdog_fpr(log, lookahead=args.lookahead)
    lines = ["watchdog,n_reports,n_errors,n_suspected_false,estimated_fp_rate,"
             "suspected_per_error,true_fp_rate"]
    for name in sorted(rates):
        r = rates[name]
        lines.append(",".join([
            name, str(r.n_reports), str(r.n_errors), str(r.n_suspected_false),
            repr(r.estimated_fp_rate), repr(r.suspected_per_error),
            "" if r.true_fp_rate is None else repr(r.true_fp_rate),
        ]))
    _write(out_dir / "watchdogs.csv", _config_comment(echo) + "".join(l + "\n" for l in lines))

    cost_model = repairs.CostModel(downtime_cost_per_tick=args.downtime_cost)
    metrics = repairs.evaluate_policy(log, cost_model)
    payload = {
        "availability": metrics.availability,
        "total_cost": metrics.total_cost,
        "mean_time_to_healthy": metrics.mean_time_to_healthy,
    }
    _write(out_dir / "policy.json", _json_report(payload, echo))
    return _EXIT_OK


def _read_floats(line: str) -> list[float]:
    return [float(v) for v in line.split()]


def _cmd_stats(args: argparse.Namespace) -> int:
    import statops.stats as stats

    text = sys.stdin.read()
    if args.which == "bh":
        p_values = _read_floats(text)
        selection = stats.bh_select(p_values, args.alpha)
        naive = sum(1 for p in p_values if p <= args.alpha)
        expected_fp = stats.expected_false_positives(selection.m, args.alpha)
        payload = {
            "m": selection.m,
            "alpha": selection.alpha,
            "threshold": selection.threshold,
            "n_rejected": len(selection.rejected_indices),
            "rejected_indices": sorted(selection.rejected_indices),
            "q_values": [float(q) for q in selection.q_values],
            "naive_rejections": naive,
            "expected_false_positives": expected_fp,
            "expected_false_proportion": expected_fp / naive if naive else None,
        }
    else:  # ks
        lines = [l for l in text.splitlines() if l.strip()]
        if len(lines) != 2:
            return _fail("stats ks expects two lines on stdin: sample a, sample b")
        a, b = _read_floats(lines[0]), _read_floats(lines[1])
        d = stats.ks_statistic(stats.empirical_cdf(a), stats.empirical_cdf(b))
        p = stats.ks_p_value(d, len(a), len(b))
        payload = {"statistic": d, "p_value": p, "n_a": len(a), "n_b": len(b)}
    out = _json_report(payload, {"alpha": args.alpha})
    if args.out:
        _write(Path(args.out), out)
    else:
        sys.stdout.write(out)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="statops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace plus ground-truth sidecar")
    p.add_argument("spec", help="generator spec file")
    p.add_argument("--seed", type=_seed, help="override the spec file's seed")
    p.add_argument("--out", required=True, help="output trace path (sidecar at <out>.truth)")
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("discover", help="mine dependency graph from trace files")
    p.add_argument("traces", nargs="+", help="per-host trace files")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--min-samples", type=int, default=10)
    p.add_argument("--method", choices=["ks", "log-odds", "both"], default="ks")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("diagnose", help="train/diagnose SLO violations from a metrics log")
    p.add_argument("metrics", help="metrics CSV (ts,art_ms,<metric...>)")
    p.add_argument("--slo-threshold", type=float, required=True)
    p.add_argument("--actions", default="train,signatures,cluster")
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--catalog", help="signature catalog (JSONL) for retrieve")
    p.add_argument("--query-epoch", type=float, help="epoch timestamp to query for retrieve")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("repair-sim", help="simulate the fault/repair loop")
    p.add_argument("--machines", type=int, default=20)
    p.add_argument("--ticks", type=int, default=500)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--policy", choices=sorted(_POLICIES), default="escalation")
    p.add_argument("--transient-rate", type=float, default=0.0)
    p.add_argument("--persistent-rate", type=float, default=0.0)
    p.add_argument("--warning-rate", type=float, default=0.0)
    p.add_argument("--watchdog", action="append", metavar="NAME:FP:FN",
                   help="repeatable watchdog spec (default wd0:0:0)")
    p.add_argument("--out", required=True, help="output log path (sidecar at <out>.truth)")
    p.set_defaults(func=_cmd_repair_sim)

    p = sub.add_parser("repair-mine", help="mine a repair log for watchdog and policy metrics")
    p.add_argument("log", help="repair log file")
    p.add_argument("--truth", help="ground-truth sidecar (default <log>.truth when present)")
    p.add_argument("--lookahead", type=int, default=20)
    p.add_argument("--downtime-cost", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_repair_mine)

    p = sub.add_parser("stats", help="bh/ks primitives on stdin lists, for scripting")
    p.add_argument("which", choices=["bh", "ks"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a ValueError or OSError from any command is an input error: exit 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
