"""The forked worker of ``discover`` and ``diagnose --actions retrieve``.

``cli._map_forked`` runs contiguous chunks of a job list in one process per
usable CPU, each pinned to its own CPU of the mask.  Whatever that count, the
commands must write the bytes of the plain loop, fail with its error and exit
code, and leave no child behind and the caller's mask as it was.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from statops import cli, discovery
from statops.cli import main
from test_golden_discover import EDGE03, SRV01, SRV02
from test_golden_diagnose import _write_metrics


# Collected before any test runs, so a test's pins cannot change it.
two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="needs an affinity mask of 2 or more CPUs")


@pytest.fixture(autouse=True)
def no_child_left():
    mask = os.sched_getaffinity(0)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # _map_forked restores the mask it was shown; under _use_cpus that is a
    # fake one, which the kernel narrows to the CPUs that exist
    os.sched_setaffinity(0, mask)


def _use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _tree_digests(root) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _traces(tmp_path, specs, seed=11) -> list[str]:
    paths = []
    for h, text in enumerate(specs):
        spec = tmp_path / f"host{h}.spec"
        spec.write_text(text, encoding="utf-8")
        trace = tmp_path / f"host{h}.trace"
        assert main(["gen-trace", str(spec), "--seed", str(seed), "--out", str(trace)]) == 0
        paths.append(str(trace))
    return paths


def _host_spec(host: str) -> str:
    return (f"kind=trace host={host} duration=60 seed=0\n"
            "kind=channel dir=in service=http remote=lb01 rate=2.0\n"
            "kind=channel dir=out service=sql remote=db01 rate=1.0\n"
            "kind=dep in_service=http in_remote=lb01 out_service=sql out_remote=db01 "
            "mean_delay=0.05 prob=0.9\n")


def _discover_all_formats(paths, out) -> None:
    for fmt in ("json", "dot"):
        assert main(["discover", *paths, "--format", fmt, "--out", str(out / fmt)]) in (0, 1)


def _retrieve(metrics, catalog, out, epoch="1234.5") -> int:
    return main(["diagnose", str(metrics), "--slo-threshold", "200.0", "--actions", "retrieve",
                 "--catalog", str(catalog), "--query-epoch", epoch, "--out", str(out)])


def test_map_forked_keeps_input_order(monkeypatch):
    _use_cpus(monkeypatch, 4)
    for n in range(9):
        assert cli._map_forked(lambda x: x * x, range(n)) == [x * x for x in range(n)]


def test_map_forked_reruns_a_child_that_dies(monkeypatch):
    _use_cpus(monkeypatch, 4)
    parent = os.getpid()

    def job(x):
        if os.getpid() != parent:
            os._exit(3)
        return {"x": x}

    assert cli._map_forked(job, range(7)) == [{"x": x} for x in range(7)]


@two_cpus
def test_map_forked_pins_each_chunk_to_its_own_cpu():
    mask = os.sched_getaffinity(0)
    first, second = cli._map_forked(lambda x: sorted(os.sched_getaffinity(0)), range(2))
    assert len(first) == len(second) == 1 and first != second
    assert {*first, *second} <= mask
    assert os.sched_getaffinity(0) == mask


@two_cpus
@pytest.mark.parametrize("fails", ["nothing", "child-exits", "parent-raises"])
def test_map_forked_restores_the_mask(fails):
    mask = os.sched_getaffinity(0)
    parent = os.getpid()

    def job(x):
        if fails == "child-exits" and os.getpid() != parent:
            os._exit(3)
        if fails == "parent-raises" and os.getpid() == parent:
            raise KeyError(x)
        return x

    if fails == "parent-raises":
        with pytest.raises(KeyError):
            cli._map_forked(job, range(2))
    else:
        assert cli._map_forked(job, range(2)) == [0, 1]
    assert os.sched_getaffinity(0) == mask


def test_a_refused_pin_still_runs_its_chunk_in_its_child(monkeypatch):
    mask = os.sched_getaffinity(0)
    real_mask = os.sched_getaffinity
    # CPU ids past any kernel's limit: every child's pin is refused
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, *range(1 << 16, (1 << 16) + 3)})
    parent = os.getpid()
    runs = cli._map_forked(lambda x: (os.getpid(), real_mask(0)), range(4))
    assert runs[0][0] == parent
    assert len({pid for pid, _ in runs[1:]} - {parent}) == 3  # no chunk rerun by the parent
    assert all(cpus == mask for _, cpus in runs[1:])  # left unpinned


@two_cpus
def test_a_map_nested_in_the_main_chunk_runs_in_process():
    parent = os.getpid()

    def job(x):
        return cli._map_forked(lambda y: os.getpid(), range(2)) if os.getpid() == parent else []

    assert cli._map_forked(job, range(2))[0] == [parent, parent]


def test_discover_in_process_leaves_the_mask_as_it_was(tmp_path):
    paths = _traces(tmp_path, (SRV01, SRV02, EDGE03))
    mask = os.sched_getaffinity(0)
    assert main(["discover", *paths, "--out", str(tmp_path / "report")]) in (0, 1)
    assert os.sched_getaffinity(0) == mask


def test_discover_and_retrieve_bytes_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path):
    paths = _traces(tmp_path, (SRV01, SRV02, EDGE03))
    metrics = tmp_path / "metrics.csv"
    _write_metrics("long-narrow", 11, metrics)
    trees = []
    for n in (1, 2, 4):
        _use_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        _discover_all_formats(paths, out)
        assert main(["diagnose", str(metrics), "--slo-threshold", "200.0",
                     "--actions", "signatures", "--out", str(out / "diagnose")]) == 0
        catalog = out / "diagnose" / "signatures.jsonl"
        assert _retrieve(metrics, catalog, out / "retrieve") == 0
        trees.append(_tree_digests(out))
    assert len(trees[0]) == 6
    assert trees[1] == trees[0] and trees[2] == trees[0]


def test_discover_child_that_dies_gives_the_serial_bytes(monkeypatch, tmp_path):
    paths = _traces(tmp_path, (SRV01, SRV02, EDGE03))
    _use_cpus(monkeypatch, 1)
    _discover_all_formats(paths, tmp_path / "serial")
    parent = os.getpid()
    local_dependencies = discovery.local_dependencies

    def dies_in_a_child(trace, config):
        if os.getpid() != parent:
            os._exit(3)
        return local_dependencies(trace, config)

    monkeypatch.setattr(discovery, "local_dependencies", dies_in_a_child)
    _use_cpus(monkeypatch, 4)
    _discover_all_formats(paths, tmp_path / "forked")
    assert _tree_digests(tmp_path / "forked") == _tree_digests(tmp_path / "serial")


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("malformed", [(1, 5), (5,)], ids=["2nd-and-6th", "6th"])
def test_discover_names_the_first_malformed_trace(cpus, malformed, monkeypatch, tmp_path,
                                                  capsys):
    paths = _traces(tmp_path, [_host_spec(f"h{i}") for i in range(8)])
    for i in malformed:
        with open(paths[i], "a", encoding="utf-8") as f:
            f.write("ts=oops host=x\n")
    _use_cpus(monkeypatch, cpus)
    capsys.readouterr()
    out = tmp_path / "report"
    assert main(["discover", *paths, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[malformed[0]]}: line ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_retrieve_reports_read_errors_in_the_serial_order(cpus, monkeypatch, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    _write_metrics("long-narrow", 3, metrics)
    assert main(["diagnose", str(metrics), "--slo-threshold", "200.0",
                 "--actions", "signatures", "--out", str(tmp_path / "made")]) == 0
    catalog = tmp_path / "made" / "signatures.jsonl"
    entries = catalog.read_text(encoding="utf-8").splitlines()
    catalog.write_text("\n".join(["{oops", *entries]) + "\n", encoding="utf-8")
    _use_cpus(monkeypatch, cpus)
    capsys.readouterr()
    out = tmp_path / "out"

    assert _retrieve(metrics, catalog, out) == 2
    assert capsys.readouterr().err == (f"error: {catalog}: line 1: bad JSON: Expecting property "
                                       "name enclosed in double quotes\n")
    lines = metrics.read_text(encoding="utf-8").splitlines()
    metrics.write_text("\n".join([*lines[:3], lines[3] + ",1.0", *lines[4:]]) + "\n",
                       encoding="utf-8")
    assert _retrieve(metrics, catalog, out) == 2
    assert capsys.readouterr().err.startswith(f"error: {metrics}: line 4: ")
    assert not out.exists()


def test_a_hosts_rows_do_not_depend_on_the_other_hosts(monkeypatch, tmp_path):
    # The forked worker splits discover's traces across processes; that only
    # keeps the bytes if each host's null sample comes from its own stream,
    # not from a generator shared across the hosts of a run.
    _use_cpus(monkeypatch, 1)
    first, second, third = _traces(tmp_path, (SRV01, SRV02, EDGE03), seed=29)

    def srv01_rows(paths, name):
        out = tmp_path / name
        assert main(["discover", *paths, "--seed", "7", "--out", str(out)]) in (0, 1)
        rows = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()[2:]
        return [row for row in rows if row.startswith("srv01,")]

    alone = srv01_rows([first], "alone")
    assert len(alone) == 9
    assert srv01_rows([first, second, third], "first") == alone
    assert srv01_rows([second, third, first], "last") == alone

