"""The ``python -m statops`` entry sets the process up before numpy loads.

Each case imports a module in a fresh interpreter that notes
``OPENBLAS_NUM_THREADS`` as numpy's import starts.  Importing
``statops.__main__`` must ask for one OpenBLAS thread unless the caller
chose a count (an empty value chooses none), and must leave the cyclic GC
on with the import heap frozen;
importing ``statops.cli`` must change neither the environment nor the GC.
A command ends its process without interpreter finalization, so fresh
processes check that piped output arrives whole and each exit code is kept,
and that a stdin or stdout closed at start gives an error line, not a
traceback.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statops

SRC = str(Path(statops.__file__).resolve().parents[1])

PROBE = """\
import gc, json, os, sys

class NumpyWatch:  # notes the environment as numpy's import starts
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpyWatch())
import {module}
task = "/proc/self/task"
print(json.dumps({{
    "at_numpy_import": NumpyWatch.seen,
    "after": os.environ.get("OPENBLAS_NUM_THREADS"),
    "gc_enabled": gc.isenabled(),
    "frozen": gc.get_freeze_count(),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


def _probe(module: str, blas_threads: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_entry_sets_one_blas_thread_before_numpy_and_freezes_the_import_heap():
    for blas_threads in (None, ""):  # OpenBLAS reads an empty value as unset
        state = _probe("statops.__main__", blas_threads)
        assert state["at_numpy_import"] == ["1"], blas_threads
        assert state["after"] == "1"
        assert state["gc_enabled"] and state["frozen"] > 0
        # no BLAS worker thread: a fork in _map_forked copies a one-thread process
        assert state["threads"] in (1, None)


def test_entry_keeps_a_blas_thread_count_the_caller_set():
    state = _probe("statops.__main__", "4")
    assert state["at_numpy_import"] == ["4"]
    assert state["after"] == "4"


@pytest.mark.parametrize("module", ["statops", "statops.cli"])
def test_library_import_leaves_environment_and_gc_alone(module):
    state = _probe(module, None)
    assert state["at_numpy_import"] in ([], [None])  # ``import statops`` loads no numpy
    assert state["after"] is None
    assert state["gc_enabled"] and state["frozen"] == 0


def _run(args: list[str], stdin: str = "", close_stdout: bool = False):
    """``python -m statops`` in a fresh process with piped, buffered streams."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "statops", *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if close_stdout:
        proc.stdout.close()  # before the command writes: its flush meets a closed pipe
    out, err = proc.communicate(stdin.encode())
    return proc.returncode, out.decode() if out else "", err.decode()


def test_piped_output_arrives_whole_and_exit_codes_are_kept(tmp_path):
    p_values = [k / 20_000 for k in range(20_000)]  # a report larger than a pipe's buffer
    code, out, err = _run(["stats", "bh"], " ".join(map(repr, p_values)))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["m"] == 20_000 and len(report["q_values"]) == 20_000

    trace = tmp_path / "in-only.trace"
    trace.write_text("ts=1 host=h remote=x service=http dir=in\n", encoding="utf-8")
    code, out, err = _run(["discover", str(trace), "--out", str(tmp_path / "report")])
    assert (code, out) == (1, "")
    assert err == "warning: at least one host had no testable channel pairs\n"

    code, out, err = _run(["stats", "bh"], "0.1 x")
    assert (code, out, err) == (2, "", "error: stdin: line 1: bad p-value 'x' "
                                       "(want a number in [0, 1])\n")


def test_a_closed_stdout_is_an_output_error_not_a_traceback():
    code, _, err = _run(["stats", "bh"], "0.1 0.2", close_stdout=True)
    assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("which", ["bh", "ks"])
def test_a_stream_closed_at_start_is_an_error_line_not_a_traceback(which, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(redirect: str, *flags: str):
        command = ["sh", "-c", f'"$@" {redirect}', "sh",
                   sys.executable, "-m", "statops", "stats", which, *flags]
        proc = subprocess.run(command, input=b"0.1 0.2\n0.3 0.4\n", capture_output=True,
                              env=env)
        return proc.returncode, proc.stderr.decode()

    assert run(">&-") == (2, "error: stdout is closed: name a report file with --out\n")
    assert run("<&-") == (2, "error: stdin is closed: stats reads its samples there\n")
    out = tmp_path / "report.json"
    assert run(">&-", "--out", str(out)) == (0, "") and json.loads(out.read_text())
