"""verify's cases run in forked workers beside the parent: the report does
not depend on the worker count, a worker that dies fails the cases it took,
no worker outlives run_verify or its parent, and nothing imports
multiprocessing.  runner.WORKERS is the worker count; a test sets it."""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from orbitforge import cli, runner
from test_cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "golden" / "verify_default.json"


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [0, 1, 2, 3])
def test_default_report_does_not_depend_on_the_worker_count(workers, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", workers)
    path = tmp_path / "verify.json"
    code, out, err = run_cli("verify", "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == BASELINE.read_bytes()
    assert [line.split(":")[0] for line in err.splitlines()] == [f"suite {s}" for s in sorted(cli.SUITES)]
    _no_child_left()


def test_mini_run_is_the_same_with_one_and_two_workers(tmp_path, monkeypatch):
    reports = []
    for workers in (0, 1, 2):
        monkeypatch.setattr(runner, "WORKERS", workers)
        path = tmp_path / f"{workers}.json"
        code, _, _ = run_cli("verify", "--max-n", "4", "--suites", "golden,zeta,saturation", "--output", str(path))
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert json.loads(reports[0])["passed"]


def _case(parent, fault, i):
    """Sleeps long enough in the parent for the worker to take a case; in
    the worker, ends the process as fault says."""
    if os.getpid() != parent:
        if fault == "exit":
            os._exit(3)
        if fault == "signal":
            os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.3)
    return {"i": i}


class _TruncatingPickle:
    """pickle as a worker would see it if its report were cut short."""
    loads = staticmethod(pickle.loads)

    @staticmethod
    def dumps(obj):
        return pickle.dumps(obj)[:-3]


@pytest.mark.parametrize("fault, how", [
    ("exit", "wait status 768 (exit code 3)"),
    ("signal", "wait status 9 (killed by signal 9)"),
    ("truncated", "wait status 0 (exit code 0, report unreadable ("),
])
def test_a_worker_that_dies_fails_the_cases_it_took(fault, how, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 1)
    if fault == "truncated":
        monkeypatch.setattr(runner, "pickle", _TruncatingPickle)
    parent = os.getpid()
    monkeypatch.setitem(cli.SUITES, "golden",
                        lambda config: [(f"case {i}", partial(_case, parent, fault, i)) for i in range(4)])
    path = tmp_path / "verify.json"
    code, _, _ = run_cli("verify", "--suites", "golden", "--output", str(path))
    suite = json.loads(path.read_text())["suites"]["golden"]
    assert code == 1 and suite["cases"] == 4 and suite["failed"] >= 1
    for key, outcome in suite["outcomes"].items():
        if outcome["status"] == "pass":
            assert outcome["detail"] == {"i": int(key.split()[1])}
        else:
            assert outcome["witness"].startswith("WorkerLost: no process reported this case; worker ")
            assert how in outcome["witness"]
    _no_child_left()


def _raise(exc, only_in):
    """Raises exc in the process only_in (in every process if None); sleeps
    elsewhere."""
    if only_in in (None, os.getpid()):
        raise exc
    time.sleep(30)


def test_no_worker_outlives_run_verify(monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 2)
    parent = os.getpid()
    config = cli.VerifyConfig(suites=("golden",))
    # on return, with a case that raises in every process
    monkeypatch.setitem(cli.SUITES, "golden", lambda config: [(str(i), partial(_raise, ValueError("no"), None))
                                                              for i in range(6)])
    report = cli.run_verify(config)
    assert report["suites"]["golden"]["failed"] == 6
    _no_child_left()
    # on KeyboardInterrupt in the parent, while the workers are busy
    monkeypatch.setitem(cli.SUITES, "golden", lambda config: [(str(i), partial(_raise, KeyboardInterrupt, parent))
                                                              for i in range(6)])
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli.run_verify(config)
    assert time.perf_counter() - t0 < 10
    _no_child_left()


ORPHAN = """
import os, sys, time
from orbitforge import runner

runner.WORKERS = 1

def case(i):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()} {i}\\n")
    time.sleep(0.1)

runner.run_cases([(str(i), lambda i=i: case(i)) for i in range(40)])
"""


def test_a_worker_whose_parent_is_gone_stops(tmp_path):
    log = tmp_path / "log"
    log.touch()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN, str(log)], env=env)
    worker = None
    try:
        deadline = time.monotonic() + 30
        while worker is None and time.monotonic() < deadline:
            pids = {int(line.split()[0]) for line in log.read_text().splitlines()}
            worker = next(iter(pids - {proc.pid}), None)
            time.sleep(0.05)
        assert worker is not None, "no worker took a case"
        proc.kill()
        proc.wait()
        time.sleep(0.5)   # the case the worker is in ends within 0.1 s
        ran = log.read_text().count("\n")
        time.sleep(1.0)   # 10 more cases' worth, had it gone on
        assert log.read_text().count("\n") == ran < 40
    finally:
        proc.kill()
        proc.wait()
        if worker is not None:
            try:
                os.kill(worker, signal.SIGKILL)
            except ProcessLookupError:
                pass


FOOTPRINT = """
import json, sys
from orbitforge import cli, runner

runner.WORKERS = 1
report = cli.run_verify(cli.VerifyConfig(suites=("golden", "zeta")))
print(json.dumps([report["passed"], "multiprocessing" in sys.modules, "concurrent.futures" in sys.modules]))
"""


def test_verify_imports_neither_multiprocessing_nor_concurrent_futures():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, False, False]


def test_a_fork_that_fails_leaves_the_cases_to_the_parent(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(runner, "WORKERS", 2)
    monkeypatch.setattr(os, "fork", no_fork)
    report = cli.run_verify(cli.VerifyConfig(max_n=4, suites=("zeta",)))
    assert report["passed"] and report["suites"]["zeta"]["cases"] > 1
    _no_child_left()
