"""The one case runner and its two library clients.

runner.run_cases runs every case once and returns the outcomes in the
cases' order whatever the worker count; its queue write cannot block, at
any number of cases; a call inside a case of another run forks nothing;
each forked worker runs on one CPU of the parent's mask other than the
parent's, unless there is none to place it on, and no run changes the
parent's mask.
enveloping.character_kills_commutators and casimir run their loops through
it and give the serial loop's verdicts with 0 to 3 workers: planted faults
are caught under each count, and a pair lost with its worker raises instead
of returning a verdict.  No child process is left after a return or a raise.
runner.WORKERS is the worker count; a test sets it.  The two loops fork one
worker per enveloping.TERM_PRODUCTS_PER_WORKER products, more than the
small algebras here have, so a fixture sets it to 1 except where a test
checks the default cap."""

import json
import os
import select
import signal
import struct
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from orbitforge import enveloping, runner
from orbitforge.cli import W_SUITE_CASES
from orbitforge.enveloping import (WSetup, augmentation_character, casimir, casimir_element,
                                   character_kills_commutators)
from orbitforge.orbits import build_nilpotent
from orbitforge.partitions import Partition
from test_cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
WORKER_COUNTS = (0, 1, 2, 3)
CASIMIR_CASES = (((2, 1, 1), -1), ((2, 2, 1), 1))   # the casimir suite: sp4 and so5


DEFAULT_PER_WORKER = enveloping.TERM_PRODUCTS_PER_WORKER


@pytest.fixture(autouse=True)
def _every_worker_pays(monkeypatch):
    monkeypatch.setattr(enveloping, "TERM_PRODUCTS_PER_WORKER", 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _setup(parts, eps):
    return WSetup(build_nilpotent(Partition(parts), eps))


# -- the runner ----------------------------------------------------------------


def _pid_and(i):
    return [os.getpid(), i]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025, 3001])
def test_every_case_runs_once_and_comes_back_in_order(n, workers, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", workers)
    out = runner.run_cases([(f"k{i}", partial(_pid_and, i)) for i in range(n)])
    assert list(out) == [f"k{i}" for i in range(n)]
    assert [o["detail"][1] for o in out.values()] == list(range(n))
    assert all(o["status"] == "pass" for o in out.values())
    assert runner._active is False
    _no_child_left()


MANY = """
import json, sys
from orbitforge import runner

runner.WORKERS = int(sys.argv[1])
n = int(sys.argv[2])
out = runner.run_cases([(i, lambda i=i: i) for i in range(n)])
print(json.dumps([len(out), [o["detail"] for o in out.values()] == list(range(n))]))
"""


@pytest.mark.parametrize("workers", [0, 1])
def test_more_cases_than_a_pipe_holds_indices_do_not_block(workers):
    # one 4-byte index per case would fill a 64 KiB pipe at 16,384 cases and block the queue write
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", MANY, str(workers), "20000"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [20000, True]


def test_the_queue_fits_the_smallest_pipe_buffer():
    assert runner.QUEUE_ITEM.size * runner.QUEUE_ITEMS <= 4096


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _inner(n):
    time.sleep(0.05)   # leaves the parent cases of its own to take
    inner = [o["detail"] for o in runner.run_cases([(j, os.getpid) for j in range(n)]).values()]
    return {"pid": os.getpid(), "inner": inner, "active_after": runner._active}


def test_a_run_inside_a_case_forks_nothing(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(runner, "WORKERS", 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    parent = os.getpid()
    out = runner.run_cases([(i, partial(_inner, 5)) for i in range(8)])
    assert len(forks) == 2   # the outer run's workers, and no more in the parent
    pids = {o["detail"]["pid"] for o in out.values()}
    assert parent in pids and pids <= {parent, *forks}
    for o in out.values():   # a worker's inner cases ran in that worker
        assert o["detail"]["inner"] == [o["detail"]["pid"]] * 5
        assert o["detail"]["active_after"] is True   # the inner run left the outer one active
    assert runner._active is False
    _no_child_left()


def test_a_run_after_a_raise_forks_again(monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "WORKERS", 1)
    with pytest.raises(KeyboardInterrupt):
        runner.run_cases([(0, interrupt), (1, interrupt)])
    assert runner._active is False
    _no_child_left()
    out = runner.run_cases([(i, partial(_pid_after, 0.2)) for i in range(3)])
    assert len({o["detail"] for o in out.values()}) == 2
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_w_suites_give_the_same_report_with_any_worker_count(workers, tmp_path, monkeypatch):
    path = tmp_path / "verify.json"
    monkeypatch.setattr(runner, "WORKERS", 0)
    code, _, _ = run_cli("verify", "--suites", "walgebra,casimir", "--output", str(path))
    assert code == 0
    want = path.read_bytes()
    monkeypatch.setattr(runner, "WORKERS", workers)
    code, _, _ = run_cli("verify", "--suites", "walgebra,casimir", "--output", str(path))
    assert code == 0 and path.read_bytes() == want
    _no_child_left()


# -- placement -------------------------------------------------------------------


MEETING_S = 30


def _read_within(fd, n):
    if not select.select([fd], [], [], MEETING_S)[0]:
        raise TimeoutError(f"nothing to read in {MEETING_S} s")
    return os.read(fd, n)


@pytest.fixture
def meeting():
    """meeting(processes) gives that many cases, each of which reports the
    pid and sorted affinity mask of the process that runs it once every one
    of `processes` processes holds a case: no process takes a second case
    before all have taken one, so with the parent and processes - 1 workers
    each process runs exactly one.  A wait longer than MEETING_S raises, so
    a worker that never comes fails the test instead of hanging it.  Its
    pipes close after the test."""
    fds = []
    host = os.getpid()

    def cases(processes):
        arrive_r, arrive_w = os.pipe()
        go_r, go_w = os.pipe()
        fds.extend((arrive_r, arrive_w, go_r, go_w))

        def meet():
            here = os.getpid()
            os.write(arrive_w, struct.pack("<i", here))
            if here == host:
                seen = set()
                while len(seen) < processes:
                    seen.add(struct.unpack("<i", _read_within(arrive_r, 4))[0])
                os.write(go_w, b"x" * (processes - 1))
            else:
                _read_within(go_r, 1)
            return here, sorted(os.sched_getaffinity(0))

        return [(i, meet) for i in range(processes)]

    yield cases
    for fd in fds:
        os.close(fd)


def _spy_current_cpu(monkeypatch) -> list:
    """The CPUs runner._current_cpu reported, one per call, in this process."""
    seen = []
    real = runner._current_cpu
    monkeypatch.setattr(runner, "_current_cpu", lambda: seen.append(real()) or seen[-1])
    return seen


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_worker_runs_on_a_cpu_other_than_the_parents(workers, meeting, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", workers)
    forks = _counting_forks(monkeypatch)
    cpus = _spy_current_cpu(monkeypatch)
    mask = sorted(os.sched_getaffinity(0))
    out = runner.run_cases(meeting(workers + 1))
    _no_child_left()
    if len(mask) < 2:
        pytest.skip("one CPU: nothing to place")
    reported = dict(o["detail"] for o in out.values())
    assert set(reported) == {os.getpid(), *forks} and len(cpus) == 1
    assert reported.pop(os.getpid()) == mask == sorted(os.sched_getaffinity(0))
    for placed in reported.values():
        assert len(placed) == 1 and placed[0] in mask and placed[0] != cpus[0]
    if workers <= len(mask) - 1:
        assert len({tuple(m) for m in reported.values()}) == workers


def _raise(exc):
    raise exc


@pytest.mark.parametrize("ending", ["return", "case raises", "KeyboardInterrupt"])
def test_the_parents_mask_is_never_changed(ending, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 3)
    mask = os.sched_getaffinity(0)
    cases = [(i, partial(_pid_after, 0.01)) for i in range(6)]
    if ending == "case raises":
        cases[-1] = (5, partial(_raise, ValueError("planted")))
    if ending == "KeyboardInterrupt":   # in every case, so that the parent meets one
        cases = [(i, partial(_raise, KeyboardInterrupt())) for i in range(6)]
        with pytest.raises(KeyboardInterrupt):
            runner.run_cases(cases)
    else:
        out = runner.run_cases(cases)
        assert [o["status"] for o in out.values()].count("fail") == (ending == "case raises")
    assert os.sched_getaffinity(0) == mask
    _no_child_left()


def _masks_around_a_nested_run():
    before = sorted(os.sched_getaffinity(0))
    runner.run_cases([(j, os.getpid) for j in range(3)])
    return os.getpid(), before, sorted(os.sched_getaffinity(0))


def test_a_nested_run_leaves_the_mask_alone(monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 2)
    cpus = _spy_current_cpu(monkeypatch)
    mask = sorted(os.sched_getaffinity(0))
    out = runner.run_cases([(i, _masks_around_a_nested_run) for i in range(6)])
    for pid, before, after in (o["detail"] for o in out.values()):
        assert before == after
        assert (before == mask) is (pid == os.getpid()) or len(mask) == 1
    assert len(cpus) == 1   # the parent's nested runs read no CPU
    assert sorted(os.sched_getaffinity(0)) == mask
    _no_child_left()


ONE_CPU = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from orbitforge import runner

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
runner.WORKERS = 1
placed, calls = [], []
real_place, real_set = runner._worker_cpus, os.sched_setaffinity
runner._worker_cpus = lambda: placed.append(real_place()) or placed[-1]
os.sched_setaffinity = lambda pid, mask: calls.append(sorted(mask)) or real_set(pid, mask)
out = runner.run_cases([(i, lambda: (os.getpid(), sorted(os.sched_getaffinity(0)), calls)) for i in range(2)])
print(json.dumps([placed, sorted(os.sched_getaffinity(0)), [o["status"] for o in out.values()],
                  [o["detail"] for o in out.values()]]))
"""


def test_a_one_cpu_mask_places_nothing():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", ONE_CPU, str(ROOT / "src")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    placed, mask, statuses, details = json.loads(proc.stdout)
    assert placed == [[]] and len(mask) == 1 and statuses == ["pass", "pass"]
    for _, case_mask, calls in details:   # whichever process ran the case, nothing moved it
        assert case_mask == mask and calls == []


def _unreadable():
    raise OSError("planted: no /proc/self/stat")


def test_an_unreadable_cpu_places_nothing(meeting, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 2)
    monkeypatch.setattr(runner, "_current_cpu", _unreadable)
    forks = _counting_forks(monkeypatch)
    mask = sorted(os.sched_getaffinity(0))
    out = runner.run_cases(meeting(3))
    assert all(o["status"] == "pass" for o in out.values())
    reported = dict(o["detail"] for o in out.values())
    assert set(reported) == {os.getpid(), *forks}
    assert all(m == mask for m in reported.values())
    _no_child_left()


# -- character_kills_commutators ---------------------------------------------------


def _serial_verdict(setup, c):
    """The loop character_kills_commutators ran before it used the runner."""
    for i in range(setup.r):
        for j in range(i + 1, setup.r):
            if enveloping._pair_value(setup, c, i, j) != 0:
                return False
    return True


def _wrong_character(setup):
    """The augmentation character with 1 added to c of the first degree-2 generator."""
    c = dict(augmentation_character(setup))
    k = next(k for k in range(setup.r) if setup.x_degrees[k] == 2)
    c[k] += 1
    return c


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("parts, eps", W_SUITE_CASES, ids=str)
def test_character_verdicts_do_not_depend_on_the_worker_count(parts, eps, workers, monkeypatch):
    setup = _setup(parts, eps)
    good, wrong = augmentation_character(setup), _wrong_character(setup)
    assert (_serial_verdict(setup, good), _serial_verdict(setup, wrong)) == (True, False)
    monkeypatch.setattr(runner, "WORKERS", workers)
    assert character_kills_commutators(setup, good) is True
    _no_child_left()
    assert character_kills_commutators(setup, wrong) is False
    _no_child_left()


def test_the_costliest_pairs_are_queued_first(monkeypatch):
    seen = []
    real = runner.run_cases

    def spy(cases, most=None):
        seen.append([k for k, _ in cases])
        return real(cases, most)

    monkeypatch.setattr(runner, "run_cases", spy)
    setup = _setup((2, 2, 1), 1)
    assert character_kills_commutators(setup, augmentation_character(setup))
    terms = [len(setup.thetas[k].value) for k in range(setup.r)]
    cost = [terms[i] * terms[j] for i, j in seen[0]]
    # run_cases starts from the last case
    assert cost == sorted(cost) and len(seen[0]) == setup.r * (setup.r - 1) // 2


def _killed_in_a_worker(parent, real, *args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.05)   # leaves the worker time to take a pair
    return real(*args)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_lost_worker_makes_the_character_check_raise(workers, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", workers)
    monkeypatch.setattr(enveloping, "_pair_value",
                        partial(_killed_in_a_worker, os.getpid(), enveloping._pair_value))
    setup = _setup((2, 1, 1), -1)
    with pytest.raises(RuntimeError, match=r"commutator pair \(\d+, \d+\) gave no value: WorkerLost: "
                                           r".*killed by signal 9"):
        character_kills_commutators(setup, augmentation_character(setup))
    _no_child_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_pair_that_raises_is_named(workers, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", workers)
    setup = _setup((2, 1, 1), -1)
    c = dict(augmentation_character(setup))
    del c[max(c)]   # the character recursion needs every generator's value
    first = None    # the serial loop's first pair that raises
    for ij in ((i, j) for i in range(setup.r) for j in range(i + 1, setup.r)):
        try:
            enveloping._pair_value(setup, c, *ij)
        except AssertionError:
            first = ij
            break
    assert first is not None
    with pytest.raises(RuntimeError) as err:
        character_kills_commutators(setup, c)
    assert str(err.value) == f"commutator pair {first} gave no value: AssertionError: character recursion out of order"
    _no_child_left()


# -- casimir -----------------------------------------------------------------------


def _casimir_or_error(setup):
    try:
        element, shape = casimir_element(setup), casimir(setup).shape
    except Exception as exc:  # noqa: BLE001 - the error is the result compared
        return f"{type(exc).__name__}: {exc}"
    return element, setup.U.q_mul(element, {(): 1}), shape


@pytest.mark.parametrize("parts, eps", CASIMIR_CASES, ids=str)
def test_casimir_does_not_depend_on_the_worker_count(parts, eps, monkeypatch):
    results = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(runner, "WORKERS", workers)
        results.append(_casimir_or_error(_setup(parts, eps)))
        _no_child_left()
    assert not isinstance(results[0], str) and results[0][2]["shape_ok"]
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("parts, eps", CASIMIR_CASES, ids=str)
def test_a_planted_casimir_fault_gives_the_serial_message(parts, eps, monkeypatch):
    # one entry of the inverse Killing Gram off by 1: C is no longer central
    real_inverse, real_run = enveloping.inverse_rows, runner.run_cases
    checks = []

    def off_by_one(m):
        rows = [dict(row) for row in real_inverse(m)]
        rows[-1][len(rows) - 1] = rows[-1].get(len(rows) - 1, 0) + 1
        return rows

    def spy(cases, most=None):
        checks.append(cases)
        return real_run(cases, most)

    monkeypatch.setattr(enveloping, "inverse_rows", off_by_one)
    monkeypatch.setattr(runner, "run_cases", spy)
    messages = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(runner, "WORKERS", workers)
        messages.append(_casimir_or_error(_setup(parts, eps)))
        _no_child_left()
    least = next(b for b, fn in checks[0] if not fn())   # the serial loop's first failure
    assert messages == [f"AssertionError: Casimir fails to commute with basis element {least}"] * 4


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_casimir_names_the_least_failing_basis_element(workers, monkeypatch):
    # failures on both sides of the queue: the parent starts from the last element
    real = enveloping._commutes

    def fails_at_3_and_9(U, x, y):
        return next(iter(y))[0] not in (3, 9) and real(U, x, y)

    monkeypatch.setattr(runner, "WORKERS", workers)
    monkeypatch.setattr(enveloping, "_commutes", fails_at_3_and_9)
    with pytest.raises(AssertionError, match=r"^Casimir fails to commute with basis element 3$"):
        casimir(_setup((2, 1, 1), -1))
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_lost_worker_makes_casimir_raise(workers, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", workers)
    monkeypatch.setattr(enveloping, "_commutes", partial(_killed_in_a_worker, os.getpid(), enveloping._commutes))
    with pytest.raises(RuntimeError, match=r"Casimir centrality at basis element \d+ gave no verdict: WorkerLost: "):
        casimir(_setup((2, 1, 1), -1))
    _no_child_left()


# -- the work cap -----------------------------------------------------------------


def _counting_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_most_caps_the_worker_count(monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 3)
    forks = _counting_forks(monkeypatch)
    for most, want in ((0, 0), (1, 1), (2, 2), (9, 3)):
        forks.clear()
        out = runner.run_cases([(i, partial(_pid_after, 0.05)) for i in range(8)], most=most)
        assert len(forks) == want and set(out) == set(range(8))
        _no_child_left()


def test_small_certificate_loops_fork_nothing(monkeypatch):
    # sp4: 112 products of theta terms over its pairs, 90 for the Casimir's centrality
    monkeypatch.setattr(enveloping, "TERM_PRODUCTS_PER_WORKER", DEFAULT_PER_WORKER)
    monkeypatch.setattr(runner, "WORKERS", 3)
    forks = _counting_forks(monkeypatch)
    setup = _setup((2, 1, 1), -1)
    assert character_kills_commutators(setup, augmentation_character(setup))
    assert casimir(setup).shape["shape_ok"]
    assert forks == []


@pytest.mark.parametrize("per_worker, want", [(112, 1), (56, 2), (40, 2), (10, 3)])
def test_the_character_check_forks_one_worker_per_share_of_its_work(per_worker, want, monkeypatch):
    monkeypatch.setattr(runner, "WORKERS", 3)
    monkeypatch.setattr(enveloping, "TERM_PRODUCTS_PER_WORKER", per_worker)
    setup = _setup((2, 1, 1), -1)
    c = augmentation_character(setup)
    terms = [len(setup.thetas[k].value) for k in range(setup.r)]
    assert sum(terms[i] * terms[j] for i in range(setup.r) for j in range(i + 1, setup.r)) == 112
    forks = _counting_forks(monkeypatch)
    assert character_kills_commutators(setup, c)
    assert len(forks) == want
    _no_child_left()


@pytest.mark.parametrize("per_worker, want", [(91, 0), (90, 1), (30, 3)])
def test_casimir_forks_one_worker_per_share_of_its_work(per_worker, want, monkeypatch):
    # sp4: dim g = 10 basis elements against the 9 terms of C
    monkeypatch.setattr(runner, "WORKERS", 3)
    monkeypatch.setattr(enveloping, "TERM_PRODUCTS_PER_WORKER", per_worker)
    forks = _counting_forks(monkeypatch)
    assert len(casimir_element(_setup((2, 1, 1), -1))) == 9
    assert len(forks) == want
    _no_child_left()
