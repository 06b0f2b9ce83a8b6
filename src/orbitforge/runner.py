"""One case runner for verify's suites and the W layer's certificate loops.

run_cases(cases) takes a list of (key, fn) and returns {key: outcome}, an
outcome being {"status": "pass", "detail": fn()} or {"status": "fail",
"witness": ...}.  The process and WORKERS forked workers take the cases from
one pipe.  Its clients are cli.run_verify, one suite per call, and two loops
of enveloping: character_kills_commutators, one case per pair of generators,
and casimir, one case per basis element for its centrality.  These two cap
their workers by the size of their work.

Each worker moves itself onto one CPU of the parent's affinity mask other
than the one the parent ran on at the fork, worker n onto the n-th of those
CPUs, sorted, round robin.  Left to itself the kernel kept a forked worker on
its parent's CPU: on a 2-CPU host every case of the lattice suites reported
CPU 1 for the parent and for its worker, so the two shared one CPU and the
fork only cost (a pure-Python loop run by the parent and by one worker took
0.36-0.39 s, as long as running it twice in one process; with the worker
placed, 0.18 s).  The parent's own mask is never changed, and placement is a
hint: with a one-CPU mask, with no os.sched_setaffinity, or when the
parent's CPU cannot be read from /proc/self/stat, nothing is placed, and no
outcome, order or witness depends on it.

A call made while a run is already active in the same process (the parent
while it drains cases, or any forked worker) takes the same drain loop with
no worker, so its cases run in that process: nested calls never fork a
grandchild.  Only os, pickle, signal and
struct are used; os.fork, os.pipe and os.sched_setaffinity appear in no
other module.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from functools import partial


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# Forked workers that run cases beside the parent: one per CPU the process
# may run on, beyond the first; none where there is no os.fork.
WORKERS = _cpus() - 1 if hasattr(os, "fork") else 0
# One queue item: the first index of a chunk of consecutive cases.  A run
# writes at most QUEUE_ITEMS items, 4 KiB, the smallest buffer Linux gives a
# pipe, so the parent writes the whole queue before any process reads it and
# that write cannot block, whatever the number of cases.
QUEUE_ITEM = struct.Struct("<I")
QUEUE_ITEMS = 1024

_active = False   # a run is active in this process: nested calls fork no worker


def run_cases(cases, most=None):
    """cases: list of (key, fn); returns {key: outcome} in the cases' order.
    most, if given, caps the worker count: a caller that can size its work
    passes how many workers that work pays for.

    The parent and min(WORKERS, len(cases) - 1, most) forked workers (none
    for a call made inside a case of another run), each worker placed on a
    CPU other than the parent's, take chunks of case indices
    from one pipe, last case first: sweeps grow with N, so the longest cases
    start first and the short ones fill in.  Each worker
    sends {index: outcome} back through its own pipe with pickle and leaves
    by os._exit.  A case that no process reports fails, its witness naming
    the wait status of every worker that did not exit 0 with a readable
    report.  The workers are reaped before this returns or raises; on an
    exception in the parent (KeyboardInterrupt too) they are killed first."""
    global _active
    if len({k for k, _ in cases}) != len(cases):
        raise ValueError("duplicate case keys")
    workers = min(WORKERS, len(cases) - 1, WORKERS if most is None else most)
    nested, _active = _active, True
    try:
        return _fork_and_drain(cases, 0 if nested else workers)
    finally:
        _active = nested


def _current_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat (there
    is no os.sched_getcpu).  Raises OSError where that file cannot be read."""
    with open("/proc/self/stat", "rb") as fh:
        stat = fh.read()
    # the command name, field 2, is in parentheses and may hold spaces
    return int(stat[stat.rindex(b")") + 2:].split()[36])


def _worker_cpus() -> list:
    """The sorted CPUs of this process's mask other than the one it runs on,
    for its workers to take in turn; [] where nothing is to be placed."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    try:
        mask = os.sched_getaffinity(0)
        return sorted(mask - {_current_cpu()}) if len(mask) > 1 else []
    except OSError:
        return []


def _fork_and_drain(cases, workers_wanted):
    parent = os.getpid()
    cpus = _worker_cpus() if workers_wanted else []
    size = max(1, -(-len(cases) // QUEUE_ITEMS))
    queue, feed = os.pipe()
    os.write(feed, b"".join(QUEUE_ITEM.pack(s) for s in reversed(range(0, len(cases), size))))
    os.close(feed)
    drain = partial(_drain, cases, size, queue, parent)
    workers, reports = {}, {}   # pid -> read end of its pipe; pid -> bytes it sent
    try:
        for n in range(workers_wanted):
            result, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: the parent runs what is left
                os.close(result)
                os.close(sink)
                break
            if pid == 0:
                _work(drain, sink, cpus[n % len(cpus)] if cpus else None)
            os.close(sink)
            workers[pid] = result
        outcomes = dict(drain())
        for pid, result in workers.items():
            reports[pid] = b"".join(iter(partial(os.read, result, 1 << 16), b""))
    finally:
        os.close(queue)
        for pid, result in workers.items():
            os.close(result)
            if pid not in reports:
                os.kill(pid, signal.SIGKILL)
        statuses = {pid: os.waitpid(pid, 0)[1] for pid in workers}
    lost = []
    for pid, status in statuses.items():
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        if code == 0:
            try:
                outcomes.update(pickle.loads(reports[pid]))
                continue
            except Exception as exc:  # noqa: BLE001 - a truncated report loses the worker's cases
                how += f", report unreadable ({type(exc).__name__}: {exc})"
        lost.append(f"worker {pid} ended with wait status {status} ({how})")
    witness = "WorkerLost: no process reported this case" + "".join(f"; {w}" for w in lost)
    return {k: outcomes.get(i, {"status": "fail", "witness": witness}) for i, (k, _) in enumerate(cases)}


def _drain(cases, size, queue, parent):
    """(index, outcome) of each case of the chunks taken from queue, until
    it is empty.  A worker also stops, before its next case, once its parent
    is gone."""
    while item := os.read(queue, QUEUE_ITEM.size):
        start, = QUEUE_ITEM.unpack(item)
        for i in reversed(range(start, min(start + size, len(cases)))):
            if os.getpid() != parent and os.getppid() != parent:
                return
            yield i, _guard(cases[i][1])


def _work(drain, sink, cpu):
    """A forked worker: moves itself onto cpu unless it is None (an OSError
    from that move leaves it where it is), runs drain(), writes the pickled
    {index: outcome} to sink and exits 0; any other exception exits 1.  It
    leaves by os._exit, so the stdio buffers it shares with the parent are
    not flushed twice."""
    code = 1
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
        with os.fdopen(sink, "wb") as fh:
            fh.write(pickle.dumps(dict(drain())))
        code = 0
    finally:
        os._exit(code)


def _guard(fn):
    try:
        out = fn()
        return {"status": "pass", "detail": out if out is not None else {}}
    except Exception as exc:  # noqa: BLE001 - failures become report witnesses
        return {"status": "fail", "witness": f"{type(exc).__name__}: {exc}"}
