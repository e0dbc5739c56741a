"""Worker processes shared by the replication study and the CSV reader and writer.

A pool's map is one-shot: on entry it forks one worker per usable CPU, at
most one per call, and the workers inherit the function and its calls
unpickled.  Of W workers, worker k runs calls k, k + W, k + 2W, ... and
writes each result, or the exception its call raised, pickled and
length-prefixed to its own pipe, of the kernel's default size, where it
waits until the caller, reading the pipes in call order, takes it.  A
worker ends with ``os._exit``, never flushing the output buffers it
inherited.  With one CPU, without ``fork``, or in a daemonic process, the
map is the builtin ``map``.  Nothing here loads ``multiprocessing``.

A worker's peak memory is the caller's at the fork plus what the worker
loads and makes.  A study worker's first draw imports ``numpy.random``,
which in a fresh process adds about 6 MiB, some 3.3 MiB of it OpenSSL's
``libcrypto`` (``numpy.random.bit_generator`` imports ``secrets``, which
imports ``hmac`` and so ``_hashlib``).  So a caller forks holding only what
its workers run.  On Python 3.12 and later, where numpy's BLAS threads make
the caller multi-threaded, each fork may emit one ``DeprecationWarning``
("use of fork() may lead to deadlocks in the child") when warnings are
shown.  No filter hides it; under an ``error`` filter the map still
returns its results, as CPython clears that warning's error.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys

from .errors import MvcregError, WorkerLost


def worker_count(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: one per usable CPU, at most one per task."""
    # no affinity call (macOS, Windows): one process, as macOS's libraries
    # are not fork-safe.  A daemonic process, a multiprocessing.Pool worker
    # say, may not start processes; one without multiprocessing is none
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    mp = sys.modules.get("multiprocessing")
    if cpus == 1 or not hasattr(os, "fork") or (mp and mp.current_process().daemon):
        return 1
    return min(cpus, tasks)


@contextlib.contextmanager
def ordered_map(workers: int, fn, *iterables):
    """Yield the results of ``fn`` mapped over ``iterables`` in ``workers``
    processes, forked on entry, in call order.

    A call's exception is raised, with its type, where its result would be
    taken, and a worker that dies raises ``WorkerLost`` there.  Exit kills
    and reaps every worker, however the context is left.
    """
    if workers == 1:
        yield map(fn, *iterables)
        return
    calls = list(zip(*iterables))
    with contextlib.ExitStack() as children:  # the pipes, kills and reaps of the workers
        readers = [_fork(fn, calls[k::workers], children) for k in range(min(workers, len(calls)))]
        yield (_receive(readers[i % len(readers)]) for i in range(len(calls)))


def _fork(fn, calls: list, children: contextlib.ExitStack):
    """The read end of the pipe of a worker forked to run ``calls`` of ``fn``."""
    import signal

    read_fd, write_fd = os.pipe()
    reader = children.enter_context(open(read_fd, "rb"))
    with open(write_fd, "wb") as writer:  # the caller's copy closes once forked
        pid = os.fork()
        if pid == 0:
            _serve(fn, calls, writer)
    # on exit: kill (an ended worker is a zombie still), reap, add its peak to ru_maxrss
    children.callback(os.waitpid, pid, 0)
    children.callback(os.kill, pid, signal.SIGKILL)
    return reader


def _serve(fn, calls: list, writer) -> None:
    """Run ``calls`` of ``fn`` in a worker, writing each outcome; never returns."""
    try:
        for args in calls:
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:  # raised again where the caller takes it
                outcome = (False, exc)
            try:
                message = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                if not outcome[0]:
                    pickle.loads(message)  # an error the caller could not rebuild
            except Exception as exc:  # is sent as text
                error = MvcregError(f"a worker process could not send {outcome[1]!r}: {exc}")
                message = pickle.dumps((False, error))
            writer.write(len(message).to_bytes(8, "little") + message)
            writer.flush()
    finally:
        os._exit(0)


def _receive(reader):
    """The result of the call whose outcome ``reader`` sends next, or its exception."""
    size = int.from_bytes(reader.read(8), "little")
    message = reader.read(size)
    if size == 0 or len(message) < size:
        raise WorkerLost(
            "a worker process ended abruptly (killed by a signal, or out of "
            "memory) before it returned its result"
        )
    ok, value = pickle.loads(message)
    if not ok:
        raise value
    return value
