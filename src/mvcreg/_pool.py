"""Worker processes shared by the replication study, the CSV reader and writer, and the fit.

A pool's map is one-shot: on entry it forks one worker per usable CPU, at
most one per call, and the workers inherit the function and its calls
unpickled.  Of W workers, worker k runs calls k, k + W, k + 2W, ... and
writes each result, or the exception its call raised, pickled and
length-prefixed to its own pipe, of the kernel's default size, where it
waits until the caller, reading the pipes in call order, takes it.  A
worker ends with ``os._exit``, never flushing the output buffers it
inherited.  With one CPU, without ``fork``, in a daemonic process or in a
worker, the map is the builtin ``map``, so pools do not nest.  Nothing
here loads ``multiprocessing``.

A worker's peak memory is the caller's private memory at the fork, plus
the rows of shared mappings it touches, plus what the worker loads and
makes.  A study worker's first draw imports ``numpy.random``,
which in a fresh process adds about 6 MiB, some 3.3 MiB of it OpenSSL's
``libcrypto`` (``numpy.random.bit_generator`` imports ``secrets``, which
imports ``hmac`` and so ``_hashlib``).  So a caller forks holding only what
its workers run.  On Python 3.12 and later, where numpy's BLAS threads make
the caller multi-threaded, each fork may emit one ``DeprecationWarning``
("use of fork() may lead to deadlocks in the child") when warnings are
shown.  No filter hides it; under an ``error`` filter the map still
returns its results, as CPython clears that warning's error.

The work over the rows of a table maps one function over its blocks: in
forked workers from ``_POOL_MIN_CELLS`` cells on, else in the calling
process (:func:`chunk_map`).  A table the workers write lives, from the
same size on, in an anonymous shared mapping (:func:`table_empty`), and
the work over a table in such a mapping runs in workers
(:func:`table_map`).  Linux ``fork`` copies no page-table entry of a
shared mapping, so a worker maps only the rows it touches, and the rows a
worker writes are the caller's without a copy.  So the CSV reader's
workers parse their blocks into y, x and p in place and send back row
counts, and the fit's row-block sums run in workers that read their own
rows and send back sums: the caller touches only what it reads itself.
A table in the caller's own memory is summed by the caller, as a worker
would only map the caller's pages again.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import sys

import numpy as np

from .errors import MvcregError, WorkerLost

#: cells below which work over the rows of a table runs in the calling
#: process.  CLI wall on two CPUs (s, median of 13 alternating runs,
#: serial/pooled CSV render and parse):
#:   cells      100k       200k       300k       400k       500k
#:   simulate   0.27/0.26  0.32/0.32  0.41/0.40  0.39/0.32  0.41/0.36
#:   fit        0.22/0.20  0.29/0.26  0.30/0.32  0.26/0.23  0.26/0.25
#: A fork costs little, but below ~400k cells the gain is within the spread.
_POOL_MIN_CELLS = 500_000

#: whether this process is a worker of a pool, where every map is ``map``
_in_worker = False


def worker_count(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: one per usable CPU, at most one
    per task, and one in a worker of a pool, which forks no workers of its own."""
    # no affinity call (macOS, Windows): one process, as macOS's libraries
    # are not fork-safe.  A daemonic process, a multiprocessing.Pool worker
    # say, may not start processes; one without multiprocessing is none
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    mp = sys.modules.get("multiprocessing")
    daemonic = mp and mp.current_process().daemon
    if _in_worker or cpus == 1 or not hasattr(os, "fork") or daemonic:
        return 1
    return min(cpus, tasks)


def chunk_map(cells: int, fn, chunks, *iterables):
    """``fn`` mapped over ``chunks`` and ``iterables`` by :func:`ordered_map`
    from ``_POOL_MIN_CELLS`` cells on, else by ``map``, as a context."""
    if cells < _POOL_MIN_CELLS:
        return contextlib.nullcontext(map(fn, chunks, *iterables))
    return ordered_map(worker_count(len(chunks)), fn, chunks, *iterables)


def table_map(table: np.ndarray, fn, chunks):
    """``fn`` mapped over ``chunks`` of the rows of ``table``, as a context:
    by :func:`ordered_map` if ``table`` lives in a :func:`table_empty`
    mapping, whose rows each worker reads in place, else by ``map``."""
    if not is_shared(table):
        return contextlib.nullcontext(map(fn, chunks))
    return ordered_map(worker_count(len(chunks)), fn, chunks)


class _SharedMap(mmap.mmap):
    """An anonymous shared mapping that :func:`table_empty` made."""


def table_empty(cells: int, shape: tuple[int, ...]) -> np.ndarray:
    """A writeable, uninitialised float array of ``shape`` for a table of
    ``cells`` cells that :func:`chunk_map` of ``cells`` writes.

    From ``_POOL_MIN_CELLS`` cells on it lives in a new anonymous shared
    mapping, so what a worker forked after it writes there the caller reads.
    Below that it is numpy's own memory: the benchmark's ``fit-wide``, in
    one process, peaked 0.3 MiB higher with mappings.
    """
    return _empty(shape, cells >= _POOL_MIN_CELLS)


def table_like(table: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A writeable, uninitialised float array of ``shape`` that lives where
    ``table`` does: in a new shared mapping if ``table`` is in one of
    :func:`table_empty`, else in numpy's own memory."""
    return _empty(shape, is_shared(table))


def _empty(shape: tuple[int, ...], shared: bool) -> np.ndarray:
    if not shared:
        return np.empty(shape)
    size = math.prod(shape)
    return np.ndarray(shape, float, _SharedMap(-1, max(8 * size, 1)))  # no mapping is empty


def is_shared(values: np.ndarray) -> bool:
    """Whether the memory of the array ``values`` is a :func:`table_empty` mapping."""
    while isinstance(values, np.ndarray):
        values = values.base
    return isinstance(values, _SharedMap)


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
    global _in_worker
    _in_worker = True
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
