"""Worker processes shared by the replication study and the CSV reader and writer.

A pool has one worker per usable CPU, forked when its first task is
submitted, so a worker starts from the caller's memory as it was then,
copy-on-write: what the caller hands the pool's ``initializer`` is
inherited, not pickled.  Tasks run through an ordered map that keeps at most
``LOOKAHEAD`` tasks per worker submitted but not yet taken and yields the
results in task order, so what the caller builds from them does not depend
on the worker count, and at most that many results wait in memory.  With one
CPU, where ``fork`` is not available, or inside a daemonic process, there is
one worker, and the map is the builtin ``map``, which runs each call in the
calling process when its result is taken.

Importing this module loads neither ``multiprocessing`` nor
``concurrent.futures``; a pool loads them when it starts.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from functools import partial
from itertools import islice

from .errors import WorkerLost

#: tasks per worker submitted ahead of the result the caller takes next
LOOKAHEAD = 2


def worker_count(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: one per usable CPU, at most one per task."""
    # without an affinity call (macOS, Windows) the work stays in one
    # process: macOS lists fork but its system libraries are not fork-safe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus == 1:
        return 1
    import multiprocessing  # here, so that importing the package stays fast

    # a daemonic process, such as a multiprocessing.Pool worker, may not
    # start processes of its own
    if multiprocessing.current_process().daemon:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(cpus, tasks)


@contextlib.contextmanager
def ordered_map(workers: int, initializer=None, initargs=()):
    """Yield a ``map`` that runs its calls in ``workers`` processes and yields
    their results in call order.

    With one worker it is the builtin ``map``, and ``initializer`` is not
    called.  Otherwise it is the map of a pool whose workers each run
    ``initializer(*initargs)`` when they start; it keeps ``LOOKAHEAD``
    calls per worker submitted and submits the next as each result is
    taken.  A call's exception is raised where its result is taken, and a
    worker that dies (killed, say) raises ``WorkerLost`` there.  Exit
    cancels the calls not yet started and joins the workers, also when the
    caller raises or stops taking results.
    """
    if workers == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )
    try:
        yield partial(_bounded_map, pool, workers * LOOKAHEAD)
    finally:
        pool.shutdown(cancel_futures=True)


def _bounded_map(pool, ahead: int, fn, *iterables):
    from concurrent.futures.process import BrokenProcessPool

    calls = zip(*iterables)
    try:
        pending = deque(pool.submit(fn, *args) for args in islice(calls, ahead))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, *args) for args in islice(calls, 1))
            yield result
    except BrokenProcessPool:
        raise WorkerLost(
            "a worker process ended abruptly (killed by a signal, or out of "
            "memory) before it returned its result"
        ) from None
