import multiprocessing
import os
import time

import numpy as np
import pytest

import mvcreg._pool
from mvcreg._pool import LOOKAHEAD, ordered_map, worker_count


def slow_square(i):
    """``i * i`` after a pause that makes later tasks finish first."""
    time.sleep(0.002 * (i % 3))
    return i * i


def daemonic_map():
    """What the pool does inside a daemonic process; sent to a pool by name."""
    workers = worker_count(8)
    with ordered_map(workers, slow_square) as run:
        return workers, list(run(range(8)))


def test_worker_count_follows_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert worker_count(1000) == cpus
    assert worker_count(2) == min(cpus, 2)


def test_one_cpu_runs_in_the_calling_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert worker_count(1000) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # macOS and Windows have no affinity call
    assert worker_count(1000) == 1


def test_no_fork_runs_in_the_calling_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert worker_count(1000) == 1


def test_daemonic_process_runs_in_the_calling_process():
    # a daemonic pool worker may not start processes, so its map is the builtin one
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(daemonic_map).get(timeout=60)
    assert got == (1, [i * i for i in range(8)])


def test_one_worker_is_the_builtin_map():
    # the calls run in the calling process, each when its result is taken
    pids = []

    def square(i):
        pids.append(os.getpid())
        return i * i

    with ordered_map(1, square) as run:
        results = run(range(3))
        assert isinstance(results, map) and pids == []
        assert list(results) == [0, 1, 4]
    assert pids == [os.getpid()] * 3


@pytest.mark.parametrize("workers", [2, 3])
def test_bounded_map_keeps_its_look_ahead(workers):
    # count the calls the map has pulled from its arguments (submitted) and
    # the results the caller has taken; the difference never exceeds the
    # look-ahead, and the results come in call order
    submitted = 0

    def calls(n):
        nonlocal submitted
        for i in range(n):
            submitted += 1
            yield i

    in_flight = []
    results = []
    with ordered_map(workers, slow_square) as run:
        for result in run(calls(40)):
            results.append(result)
            in_flight.append(submitted - len(results))
    assert results == [i * i for i in range(40)]
    assert max(in_flight) == workers * LOOKAHEAD
    assert in_flight[-1] == 0


def test_caller_that_stops_early_leaves_no_worker():
    with ordered_map(2, slow_square) as run:
        for i, result in enumerate(run(range(1000))):
            if i == 3:
                break
    assert multiprocessing.active_children() == []


def test_initializer_runs_in_every_worker_only():
    # the workers inherit the mapped function through the pool's initializer,
    # unpickled: a lambda closing over an array cannot be pickled; the
    # calling process binds it nowhere in the pool module
    table = np.arange(12.0).reshape(6, 2)
    fn = lambda i: (os.getpid(), table[i].tolist())  # noqa: E731
    with ordered_map(2, fn) as run:
        got = list(run(range(6)))
        assert all(value is not fn for value in vars(mvcreg._pool).values())
    assert [row for _, row in got] == table.tolist()
    assert os.getpid() not in {pid for pid, _ in got}
