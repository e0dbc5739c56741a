import multiprocessing
import os
import time

import pytest

from mvcreg._pool import LOOKAHEAD, ordered_map, worker_count


def slow_square(i):
    """``i * i`` after a pause that makes later tasks finish first; sent to a pool by name."""
    time.sleep(0.002 * (i % 3))
    return i * i


def daemonic_map():
    """What the pool does inside a daemonic process; sent to a pool by name."""
    workers = worker_count(8)
    with ordered_map(workers) as run:
        return workers, list(run(slow_square, range(8)))


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
    with ordered_map(1) as run:
        assert run is map


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
    with ordered_map(workers) as run:
        for result in run(slow_square, calls(40)):
            results.append(result)
            in_flight.append(submitted - len(results))
    assert results == [i * i for i in range(40)]
    assert max(in_flight) == workers * LOOKAHEAD
    assert in_flight[-1] == 0


def test_caller_that_stops_early_leaves_no_worker():
    with ordered_map(2) as run:
        for i, result in enumerate(run(slow_square, range(1000))):
            if i == 3:
                break
    assert multiprocessing.active_children() == []


#: what ``keep`` received in this process
_kept = []


def keep(value):
    _kept.append(value)


def kept(_):
    return [value() for value in _kept]


def test_initializer_runs_in_every_worker_only():
    # fork hands the arguments over without pickling them (a lambda cannot
    # be pickled); the calling process runs no initializer
    with ordered_map(2, keep, (lambda: "inherited",)) as run:
        got = list(run(kept, range(6)))
    assert got == [["inherited"]] * 6
    assert _kept == []
