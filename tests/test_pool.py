import fcntl
import multiprocessing
import os
import time

import numpy as np
import pytest

import mvcreg._pool
from conftest import children_left
from mvcreg import MvcregError, WorkerLost
from mvcreg._pool import ordered_map, worker_count


def slow_square(i):
    """``i * i`` after a pause that makes later tasks finish first."""
    time.sleep(0.002 * (i % 3))
    return i * i


def daemonic_map():
    """What the pool does inside a daemonic process; sent to a pool by name."""
    workers = worker_count(8)
    with ordered_map(workers, slow_square, range(8)) as results:
        return workers, list(results)


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
    monkeypatch.delattr(os, "fork")
    assert worker_count(1000) == 1


def test_a_worker_forks_no_workers_of_its_own(monkeypatch):
    # a study replication big enough for pooled row sums maps them in its
    # own worker, with no grandchildren
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert worker_count(8) == 3
    with ordered_map(2, worker_count, [8, 8, 8]) as results:
        assert list(results) == [1, 1, 1]
    assert worker_count(8) == 3


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

    with ordered_map(1, square, range(3)) as results:
        assert isinstance(results, map) and pids == []
        assert list(results) == [0, 1, 4]
    assert pids == [os.getpid()] * 3


@pytest.mark.parametrize("workers", [2, 3])
def test_children_run_ahead_by_at_most_a_pipe_of_results(workers, tmp_path):
    # each call appends a byte to a file as it starts, and returns half a
    # pipe of bytes, of the size the kernel gives a new pipe; a child waits
    # once its pipe is full, so per child the calls started run ahead of the
    # results taken by at most the results a pipe holds and the one call
    # that runs or waits to write.  The results come in call order
    started = tmp_path / "started"
    started.touch()
    read_fd, write_fd = os.pipe()
    pipe_bytes = fcntl.fcntl(write_fd, fcntl.F_GETPIPE_SZ)
    os.close(read_fd)
    os.close(write_fd)

    def half_a_pipe(i):
        fd = os.open(started, os.O_WRONLY | os.O_APPEND)
        os.write(fd, b".")
        os.close(fd)
        return bytes([i]) * (pipe_bytes // 2)

    ahead, results = [], []
    with ordered_map(workers, half_a_pipe, range(40)) as mapped:
        for result in mapped:
            time.sleep(0.01)  # the children fill their pipes meanwhile
            results.append(result[0])
            ahead.append(started.stat().st_size - len(results))
    assert results == list(range(40))
    assert 0 < max(ahead) <= workers * (pipe_bytes // len(result) + 1)
    assert ahead[-1] == 0


def test_caller_that_stops_early_leaves_no_worker():
    with ordered_map(2, slow_square, range(1000)) as results:
        for i, result in enumerate(results):
            if i == 3:
                break
    assert children_left() is None


def test_results_and_errors_come_in_call_order():
    # the calls before the failing one give their results, and the error
    # keeps its type and message
    def fails_at_five(i):
        if i == 5:
            raise KeyError(f"call {i}")
        return i * i

    results = []
    with pytest.raises(KeyError, match="call 5"):
        with ordered_map(2, fails_at_five, range(9)) as mapped:
            results.extend(mapped)
    assert results == [i * i for i in range(5)]
    assert children_left() is None


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # pickle cannot send a lambda


class _Unrebuildable(Exception):
    def __init__(self, field, message):  # unpickling calls this with one argument
        super().__init__(f"{field}: {message}")


@pytest.mark.parametrize(
    "error", [_Unpicklable("call 3"), _Unrebuildable("call", "3")], ids=["dumps", "loads"]
)
def test_error_that_does_not_pickle_is_an_mvcreg_error(error):
    def fails_at_three(i):
        if i == 3:
            raise error
        return i

    results = []
    with pytest.raises(MvcregError) as info:
        with ordered_map(2, fails_at_three, range(6)) as mapped:
            results.extend(mapped)
    assert results == [0, 1, 2]
    assert type(info.value) is MvcregError and "worker process" in str(info.value)
    assert children_left() is None


def test_dead_child_is_worker_lost_at_its_turn():
    def dies_at_four(i):
        if i == 4:
            os._exit(1)
        return i

    results = []
    with pytest.raises(WorkerLost):
        with ordered_map(3, dies_at_four, range(9)) as mapped:
            results.extend(mapped)
    assert results == [0, 1, 2, 3]
    assert children_left() is None


def test_workers_inherit_the_function_unpickled():
    # a lambda closing over an array cannot be pickled; the workers run it
    # as they inherited it, and the calling process binds it nowhere in
    # the pool module
    table = np.arange(12.0).reshape(6, 2)
    fn = lambda i: (os.getpid(), table[i].tolist())  # noqa: E731
    with ordered_map(2, fn, range(6)) as mapped:
        got = list(mapped)
        assert all(value is not fn for value in vars(mvcreg._pool).values())
    assert [row for _, row in got] == table.tolist()
    assert os.getpid() not in {pid for pid, _ in got}
    assert len({pid for pid, _ in got}) == 2
