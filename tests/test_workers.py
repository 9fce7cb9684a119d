"""Forked workers: values in call order, the first error in call order, no child left behind."""

import os
import signal
import time

import numpy as np
import pytest

from usctraj import workers


@pytest.fixture(autouse=True)
def no_child_left_behind():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def after(seconds, value):
    def call():
        time.sleep(seconds)
        return value

    return call


def fail_after(seconds, message):
    def call():
        time.sleep(seconds)
        raise ValueError(message)

    return call


@pytest.mark.parametrize("w", [1, 2, 3])
def test_results_come_back_in_call_order(monkeypatch, w):
    # the later calls finish first; with W > 1 all five run at once
    monkeypatch.setattr(workers, "W", w)
    calls = [after(0.05 * (4 - k), np.arange(k)) for k in range(5)]
    values = workers.run(calls)
    assert len(values) == 5
    for k, value in enumerate(values):
        np.testing.assert_array_equal(value, np.arange(k), strict=True)
    assert workers.run([]) == []


@pytest.mark.parametrize("w", [1, 2, 3])
def test_the_first_error_in_call_order_is_raised(monkeypatch, w):
    # call 2 fails at once, call 1 later: call 1's error is raised
    monkeypatch.setattr(workers, "W", w)
    with pytest.raises(ValueError, match="^first$"):
        workers.run([after(0.0, "a"), fail_after(0.3, "first"), fail_after(0.0, "second")])
    with pytest.raises(ValueError, match="^first$"):
        workers.run([fail_after(0.3, "first"), fail_after(0.0, "second")])
    assert workers.run([after(0.0, 1), after(0.0, 2)]) == [1, 2]


def test_a_child_killed_without_a_result_gives_a_runtime_error(monkeypatch):
    monkeypatch.setattr(workers, "W", 2)

    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="without a result"):
        workers.run([after(0.0, "parent"), killed])
    assert time.perf_counter() - start < 10.0


def test_children_are_reaped_when_the_parent_call_raises(monkeypatch):
    # an exception that is not an outcome (an interrupt) leaves the parent's
    # call; the children are reaped before it propagates
    monkeypatch.setattr(workers, "W", 3)

    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        workers.run([interrupted, after(0.2, 1), after(0.1, 2)])


def test_an_interrupt_kills_the_children_without_waiting_for_their_calls(monkeypatch):
    # the child would sleep 30 s; the interrupt kills it, and the autouse
    # fixture finds it reaped
    monkeypatch.setattr(workers, "W", 2)

    def interrupted():
        raise KeyboardInterrupt

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        workers.run([interrupted, after(30.0, 1)])
    assert time.perf_counter() - start < 5.0


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("W = 1 must not fork")

    monkeypatch.setattr(workers, "W", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert workers.run([os.getpid, os.getpid, os.getpid]) == [os.getpid()] * 3


def test_every_call_after_the_first_runs_in_a_child_of_its_own(monkeypatch):
    # more calls than W: no waves, each later call forks at once
    monkeypatch.setattr(workers, "W", 2)
    pids = workers.run([os.getpid] * 4)
    assert pids[0] == os.getpid()
    assert len(set(pids[1:])) == 3 and os.getpid() not in pids[1:]


def test_every_call_runs_and_the_first_error_is_raised_once_all_are_reaped(
    monkeypatch, tmp_path
):
    # call 1 fails at once, the others later: all five still run, and call
    # 1's error is raised after every child is reaped
    monkeypatch.setattr(workers, "W", 2)

    def touch(k):
        def call():
            if k == 1:
                raise ValueError("call 1")
            time.sleep(0.1)
            (tmp_path / str(k)).touch()
            return k

        return call

    with pytest.raises(ValueError, match="^call 1$"):
        workers.run([touch(k) for k in range(5)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "2", "3", "4"]


def test_a_failed_fork_is_a_runtime_error_once_the_started_children_are_reaped(monkeypatch):
    # the first fork succeeds, the second fails: the one child started is
    # reaped before the error propagates (the autouse fixture checks it)
    monkeypatch.setattr(workers, "W", 3)
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(RuntimeError, match="^cannot start a worker process: .*unavailable$"):
        workers.run([after(0.0, 0), after(0.2, 1), after(0.0, 2)])
    assert len(forks) == 2


def test_w_is_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert workers.W == len(os.sched_getaffinity(0))
    assert workers.W >= 1
