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
    # the later calls finish first; more calls than W run in waves
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
    # call; the children of its wave are reaped before it propagates
    monkeypatch.setattr(workers, "W", 3)

    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        workers.run([interrupted, after(0.2, 1), after(0.1, 2)])


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("W = 1 must not fork")

    monkeypatch.setattr(workers, "W", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert workers.run([os.getpid, os.getpid, os.getpid]) == [os.getpid()] * 3


def test_calls_after_the_first_of_a_wave_run_in_children(monkeypatch):
    monkeypatch.setattr(workers, "W", 2)
    pids = workers.run([os.getpid, os.getpid, os.getpid])
    assert pids[0] == pids[2] == os.getpid() != pids[1]


def test_no_wave_starts_after_the_wave_of_a_failing_call(monkeypatch, tmp_path):
    # waves [0, 1], [2, 3], [4]: call 1 fails, so calls 2-4 never start
    monkeypatch.setattr(workers, "W", 2)

    def touch(k):
        def call():
            (tmp_path / str(k)).touch()
            if k == 1:
                raise ValueError("call 1")
            return k

        return call

    with pytest.raises(ValueError, match="^call 1$"):
        workers.run([touch(k) for k in range(5)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1"]


def test_w_is_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert workers.W == len(os.sched_getaffinity(0))
    assert workers.W >= 1
