"""Independent pieces of work on the CPUs this process may use.

``run(calls)`` runs zero-argument calls and returns their values in call
order.  With ``W > 1`` they all run at once: the first call in this
process, every other one in an ``os.fork``ed child of its own, which
pickles its outcome back through a pipe and leaves with ``os._exit``.  Once
every child is reaped, the first exception in call order is raised, so a
failing run raises what running the calls one by one would.  Callers bound
the number of calls: W sampling blocks, the two of ``compare-lme``, at most
``ensemble.FLOW_CAP`` flow builds.  ``W`` is the number of CPUs in the
process's affinity mask, and 1 where ``os.fork`` does not exist; with
``W = 1`` the calls run here one by one and nothing forks.  A forked child
starts from this process's memory, so a call reads whatever state it
closes over, and only its outcome comes back.  A fork copies only the
calling thread; the CLI pins OpenBLAS to one thread, so it has no other.
"""

from __future__ import annotations

import os
import pickle
import signal

if not hasattr(os, "fork"):
    W = 1
elif hasattr(os, "sched_getaffinity"):
    W = len(os.sched_getaffinity(0))
else:
    W = os.cpu_count() or 1


def _outcome(call) -> tuple:
    try:
        return True, call()
    except Exception as exc:
        return False, exc


def _fork(call):
    """Start call in a child; return its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_end)
        os.close(write_end)
        raise RuntimeError(f"cannot start a worker process: {exc}") from exc
    if pid == 0:  # the child: send the outcome, then leave without unwinding the caller
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(_outcome(call), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def run(calls) -> list:
    """The values of calls, in call order; with ``W > 1`` all run at once.

    Each child's outcome is read from its pipe before the child is reaped,
    and every child is reaped on every path.  The first exception in call
    order is raised once every child is reaped; a child that exits without
    an outcome raises ``RuntimeError``, and so does a failed fork, after
    the children already started are reaped.  A ``KeyboardInterrupt`` or
    ``SystemExit`` in this process, in its own call or while it waits,
    kills every child with ``SIGKILL`` before they are reaped.
    """
    if W == 1 or len(calls) < 2:
        return [call() for call in calls]
    children, sent, statuses = [], [], []
    try:
        for call in calls[1:]:
            children.append(_fork(call))
        outcomes = [_outcome(calls[0])]
        for _, pipe in children:
            try:
                sent.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                sent.append(None)
    except (KeyboardInterrupt, SystemExit):
        for pid, _ in children:  # an interrupt does not wait for the calls
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for outcome, status in zip(sent, statuses):
        if status != 0 or outcome is None:
            outcome = False, RuntimeError(
                "a worker process ended without a result "
                f"(exit code {os.waitstatus_to_exitcode(status)})"
            )
        outcomes.append(outcome)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
