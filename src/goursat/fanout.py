"""Run independent tasks in shares, one share per process, by fork.

The caller splits the task indices into shares.  Share 0 runs in the
calling process; each other share runs in a forked child, which sends its
results, or the exception it raised, back down a pipe as one pickle and
leaves by os._exit.  Only `verify` loads this module, so that
the other commands do not compile it.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable


class DeadWorker(Exception):
    """A worker process ended without sending its share's results; the
    message names its signal or exit status."""


def _run_share(fn: Callable, tasks: list, share: list[int]) -> list[tuple[int, object]]:
    return [(i, fn(tasks[i])) for i in share]


def _fork_share(fn: Callable, tasks: list, share: list[int]) -> tuple[int, int] | None:
    """Start a child process that runs the share and sends its results;
    (pid, read end of its pipe), or None if no process could be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    # The child: it never returns to the caller, and os._exit leaves
    # without flushing the stdout buffer that it inherited.  It exits 0
    # only once the whole payload is sent.
    code = 1
    try:
        os.close(r)
        try:
            payload = _run_share(fn, tasks, share)
        except BaseException as exc:  # raised again in the parent
            payload = exc
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(payload, pipe)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, r: int):
    """Read a child's pickle to EOF and reap the child; its payload, or a
    DeadWorker naming how it ended if it sent none."""
    with os.fdopen(r, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and data:
        return pickle.loads(data)
    return DeadWorker(f"signal {-code}" if code < 0 else f"exit status {code}")


def fan_out(fn: Callable, tasks: list, shares: list[list[int]]) -> list:
    """[fn(task) for task in tasks], with share 0 run in this process and
    each other share in a forked child; where no child can be started,
    this process runs its share too.

    An exception in this process's share propagates once every child is
    killed and reaped.  One raised in a child is raised here once every
    child is reaped.  A child that ended without sending its results
    raises DeadWorker.
    """
    children = []
    results = [None] * len(tasks)
    try:
        local = list(shares[0])
        for share in shares[1:]:
            child = _fork_share(fn, tasks, share)
            if child is None:
                local += share
            else:
                children.append(child)
        for i, result in _run_share(fn, tasks, local):
            results[i] = result
        payloads = []
        while children:
            payloads.append(_collect(*children.pop(0)))
    finally:
        for pid, r in children:  # only on an exception: stop and reap the rest
            os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)
    for payload in payloads:
        if isinstance(payload, BaseException):
            raise payload
        for i, result in payload:
            results[i] = result
    return results
