"""`fan_out(fn, items)`: `[fn(item) for item in items]` on every CPU.

The items are dealt round-robin into one share per CPU this process may
run on.  The parent computes the first share and forks one worker for
each further share; it forks none with one CPU, without `os.fork`, or
while another thread runs.  A worker sends its results back through a
pipe with `marshal` and ends through `os._exit`.  A share stops at its
first raising item, and the parent computes again, in item order, every
item left without a result (after that stop, or in the share of a worker
that died, sent nothing usable or could not be started), so the results
and the first error are those of the list comprehension.  Every worker
is reaped before `fan_out` returns or raises; on an error or an
interrupt they are killed first.

`fn` must return plain data that `marshal` can send, and never None,
which marks an item without a result.  What `fn` caches in a worker dies
with it.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Callable, Sequence


def fan_out(fn: Callable, items: Sequence) -> list:
    """`[fn(item) for item in items]`, computed by one process per CPU."""
    count = _worker_count(len(items))
    if count < 2:
        return [fn(item) for item in items]
    shares = _shares(len(items), count)
    results = [None] * len(items)
    workers = []  # (pid, pipe, share)
    try:
        for share in shares[1:]:
            try:
                workers.append(_fork_worker(fn, items, share))
            except OSError:
                break  # out of processes or pipes: the shares left are computed below
        for pos, result in zip(shares[0], _run_share(fn, items, shares[0])):
            results[pos] = result
        for _, pipe, share in workers:
            for pos, result in zip(share, _decode(pipe.read(), len(share))):
                results[pos] = result
    except BaseException:
        from signal import SIGKILL
        for pid, _, _ in workers:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe, _ in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return [result if result is not None else fn(items[pos])
            for pos, result in enumerate(results)]


def _worker_count(items: int) -> int:
    """One per CPU this process may run on, capped at `items`.  Only the
    parent (1) without `os.fork` or while another thread runs: a forked
    child gets only the forking thread, so a lock that another thread
    holds would stay locked in it."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(len(affinity(0)), items)


def _shares(total: int, count: int) -> list[range]:
    """`count` shares of the item positions, dealt round-robin, so that
    items whose cost grows along the list spread evenly."""
    return [range(first, total, count) for first in range(count)]


def _run_share(fn: Callable, items: Sequence, share: range) -> list:
    """The results of a share's items, in order, up to its first raising
    item, which `fan_out` computes again."""
    done = []
    try:
        for pos in share:
            done.append(fn(items[pos]))
    except Exception:
        pass
    return done


def _fork_worker(fn: Callable, items: Sequence, share: range):
    """Fork a worker for `share`: it sends `_run_share` through a pipe
    with `marshal` and ends through `os._exit`, never writing to or
    flushing the stdio buffers it inherited."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                marshal.dump(_run_share(fn, items, share), pipe)
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb"), share


def _decode(data: bytes, size: int) -> list:
    """A worker's results, or none if what it sent is unusable."""
    try:
        done = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return []
    return done if isinstance(done, list) and len(done) <= size else []
