"""Two thread lanes for work that splits into independent parts.

NumPy releases the interpreter lock inside BLAS calls and its array loops,
so a second thread can run one part of a computation while the calling
thread runs another.  Each part is computed exactly as it would be on one
thread, and every sum across parts is left to the caller, so results do
not depend on the number of lanes.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_held = threading.Lock()        # taken while a second lane is in use
_local = threading.local()      # .pool: the pool this thread shares with its nested calls


def count() -> int:
    """Lanes to run on: 2 when BLAS is pinned to one thread
    (``OPENBLAS_NUM_THREADS``, or if unset ``OMP_NUM_THREADS``, is "1") and
    at least two CPUs are usable, else 1.  Unpinned, each lane's BLAS would
    start a thread per core, and two lanes ran slower than one."""
    pin = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return 2 if pin == "1" and cpus >= 2 else 1


@contextlib.contextmanager
def worker(share: bool = True):
    """A one-thread pool for the second lane, held until the block ends, or
    None: with one lane (`count`), or while the lanes are held elsewhere.

    With ``share``, calls to `worker` that this thread makes inside the block
    get the same pool, so that one thread serves, say, every step of a
    training run.  Calls from any other thread, the pool's own included, get
    None, so that work started inside a lane stays on that lane and lanes
    never nest.  The pool's thread is joined before the block is left, on an
    exception too.
    """
    shared = getattr(_local, "pool", None)
    if shared is not None:
        yield shared
        return
    if count() < 2 or not _held.acquire(blocking=False):
        yield None
        return
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            _local.pool = pool if share else None
            try:
                yield pool
            finally:
                _local.pool = None
    finally:
        _held.release()


def halves(pool, n: int) -> list[slice]:
    """Rows 0..n as one part per lane: two halves, the first the larger,
    with a pool and at least two rows; otherwise all rows in one part."""
    if pool is None or n < 2:
        return [slice(0, n)]
    mid = (n + 1) // 2
    return [slice(0, mid), slice(mid, n)]


def each(pool, calls: list) -> list:
    """The results of one or two calls.  With a pool the second call runs
    on its thread while the first runs on this one; otherwise they run
    here, in order."""
    if pool is None or len(calls) < 2:
        return [call() for call in calls]
    first, second = calls
    future = pool.submit(second)
    return [first(), future.result()]
