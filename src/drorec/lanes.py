"""Two thread lanes for work that splits into independent parts.

NumPy releases the interpreter lock inside BLAS calls and its array loops,
so a second thread can run one part of a computation while the calling
thread runs another.  Each part is computed exactly as it would be on one
thread, and every sum across parts is left to the caller, so results do
not depend on the number of lanes.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_held = threading.Lock()        # taken while `each` uses the lane thread
_lane = None                    # the lane thread's one-thread pool, started on first use


def _reset() -> None:
    """A forked child has no lane thread, and nothing holds its lanes."""
    global _held, _lane
    _held, _lane = threading.Lock(), None


if hasattr(os, "register_at_fork"):       # no fork on Windows
    os.register_at_fork(after_in_child=_reset)


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


def halves(n: int) -> list[slice]:
    """Rows 0..n as one part per lane: two halves, the first the larger, with
    two lanes free and at least two rows; otherwise all rows in one part."""
    if n < 2 or count() < 2 or _held.locked():
        return [slice(0, n)]
    mid = (n + 1) // 2
    return [slice(0, mid), slice(mid, n)]


def each(calls: list) -> list:
    """The results of one or two calls.  With two lanes free, the second
    call runs on the process's one lane thread while the first runs on this
    one, and the lanes are held until both have ended, on a failure too.
    Otherwise, as for calls made inside either call or on other threads
    meanwhile, they run here, in order."""
    global _lane
    if len(calls) < 2 or count() < 2 or not _held.acquire(blocking=False):
        return [call() for call in calls]
    try:
        if _lane is None:
            _lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="drorec-lane")
        first, second = calls
        future = _lane.submit(second)
        try:
            result = first()
        finally:
            wait([future])
        return [result, future.result()]
    finally:
        _held.release()
