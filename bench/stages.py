"""Run drorec CLI stages as child processes and read their resource usage.

Each stage is its own process, started one at a time, so `os.wait4` gives
that stage's wall time, CPU time, page faults and peak RSS without any
instrumentation inside drorec.  The BLAS thread count is pinned in the
children's environment.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

STAGES = ("simulate", "train-exposure", "train", "evaluate")
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
STAGE_TIMEOUT_S = 170.0
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


class StageError(RuntimeError):
    """A stage process exited with a non-zero status or timed out."""


@dataclass(frozen=True)
class StageRun:
    stage: str
    wall_s: float
    user_s: float
    sys_s: float
    minflt: int
    peak_rss_mb: float


def child_env(src_dir: Path) -> dict[str, str]:
    """The environment for stage processes: drorec on the path, BLAS pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def stage_argv(stage: str, config: Path, out_dir: Path,
               spans_path: Path | None = None) -> list[str]:
    """Command line of one stage; with spans_path it runs under the tracer."""
    args = [stage, "--config", str(config), "--out", str(out_dir)]
    if spans_path is None:
        return [sys.executable, "-m", "drorec.cli", *args]
    return [sys.executable, str(TRACED_CLI), str(spans_path), "--", *args]


def run_process(stage: str, argv: list[str], env: dict[str, str],
                log_path: Path, timeout: float = STAGE_TIMEOUT_S) -> StageRun:
    """Run one child to completion and return its wall time and rusage."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").splitlines()[-15:]
        raise StageError(f"{stage} exited with {proc.returncode} after {wall:.1f} s:\n"
                         + "\n".join(tail))
    return StageRun(stage=stage, wall_s=wall, user_s=usage.ru_utime,
                    sys_s=usage.ru_stime, minflt=usage.ru_minflt,
                    peak_rss_mb=usage.ru_maxrss / 1024.0)
