"""Host probe recorded with every result.

``nproc`` and the affinity set say how many CPUs the process may use; the
measured two-process CPU-burn scaling says how much parallel capacity the
host really delivers (a 2-CPU VM can scale like one core); the timer
resolution bounds what a single timing can resolve.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: A pure-Python loop of roughly 0.1-0.2 s. Each burner prints its own
#: monotonic start and end, so interpreter start-up is not counted.
_BURN = (
    "import time\n"
    "start = time.monotonic()\n"
    "total = 0\n"
    "for i in range(2_000_000):\n"
    "    total += i\n"
    "print(start, time.monotonic())\n"
)


def _burn(n_procs: int) -> float:
    """Wall span of ``n_procs`` concurrent burners, start to last end."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BURN], stdout=subprocess.PIPE, text=True
        )
        for _ in range(n_procs)
    ]
    stamps = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"CPU burner exited with {proc.returncode}")
            stamps.append(tuple(float(v) for v in out.split()))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return max(end for _, end in stamps) - min(start for start, _ in stamps)


def _timer_step() -> float:
    """Smallest non-zero difference between consecutive perf_counter reads."""
    clock = time.perf_counter
    smallest = float("inf")
    for _ in range(2000):
        a = clock()
        b = clock()
        while b == a:
            b = clock()
        smallest = min(smallest, b - a)
    return smallest


def probe() -> dict:
    """``nproc``, affinity, measured 2-process burn scaling, timer resolution."""
    single = statistics.median(_burn(1) for _ in range(3))
    double = statistics.median(_burn(2) for _ in range(3))
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "burn_scaling_2proc": round(2 * single / double, 3),
        "timer_resolution_s": time.get_clock_info("perf_counter").resolution,
        "timer_step_s": _timer_step(),
    }
