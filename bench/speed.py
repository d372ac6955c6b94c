"""Machine-speed reference for scaling measured times.

On a shared virtual machine the speed of one vCPU changes by up to 1.8
times over seconds to minutes, with the load of the host, not of this
machine: one CLI command took 3.6 s to 6.6 s in one series.  A fixed
pure-Python loop, timed on the same vCPU as the work, slows with it.  Each
measured time is therefore multiplied by REFERENCE_S / (the loop's time on
that vCPU meanwhile), giving seconds on a machine where the loop takes
REFERENCE_S.  The raw times stay in the run record.

Wall times use a Monitor: a thread of the benchmark process, pinned to the
vCPU the children are pinned to, that times the loop every INTERVAL_S
(about 2% of that vCPU).  Set-up probes time the loop themselves, just
before the import.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

LOOPS = 10000
REFERENCE_S = 1.0e-3  # nominal time of one reference_task()
INTERVAL_S = 0.05


def reference_task() -> float:
    """Seconds taken by a fixed integer loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i
    return time.perf_counter() - t0


class Monitor(threading.Thread):
    """Times reference_task() every INTERVAL_S on one vCPU until stopped."""

    def __init__(self, cpu: int):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.starts: list = []
        self.times: list = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while True:
            start = time.perf_counter()
            self.times.append(reference_task())
            self.starts.append(start)
            if self._stop_event.wait(INTERVAL_S):
                return

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median loop time in [t0, t1]; the nearest
        samples stand in when the interval holds fewer than three."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
        return REFERENCE_S / statistics.median(self.times[lo:hi])
