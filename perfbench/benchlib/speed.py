"""The host's speed, sampled in a sibling process while negdep runs.

On the reference machine (a shared virtual machine) all code runs up to
twice as slow for seconds to minutes at a time, and one vCPU can be
slow while the other is not; CPU time tracks wall time, so the process
is running slower, not waiting.  A sibling process times ``probe()``, a
fixed piece of pure-Python work, every ``interval`` seconds.  It shares
no interpreter, heap or garbage collector with the measured process, so
a change to negdep, or to how negdep's process runs (garbage collection
settings, profile hooks, a larger heap), does not move the probe and
does show in the rescaled times.  It does share the CPU: the measuring
process pins itself to one CPU before it starts the sibling, which
inherits the pin, so the probe sees that CPU's speed.

``SpeedMeter.factor(start, end)`` is the median slowdown, probe time
over PROBE_SECONDS, of the probes within ``margin`` seconds of an
interval; ``stolen(start, end)`` is the probe time inside the interval,
which the probes took from the measured process.  ``seconds(start,
end)`` is the interval without the stolen time, divided by the factor:
seconds at the reference speed.

Run as a script, this module is the sibling: it probes until its stdin
is closed, then prints one ``start end`` line per probe.  These are
``time.perf_counter()`` values, which on Linux read the system-wide
monotonic clock, so they compare across processes.
"""

from __future__ import annotations

import bisect
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# probe() on the reference machine (Intel Xeon at 2.1 GHz, 2 vCPUs,
# Python 3.11.7) when its host is not contended
PROBE_SECONDS = 0.00033

_GRAPH = [[[j, 5, 0] for j in range(8)] for _ in range(16)]


def probe() -> None:
    """A fixed piece of pure-Python work in negdep's mix: small Fraction
    arithmetic with dict updates, and an adjacency-list scan."""
    table: dict = {}
    for i in range(1, 40):
        q = Fraction(i % 97, i % 89 + 1) * Fraction(i % 13 + 1, i % 7 + 1) + Fraction(1, 3)
        table[i & 15] = table.get(i & 15, q) + q
    total = 0
    for _ in range(10):
        for u, edges in enumerate(_GRAPH):
            for edge in edges:
                v, cap, rev = edge
                if cap > 0 and v != u:
                    total += cap
                    edge[2] = rev + 1


class SpeedMeter:
    """Starts the sibling on entry; on exit stops it, waits for it and
    reads its samples."""

    def __init__(self, interval: float = 0.02, margin: float = 0.5):
        self.interval, self.margin = interval, margin
        self.stamps: list = []  # probe starts
        self.ends: list = []
        self.slowdowns: list = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.interval)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._proc.stdout.readline()  # the first probe has run
        return self

    def __exit__(self, *exc) -> None:
        proc = self._proc
        proc.stdin.close()
        out = proc.stdout.read()
        if proc.wait(timeout=30) != 0:
            raise RuntimeError(f"speed probe exited {proc.returncode}")
        for line in out.splitlines():
            start, end = map(float, line.split())
            self.stamps.append(start)
            self.ends.append(end)
            self.slowdowns.append((end - start) / PROBE_SECONDS)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start - self.margin)
        hi = bisect.bisect_right(self.stamps, end + self.margin)
        return statistics.median(self.slowdowns[lo:hi] or self.slowdowns)

    def stolen(self, start: float, end: float) -> float:
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_left(self.stamps, end)
        return sum(
            min(end, self.ends[i]) - max(start, self.stamps[i]) for i in range(lo, hi)
        )

    def seconds(self, start: float, end: float) -> float:
        return (end - start - self.stolen(start, end)) / self.factor(start, end)


def _sample(interval: float) -> None:
    samples = []
    while True:
        start = time.perf_counter()
        probe()
        samples.append((start, time.perf_counter()))
        if len(samples) == 1:
            print("ready", flush=True)
        # sleep out the interval, or stop as soon as stdin is closed
        wait = max(0.0, start + interval - time.perf_counter())
        if select.select([sys.stdin], [], [], wait)[0] and not sys.stdin.read(1):
            break
    for start, end in samples:
        print(f"{start!r} {end!r}")


if __name__ == "__main__":
    _sample(float(sys.argv[1]))
