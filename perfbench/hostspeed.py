"""Host-speed calibration: report host times at a reference host speed.

The benchmark runs on a shared host whose cores change speed by up to
about 2x from one second to the next and from one minute to the next,
while the program's work stays the same. To keep that out of the
metrics, :class:`HostClock` pins the benchmark, and so every process it
starts, to one CPU, and runs a *calibrator* process on the same CPU at
low priority (``CALIBRATOR_NICE``). The calibrator repeats a fixed unit
of work that uses none of the program's code (:func:`unit`) and
publishes how many units it has finished and its CPU time at the end of
the last one.

Because the calibrator always wants the CPU, the CPU is never idle
while the benchmark measures, and it shares the CPU's speed of the
moment with the program at a scale of scheduler slices. For a measured
interval the benchmark therefore takes

* the program's busy time: wall time minus the calibrator's CPU time in
  the interval (``/proc/<pid>/schedstat``), and
* the slowdown: the calibrator's CPU time per unit in the interval
  over ``REFERENCE_UNIT_S`` (pooled over the run's intervals when the
  interval is too short to finish ``MIN_UNITS`` units),

and reports busy time / slowdown: seconds on a host where one unit
takes ``REFERENCE_UNIT_S`` and nothing else runs. A change to the
program moves the program's busy time and leaves the unit alone.

Run as a script, this module is the calibrator::

    python3 perfbench/hostspeed.py <shared-file>
"""

from __future__ import annotations

import heapq
import mmap
import os
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

#: Nominal CPU time of one :func:`unit` on the reference host.
REFERENCE_UNIT_S = 0.005
#: An interval in which the calibrator finished fewer units than this is
#: scaled by the run's pooled slowdown instead of its own.
MIN_UNITS = 5
#: Niceness of the calibrator: it takes about a tenth of the CPU from
#: the program, enough to sample the CPU's speed all through a run.
CALIBRATOR_NICE = 10
START_TIMEOUT_S = 30.0

# Shared record: sequence (odd while being written), units, CPU ns.
_RECORD = struct.Struct("<qqq")


class _Event:
    __slots__ = ("t", "key", "load")

    def __init__(self, t: float, key: int, load: float):
        self.t = t
        self.key = key
        self.load = load

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def unit(events: int = 3000, arrays: int = 75) -> float:
    """One fixed, deterministic unit of interpreter work.

    A small event loop over a binary heap, dicts and slotted objects,
    then small-array numpy calls: the interpreter paths the simulator
    spends its time on, in none of its code.
    """
    heap = [_Event(i * 0.1, i, 1.0) for i in range(64)]
    heapq.heapify(heap)
    totals: dict = {}
    x = 0.5
    for _ in range(events):
        ev = heapq.heappop(heap)
        x = (x * 1.000001 + ev.load) % 97.0
        slot = (ev.key * 7) % 101
        totals[slot] = totals.get(slot, 0.0) + ev.t
        heapq.heappush(heap, _Event(
            ev.t + 1.0 / (1 + ev.key % 13), (ev.key + int(x)) % 500, x / 97.0))
    caps = np.linspace(1.0, 2.0, 96)
    for i in range(arrays):
        load = np.bincount(np.arange(96) % (i % 7 + 2), minlength=96)
        share = caps / np.maximum(load, 1)
        x += float(share[np.argmin(share)])
    return x + sum(totals.values())


def calibrate(shared: Path) -> None:
    """Calibrator main loop: run units forever, publish progress."""
    os.nice(CALIBRATOR_NICE)
    unit()  # the first call pays numpy's lazy set-up
    with open(shared, "r+b") as f:
        mem = mmap.mmap(f.fileno(), _RECORD.size)
    seq = 0
    while True:
        unit()
        cpu_ns = time.process_time_ns()
        seq += 1
        mem[:8] = struct.pack("<q", 2 * seq - 1)
        mem[8:] = struct.pack("<qq", seq, cpu_ns)
        mem[:8] = struct.pack("<q", 2 * seq)


@dataclass(frozen=True)
class Interval:
    """One measured interval: the program's busy time as measured, and
    the calibrator units finished inside it with their CPU time."""

    busy_s: float
    units: int = 0
    unit_cpu_s: float = 0.0


class WallClock:
    """Plain wall time, unpinned and uncalibrated (traced runs)."""

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> Interval:
        return Interval(time.perf_counter() - self._start)

    def reference_s(self, interval: Interval) -> float:
        return interval.busy_s

    def close(self) -> None:
        pass


class HostClock:
    """Pins the benchmark to one CPU and runs the calibrator beside it.

    Wrap each measured interval in :meth:`start` / :meth:`stop`;
    :meth:`reference_s` turns the :class:`Interval` that ``stop``
    returns into seconds at the reference speed.
    """

    def __init__(self, workdir: Path):
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})  # inherited by every child
        self._shared = Path(workdir) / "hostclock"
        self._shared.write_bytes(bytes(_RECORD.size))
        with open(self._shared, "r+b") as f:
            self._mem = mmap.mmap(f.fileno(), _RECORD.size)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self._shared)],
            stdin=subprocess.DEVNULL,
        )
        self.intervals: List[Interval] = []
        self._mark: Tuple[float, float, int, int] = (0.0, 0.0, 0, 0)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while self._progress()[0] == 0:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("calibrator did not start")
            time.sleep(0.01)

    def _progress(self) -> Tuple[int, int]:
        """(units finished, CPU ns at the end of the last one)."""
        while True:
            before, units, cpu_ns = _RECORD.unpack(self._mem[:])
            (after,) = struct.unpack("<q", self._mem[:8])
            if before == after and before % 2 == 0:
                return units, cpu_ns
            os.sched_yield()  # the calibrator, on this CPU, is mid-write

    def _cpu_s(self) -> float:
        """The calibrator's CPU time so far, partial unit included."""
        stat = Path(f"/proc/{self.proc.pid}/schedstat").read_text()
        return int(stat.split()[0]) / 1e9

    def start(self) -> None:
        units, cpu_ns = self._progress()
        self._mark = (time.perf_counter(), self._cpu_s(), units, cpu_ns)

    def stop(self) -> Interval:
        """The program's busy time since :meth:`start`, with the
        calibrator's progress in the same interval."""
        wall = time.perf_counter()
        cal_s = self._cpu_s()
        units, cpu_ns = self._progress()
        wall0, cal0, units0, cpu0 = self._mark
        interval = Interval(max(wall - wall0 - (cal_s - cal0), 0.0),
                            units - units0, (cpu_ns - cpu0) / 1e9)
        self.intervals.append(interval)
        return interval

    def slowdown(self, interval: Optional[Interval] = None) -> float:
        """CPU time per calibrator unit over the reference, in *interval*
        or, when it holds fewer than ``MIN_UNITS`` units, pooled over
        every interval of the run (1.0 if none finished a unit)."""
        if interval is None or interval.units < MIN_UNITS:
            units = sum(i.units for i in self.intervals)
            cpu_s = sum(i.unit_cpu_s for i in self.intervals)
        else:
            units, cpu_s = interval.units, interval.unit_cpu_s
        return cpu_s / units / REFERENCE_UNIT_S if units else 1.0

    def reference_s(self, interval: Interval) -> float:
        return interval.busy_s / self.slowdown(interval)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._mem.close()
        os.sched_setaffinity(0, self._cpus)


if __name__ == "__main__":
    calibrate(Path(sys.argv[1]))
