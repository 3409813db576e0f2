"""Discrete-event simulation engine: virtual clock plus an event heap.

The engine is deliberately tiny: the heap holds ``(time, seq, handle)``
tuples popped in time order with FIFO tie-breaking via the monotonically
increasing sequence number. Tuple entries keep heap comparisons in C
(plain float/int comparisons) instead of calling a Python ``__lt__`` per
sift step — the heap is the hottest structure in a sweep. Everything
else in the simulator (message matching, fluid flows, rank programs) is
layered on top of :meth:`Engine.schedule`.

Determinism is a hard requirement (DESIGN.md §5): the engine never reads
the wall clock and never iterates over unordered containers, so two runs
with identical inputs produce identical event orders and timestamps.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..errors import SimulationError

__all__ = ["Engine", "EventHandle"]


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: tuple,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        self._engine = None
        if engine is not None:
            engine._alive -= 1

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<EventHandle t={self.time:.9g} {name} {state}>"


class Engine:
    """Virtual-time event loop."""

    def __init__(self) -> None:
        self._heap: list = []  # (time, seq, EventHandle) triples
        self._now = 0.0
        self._seq = 0
        self._alive = 0  # not-cancelled events still in the heap
        self._running = False

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` *delay* seconds from now."""
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        handle = EventHandle(time, self._seq, callback, args, engine=self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
        self._alive += 1
        return handle

    # -- execution -------------------------------------------------------
    def _retire(self, handle: EventHandle) -> None:
        """Account for a live handle leaving the heap to be fired."""
        self._alive -= 1
        handle._engine = None  # late cancel() must not decrement again

    def step(self) -> bool:
        """Fire the next pending event; False when the queue is empty."""
        while self._heap:
            time, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._retire(handle)
            self._now = time
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time *until*).

        Returns the final simulated time. Re-entrant calls are rejected —
        callbacks must schedule follow-up events, not recurse into the
        loop.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                time, _seq, handle = heap[0]
                if handle.cancelled:
                    heapq.heappop(heap)
                    continue
                if until is not None and time > until:
                    self._now = until
                    break
                # fire
                heapq.heappop(heap)
                self._retire(handle)
                self._now = time
                handle.callback(*handle.args)
            return self._now
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._alive

    @property
    def empty(self) -> bool:
        return self._alive == 0
