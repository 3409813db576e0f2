"""In-memory span recording and self-time arithmetic for traced runs.

A :class:`Recorder` wraps functions so every call becomes a span: name,
start, end, parent span, pid, invocation id and optional attributes
(counts read from arguments or results). Spans stay in memory and are
written as JSON lines when the process ends — at interpreter exit for
the launched process, and through a ``multiprocessing`` finalizer for
fork-started pool workers, which inherit the wrappers.

Times come from ``time.perf_counter``, which reads the system-wide
monotonic clock on Linux, so spans from different processes of one run
share a time axis.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Recorder:
    """Collects spans for one process; ``flush`` writes them out."""

    def __init__(self, out_dir: Path, invocation: str):
        self.out_dir = Path(out_dir)
        self.invocation = invocation
        self.process: Dict[str, object] = {}
        #: Called just before the spans are written (process-level stats).
        self.on_exit: Optional[Callable[[], None]] = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._flushed = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None):
        """Return *fn* recording one span per call.

        ``attrs(args, kwargs, result)`` may return a dict stored with
        the span; it runs outside the timed interval.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((sid, parent, name, start, time.perf_counter(), None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append((sid, parent, name, start, end, extra))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def follow_forks(self) -> None:
        """Give every ``multiprocessing`` child forked from here an empty
        buffer, written when the child exits."""
        import multiprocessing.util

        # Runs in the child after multiprocessing clears the finalizers
        # it inherited, so the one registered here survives.
        multiprocessing.util.register_after_fork(self, Recorder._in_child)

    def _in_child(self) -> None:
        import multiprocessing.util

        self._reset()
        self.process = {}
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        if self._flushed or self.pid != os.getpid():
            return
        self._flushed = True
        if self.on_exit is not None:
            self.on_exit()
        path = self.out_dir / f"spans-{self.invocation}-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "kind": "process", "pid": self.pid, "inv": self.invocation,
                **self.process,
            }) + "\n")
            for sid, parent, name, start, end, extra in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "pid": self.pid,
                    "inv": self.invocation, "attrs": extra or {},
                }) + "\n")


def load(trace_dir: Path) -> Tuple[List[dict], List[dict]]:
    """(spans, processes) from every span file under *trace_dir*."""
    spans, procs = [], []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            (spans if row["kind"] == "span" else procs).append(row)
    return spans, procs


# -- arithmetic ----------------------------------------------------------
def covered(lo: float, hi: float, intervals: Iterable[Interval]) -> float:
    """Length of the union of *intervals*, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval covered by its child spans (same process)."""
    children: Dict[tuple, List[Interval]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"])
            )
    out: Dict[str, float] = {}
    for s in spans:
        kids = children.get((s["pid"], s["id"]), ())
        own = s["end"] - s["start"] - covered(s["start"], s["end"], kids)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def durations(spans: Sequence[dict]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def counts(spans: Sequence[dict]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
    return out


def attr_sum(spans: Sequence[dict], name: str, key: str) -> float:
    return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)
