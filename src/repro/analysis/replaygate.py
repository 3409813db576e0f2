"""Replay differential gate: the vectorized engine must match the DES.

The replay engine (:mod:`repro.sim.replay`) promises *bitwise* equality
with the coroutine discrete-event runtime on every static schedule —
not "close", not "within tolerance": the same floats. That promise is
what lets ``REPRO_ENGINE=auto`` silently substitute replay for the DES
in sweeps, figures and the disk cache. This gate enforces it across the
full registry:

(a) **makespan** — ``ReplayResult.time`` equals ``JobResult.time``
    exactly (``==`` on floats, no tolerance);
(b) **per-rank finish times** — the full ``rank_finish_times`` vector
    matches element-for-element;
(c) **wire accounting** — every transport counter (message/byte totals,
    intra/inter split, per-rank sent/received message and byte maps)
    is identical;
(d) **flow bookkeeping** — both engines complete the same number of
    payload flows (zero-byte tokens included).

Each cell builds the replay schedule the way production does —
collectives with a certified emitter (:mod:`repro.collectives.emit`)
are laid out from their certificate; every other one is extracted once
(:func:`~repro.collectives.schedule.cached_schedule` memoises it per
process, sharing work with the cost gate) and compiled — and runs both
engines on fresh machines so no fluid-solver state leaks between them.
The grid spans eager and rendezvous sizes so both transport protocols
are exercised.

Schedules the replay compiler rejects (wildcard receives, never-matched
blocking receives) report ``unsupported`` — an accepted fallback, not a
failure, because the dispatch layer routes exactly those runs back to
the DES.

Surfaced as ``python -m repro replay --grid`` (``--strict``/``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..collectives.schedule import cached_schedule
from ..errors import ReplayUnsupportedError, ReproError
from ..machine import Machine, MachineSpec, hornet
from ..mpi import Job
from ..mpi.counters import TrafficCounters
from ..sim.replay import ReplayEngine, compile_schedule
from .verify import REGISTRY

__all__ = [
    "ReplayCheck",
    "ReplayReport",
    "run_replay_point",
    "replay_gate",
    "DEFAULT_RANKS",
    "DEFAULT_SIZES",
]

#: Grid defaults: non-trivial, non-power-of-two and power-of-two rank
#: counts; one size per transport protocol (512 B is eager and 256 KiB
#: rendezvous on every preset with a nonzero eager threshold).
DEFAULT_RANKS = (2, 5, 8, 13, 16)
DEFAULT_SIZES = (512, 262144)


@dataclass(frozen=True)
class ReplayCheck:
    """Verdict for one (collective, P, nbytes) grid cell."""

    collective: str
    nranks: int
    nbytes: int
    status: str  # "ok" | "unsupported" | "fail"
    detail: str = ""
    sends: int = 0

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "collective": self.collective,
            "nranks": self.nranks,
            "nbytes": self.nbytes,
            "status": self.status,
            "detail": self.detail,
            "sends": self.sends,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Every grid cell's verdict plus the run parameters."""

    checks: Tuple[ReplayCheck, ...]
    machine: str

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[ReplayCheck]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def describe(self) -> str:
        lines = [
            f"replay differential gate on {self.machine} — "
            f"{len(self.checks)} cell(s)"
        ]
        unsupported = sum(1 for c in self.checks if c.status == "unsupported")
        for c in self.failures:
            lines.append(
                f"  FAIL {c.collective} P={c.nranks} nbytes={c.nbytes}: {c.detail}"
            )
        lines.append(
            f"  {len(self.checks) - len(self.failures)}/{len(self.checks)} "
            f"bitwise-equal ({unsupported} unsupported fallback(s))"
        )
        lines.append(f"verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _counters_dict(c: TrafficCounters) -> Dict[str, object]:
    """Every wire counter the gate compares, bitwise."""
    return {
        "messages": c.messages,
        "bytes": c.bytes,
        "intra_messages": c.intra_messages,
        "inter_messages": c.inter_messages,
        "intra_bytes": c.intra_bytes,
        "inter_bytes": c.inter_bytes,
        "sent_by_rank": dict(c.sent_by_rank),
        "received_by_rank": dict(c.received_by_rank),
        "bytes_sent_by_rank": dict(c.bytes_sent_by_rank),
        "bytes_received_by_rank": dict(c.bytes_received_by_rank),
    }


def _first_diff(des_map: Dict[str, object], rep_map: Dict[str, object]) -> str:
    """Name the first counter key whose values diverge (for the detail)."""
    for key in des_map:
        if des_map[key] != rep_map[key]:
            return f"{key}: des={des_map[key]!r} replay={rep_map[key]!r}"
    return "counters diverge"


def run_replay_point(
    name: str,
    nranks: int,
    nbytes: int,
    spec: Optional[MachineSpec] = None,
    root: int = 0,
) -> ReplayCheck:
    """Judge one (collective, P, nbytes) cell: DES vs replay, bitwise."""
    # Imported here, not at module level: the CLI imports this module
    # at startup and only a gate run needs the emitter.
    from ..collectives.emit import EMITTED, emit_schedule

    spec = spec if spec is not None else hornet()
    collective = REGISTRY[name]
    try:
        if name in EMITTED:
            compiled = emit_schedule(name, nranks, nbytes, root)
        else:
            schedule = cached_schedule(
                ("registry", name, nranks, nbytes, root, None),
                nranks,
                collective.build(nranks, nbytes, root),
            )
            compiled = compile_schedule(schedule)
    except ReplayUnsupportedError as exc:
        return ReplayCheck(name, nranks, nbytes, "unsupported", detail=str(exc))
    except ReproError as exc:
        return ReplayCheck(
            name,
            nranks,
            nbytes,
            "fail",
            detail=f"schedule build raised {type(exc).__name__}: {exc}",
        )
    des = Job(
        Machine(spec, nranks),
        collective.build(nranks, nbytes, root),
        working_set=nbytes,
    ).run()
    rep = ReplayEngine(Machine(spec, nranks), compiled, working_set=nbytes).run()

    if rep.time != des.time:
        detail = f"makespan: des={des.time!r} replay={rep.time!r}"
    elif list(rep.rank_finish_times) != list(des.rank_finish_times):
        detail = "per-rank finish times diverge"
    elif _counters_dict(rep.counters) != _counters_dict(des.counters):
        detail = _first_diff(
            _counters_dict(des.counters), _counters_dict(rep.counters)
        )
    elif rep.flows_completed != des.flows_completed:
        detail = (
            f"flows: des={des.flows_completed} replay={rep.flows_completed}"
        )
    else:
        return ReplayCheck(
            name, nranks, nbytes, "ok", sends=compiled.n_sends
        )
    return ReplayCheck(
        name, nranks, nbytes, "fail", detail=detail, sends=compiled.n_sends
    )


def replay_gate(
    spec: Optional[MachineSpec] = None,
    collectives: Optional[Sequence[str]] = None,
    ranks: Sequence[int] = DEFAULT_RANKS,
    sizes: Sequence[int] = DEFAULT_SIZES,
    progress: Optional[Callable[[str], None]] = None,
) -> ReplayReport:
    """Run the full grid: registry collectives x ranks x sizes."""
    spec = spec if spec is not None else hornet()
    names = list(collectives) if collectives is not None else sorted(REGISTRY)
    checks: List[ReplayCheck] = []
    for name in names:
        registered = REGISTRY[name]
        for nranks in ranks:
            if not registered.supports(nranks):
                continue
            for nbytes in sizes:
                if progress is not None:
                    progress(f"replay {name} P={nranks} nbytes={nbytes}")
                checks.append(run_replay_point(name, nranks, nbytes, spec=spec))
    return ReplayReport(checks=tuple(checks), machine=spec.name)
