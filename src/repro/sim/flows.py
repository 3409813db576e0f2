"""Max-min fair fluid-flow network: the one data plane behind both engines.

Each in-flight transfer is a flow with a byte count and a path of
:class:`~repro.sim.resources.Resource` objects. Whenever the active-flow
set changes the network

1. *advances* every flow's remaining bytes by ``rate x elapsed``,
2. *re-solves* max-min fair rates by progressive filling (water filling),
3. *reschedules* one engine event at the earliest flow completion.

Progressive filling: all unfixed flows grow at the same rate ``t`` until
either a resource saturates or a flow hits its individual rate cap; the
binding flows are fixed and the process repeats. This yields the unique
max-min fair allocation.

Both execution engines drive the same network through two entry points:

* the coroutine DES calls :meth:`FlowNetwork.add_flow` with a resource
  path and gets back a :class:`Flow` handle, which attaches to each
  resource (``Resource.load``/``utilization`` see it) and can be
  cancelled;
* the replay engine (:mod:`repro.sim.replay`) interns its transfer plans
  before the clock starts and calls :meth:`FlowNetwork.start` with an
  integer path class and a completion callback — no handle, no attach.

The network runs twice per message, so it is built for cost per event:

* per-flow state (remaining bytes, current rate) lives in plain dicts of
  floats keyed by flow id — frontiers are typically a handful of flows,
  so byte accrual and completion ETAs are scalar arithmetic;
* flows are grouped into *contention components* — connected groups of
  the flow/resource sharing graph, maintained with a union-find over
  each path's resources — and a re-solve only runs progressive filling
  for the component(s) touched since the last solve. Max-min fairness
  guarantees disjoint components keep their previous rates;
* component solves are *memoised* by the multiset of path classes they
  contain (below).

The water-filling kernel is scalar Python over the component's resource
ids, sized for the tens of flows a component holds. It derives each
resource's absolute saturation level ``(capacity - fixed_rates) /
pending`` from its current inputs instead of accumulating headroom
deltas, recomputing it only when a round changed those inputs, and all
its reductions are exact (min, integer counts, equal-value sums). Two
properties follow. The kernel's floating-point path is *independent of
component grouping*: solving a disjoint union of components in one call
produces bitwise-identical rates to solving them separately, so
component tracking can merge lazily and split opportunistically without
ever changing a simulated timestamp.
And the kernel is a pure function of the multiset of *path classes* in a
component — the (resource-id tuple, rate cap) equivalence class of each
flow's path, interned on first sight: remaining bytes never enter it and
same-class flows are interchangeable rows. A memo hit therefore replays
the exact floats (and round count) the kernel produced for an identical
component earlier. Each network owns a private memo; the replay engine,
whose paths are all known up front, swaps in one shared by every
structurally identical network in the process
(:func:`repro.sim.replay.shared_solve_memo`).

``FlowNetwork(engine, solver="reference")`` is the differential-testing
oracle: every re-solve repartitions all active flows and runs the kernel
without the memo. It is bit-for-bit equivalent to the default
incremental solver (enforced by ``tests/sim/test_solver_differential.py``).
``stats()`` exposes solver telemetry (solve count, water-filling rounds,
component sizes, flows advanced, solver wall time); see
``docs/performance.md``.

This sharing behaviour is the load-bearing part of the reproduction: the
paper's tuned ring allgather removes transfers *without shortening the
ring*, so its advantage exists exactly insofar as concurrent transfers
compete for CPU copy engines, memory engines, NICs and core links — which
is what this model expresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from .engine import Engine, EventHandle
from .resources import Resource

__all__ = ["Flow", "FlowNetwork", "SolverStats"]

# Residual byte counts below this are treated as complete; guards against
# floating-point dust keeping a flow alive forever.
_EPSILON_BYTES = 1e-6
_INF = float("inf")

SOLVER_MODES = ("incremental", "reference")
_MEMO_CAP = 1 << 16  # component solves kept per memo


@dataclass(frozen=True)
class SolverStats:
    """Telemetry snapshot of one :class:`FlowNetwork`'s solver."""

    mode: str  # "incremental", "reference" or "replay"
    solves: int  # rate re-solves actually performed
    rounds: int  # water-filling rounds across all solves
    components_solved: int  # component kernel invocations
    flows_solved: int  # sum of component sizes over all solves
    max_component: int  # largest component ever solved
    flows_advanced: int  # flow-progress updates applied by _advance
    solve_time_s: float  # wall time spent inside the solver

    @property
    def rounds_per_solve(self) -> float:
        return self.rounds / self.solves if self.solves else 0.0

    @property
    def mean_component(self) -> float:
        return (
            self.flows_solved / self.components_solved
            if self.components_solved
            else 0.0
        )

    def describe(self) -> str:
        return (
            f"solver[{self.mode}]: {self.solves} solves "
            f"({self.rounds_per_solve:.2f} rounds/solve), "
            f"{self.components_solved} components "
            f"(mean {self.mean_component:.1f}, max {self.max_component} flows), "
            f"{self.flows_advanced} flow advances, "
            f"{self.solve_time_s * 1e3:.2f}ms solve time"
        )


class Flow:
    """Handle on one DES transfer across a path of resources.

    While active, ``remaining``/``rate`` read the owning network's
    per-flow state; once detached the last values are kept locally so
    completed/cancelled flows stay inspectable.
    """

    __slots__ = (
        "fid",
        "nbytes",
        "resources",
        "res_ids",
        "rate_cap",
        "on_complete",
        "meta",
        "start_time",
        "_net",
        "_remaining",
        "_rate",
    )

    def __init__(
        self,
        fid: int,
        nbytes: float,
        resources: tuple,
        res_ids,
        rate_cap: Optional[float],
        on_complete: Optional[Callable],
        meta,
        start_time: float,
    ):
        self.fid = fid
        self.nbytes = float(nbytes)
        self.resources = resources
        self.res_ids = res_ids  # the path class's network-local resource ids
        self.rate_cap = rate_cap
        self.on_complete = on_complete
        self.meta = meta
        self.start_time = start_time
        self._net: Optional["FlowNetwork"] = None
        self._remaining = float(nbytes)
        self._rate = 0.0

    @property
    def remaining(self) -> float:
        net = self._net
        return net._rem[self.fid] if net is not None else self._remaining

    @remaining.setter
    def remaining(self, value: float) -> None:
        net = self._net
        if net is not None:
            net._rem[self.fid] = float(value)
        else:
            self._remaining = float(value)

    @property
    def rate(self) -> float:
        net = self._net
        return net._rate[self.fid] if net is not None else self._rate

    def eta(self) -> float:
        """Seconds until completion at the current rate (inf when stalled)."""
        remaining = self.remaining
        if remaining <= _EPSILON_BYTES:
            return 0.0
        rate = self.rate
        if rate <= 0.0:
            return float("inf")
        return remaining / rate

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.fid} {self.remaining:.0f}/{self.nbytes:.0f}B "
            f"@{self.rate:.4g}B/s meta={self.meta!r}>"
        )


class FlowNetwork:
    """Progressive-filling fluid network bound to a simulation engine.

    ``solver`` selects the re-solve strategy:

    * ``"incremental"`` — component tracking and the class-multiset
      memo; re-solve only what changed (the production path);
    * ``"reference"`` — stateless from-scratch partition and unmemoised
      solve of every active flow on each change (the differential-testing
      oracle).
    """

    def __init__(self, engine: Engine, solver: str = "incremental"):
        if solver not in SOLVER_MODES:
            raise SimulationError(
                f"unknown solver {solver!r}; expected one of {SOLVER_MODES}"
            )
        self.engine = engine
        self.solver = solver
        self._next_fid = 0
        self._last_update = engine.now
        self._completion_event: Optional[EventHandle] = None
        self._resolve_event: Optional[EventHandle] = None
        self.completed_count = 0
        self.total_bytes_transferred = 0.0
        # Interned resources (network-local integer ids + capacities) and
        # path classes: (resource-id tuple, rate cap) -> class id, plus a
        # cache from the (resource tuple, rate cap) callers pass in.
        self._res_index: Dict[Resource, int] = {}
        self._capacities: List[float] = []
        self._path_class: Dict[tuple, int] = {}
        self._class_index: Dict[tuple, int] = {}
        self._class_rids: List[Tuple[int, ...]] = []
        self._class_cap: List[float] = []  # inf when uncapped
        # Active flows, keyed by fid (insertion order is fid order):
        # remaining bytes, current rate, and (class, callback, arg, Flow
        # handle or None).
        self._rem: Dict[int, float] = {}
        self._rate: Dict[int, float] = {}
        self._flows: Dict[int, tuple] = {}
        # Contention components (incremental mode): disjoint groups of
        # flows connected through shared resources. Components merge
        # eagerly on start and are repartitioned opportunistically after
        # enough removals — the kernel's grouping independence makes both
        # operations timing-neutral.
        self._next_comp = 0
        self._flow_comp: Dict[int, int] = {}  # fid -> comp id
        self._comp_flows: Dict[int, Dict[int, int]] = {}  # comp -> {fid: class}
        self._comp_res: Dict[int, set] = {}  # comp id -> set of resource ids
        self._res_comp: Dict[int, int] = {}  # resource id -> comp id
        self._comp_removals: Dict[int, int] = {}  # comp -> removals since split
        self._dirty_comps: set = set()  # components needing a re-solve
        self._split_comps: set = set()  # components due a repartition
        # Sorted class tuple -> ({class: rate}, kernel rounds); None in
        # reference mode. Hits replay the stored rounds so the telemetry,
        # like the rates, is independent of memo history.
        self.memo: Optional[Dict[Tuple[int, ...], Tuple[Dict[int, float], int]]] = (
            {} if solver == "incremental" else None
        )
        # Telemetry.
        self._stat_solves = 0
        self._stat_rounds = 0
        self._stat_components = 0
        self._stat_flows_solved = 0
        self._stat_max_component = 0
        self._stat_flows_advanced = 0
        self._stat_solve_time = 0.0

    # -- public API ------------------------------------------------------
    def add_flow(
        self,
        nbytes: float,
        resources: Iterable[Resource],
        on_complete: Optional[Callable] = None,
        rate_cap: Optional[float] = None,
        meta=None,
    ) -> Flow:
        """Start a transfer; ``on_complete(flow)`` fires at delivery time.

        Zero-byte transfers complete via a zero-delay event so callers
        always observe completion asynchronously (no re-entrancy).
        """
        # Written so that NaN fails each check.
        if not nbytes >= 0:
            raise SimulationError(f"flow cannot carry {nbytes} bytes")
        if rate_cap is not None and not rate_cap > 0:
            raise SimulationError(f"flow rate cap must be positive, got {rate_cap}")
        path = tuple(resources)
        cls = self.intern(path, rate_cap)
        flow = Flow(
            self._next_fid,
            nbytes,
            path,
            self._class_rids[cls],
            rate_cap,
            on_complete,
            meta,
            self.engine.now,
        )
        if self.start(nbytes, cls, self._finish_flow, flow, flow):
            flow._net = self
            for res in path:
                res.attach(flow)
        return flow

    def start(
        self, nbytes: float, cls: int, callback: Callable, arg, flow=None
    ) -> bool:
        """Start a transfer of path class *cls* (see :meth:`intern`).

        ``callback(arg)`` fires at delivery time; zero-byte transfers
        complete via a zero-delay event. Returns whether the flow became
        active. *flow* is the DES handle :meth:`add_flow` passes in.
        """
        fid = self._next_fid
        self._next_fid += 1
        if nbytes <= _EPSILON_BYTES:
            self.engine.schedule(0.0, self._complete, callback, arg)
            return False
        if not self._class_rids[cls] and self._class_cap[cls] == _INF:
            raise SimulationError("flow has no resources and no rate cap")
        self._advance()
        self._rem[fid] = float(nbytes)
        self._rate[fid] = 0.0
        self._flows[fid] = (cls, callback, arg, flow)
        if self.solver == "incremental":
            self._comp_add(fid, cls)
        if self._resolve_event is None:
            self._resolve_event = self.engine.schedule(0.0, self._deferred_resolve)
        return True

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an in-flight transfer without firing its callback."""
        entry = self._flows.get(flow.fid)
        if entry is None or entry[3] is not flow:
            return
        self._advance()
        self._remove(flow.fid)
        if self._resolve_event is None:
            self._resolve_event = self.engine.schedule(0.0, self._deferred_resolve)

    def intern(self, resources: tuple, rate_cap: Optional[float] = None) -> int:
        """The path class of a (resource tuple, rate cap), interned on
        first sight together with any resource not seen before."""
        key = (resources, rate_cap)
        cls = self._path_class.get(key)
        if cls is None:
            rids = []
            for res in resources:
                rid = self._res_index.get(res)
                if rid is None:
                    rid = self._res_index[res] = len(self._capacities)
                    self._capacities.append(res.capacity)
                rids.append(rid)
            ckey = (tuple(rids), _INF if rate_cap is None else rate_cap)
            cls = self._class_index.get(ckey)
            if cls is None:
                cls = self._class_index[ckey] = len(self._class_rids)
                self._class_rids.append(ckey[0])
                self._class_cap.append(ckey[1])
            self._path_class[key] = cls
        return cls

    def signature(self) -> tuple:
        """The network's structure: every interned resource capacity and
        each class id's (resource ids, rate cap). Networks with equal
        signatures produce identical kernel outputs for identical class
        multisets, so they may share one memo."""
        return (tuple(self._capacities), tuple(self._class_index))

    def flush(self) -> None:
        """Force any deferred rate re-solve to run now.

        Flow-set changes within one timestamp are batched into a single
        zero-delay re-solve; call this to observe up-to-date rates
        without stepping the engine (tests and diagnostics).
        """
        if self._resolve_event is not None:
            self._resolve_event.cancel()
            self._resolve_event = None
            self._resolve()

    def stats(self) -> SolverStats:
        """Solver telemetry accumulated since construction."""
        return SolverStats(
            mode=self.solver,
            solves=self._stat_solves,
            rounds=self._stat_rounds,
            components_solved=self._stat_components,
            flows_solved=self._stat_flows_solved,
            max_component=self._stat_max_component,
            flows_advanced=self._stat_flows_advanced,
            solve_time_s=self._stat_solve_time,
        )

    @property
    def active_count(self) -> int:
        return len(self._flows)

    @property
    def active(self) -> List[Flow]:
        """Active flow handles ordered by fid (a snapshot; do not mutate)."""
        return [entry[3] for entry in self._flows.values()]

    # -- flow lifecycle ----------------------------------------------------
    def _deferred_resolve(self) -> None:
        self._resolve_event = None
        self._resolve()

    def _remove(self, fid: int) -> tuple:
        """Drop an active flow; returns its ``(callback, arg)``."""
        _, callback, arg, flow = self._flows.pop(fid)
        rem = self._rem.pop(fid)
        rate = self._rate.pop(fid)
        if self.solver == "incremental":
            self._comp_remove(fid)
        if flow is not None:
            flow._net = None
            flow._remaining = rem
            flow._rate = rate
            for res in flow.resources:
                res.detach(flow)
        return callback, arg

    def _advance(self) -> None:
        """Accrue progress for every active flow up to the current time."""
        now = self.engine.now
        elapsed = now - self._last_update
        rem = self._rem
        if elapsed > 0.0 and rem:
            rate = self._rate
            for fid, r in rem.items():
                p = r - rate[fid] * elapsed
                rem[fid] = p if p > 0.0 else 0.0
            self._stat_flows_advanced += len(rem)
        self._last_update = now

    def _resolve(self, stalled: bool = False) -> None:
        """Re-solve rates and reschedule the next completion event.

        *stalled* marks the re-arm after a completion event that
        finished no flow. If the next completion is then too close to
        move the clock, every later event would fire at the same ``now``
        without progress, so this raises instead of livelocking.
        """
        self._solve_rates()
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        rem = self._rem
        if not rem:
            return
        rate = self._rate
        next_eta = _INF
        for fid, r in rem.items():
            rt = rate[fid]
            eta = r / rt if rt > 0.0 else _INF
            if r <= _EPSILON_BYTES:
                eta = 0.0
            if eta < next_eta:
                next_eta = eta
        if next_eta == _INF:
            raise SimulationError(
                f"{len(rem)} active flow(s) are stalled at zero rate"
            )
        if stalled:
            now = self.engine.now
            if now + next_eta == now:
                self._raise_stuck(now)
        self._completion_event = self.engine.schedule(
            next_eta, self._on_completion_event
        )

    def _raise_stuck(self, now: float) -> None:
        rate = self._rate
        stuck = [
            f"#{fid} ({r!r} B left at {rate[fid]!r} B/s)"
            for fid, r in self._rem.items()
            if rate[fid] > 0.0 and now + r / rate[fid] == now
        ]
        raise SimulationError(
            f"{len(stuck)} flow(s) cannot progress at t={now!r}s: their "
            f"completion is below the clock's resolution: " + ", ".join(stuck[:8])
        )

    def _on_completion_event(self) -> None:
        self._completion_event = None
        if self._resolve_event is not None:
            # The direct resolve below covers any deferred one.
            self._resolve_event.cancel()
            self._resolve_event = None
        self._advance()
        finished = sorted(
            fid for fid, r in self._rem.items() if r <= _EPSILON_BYTES
        )
        if not finished:
            # Float rounding left dust above the threshold; re-arm.
            self._resolve(stalled=True)
            return
        done = [self._remove(fid) for fid in finished]
        self._resolve()
        for callback, arg in done:  # fid order
            self.completed_count += 1
            callback(arg)

    def _complete(self, callback: Callable, arg) -> None:
        self.completed_count += 1
        callback(arg)

    def _finish_flow(self, flow: Flow) -> None:
        flow.remaining = 0.0
        self.total_bytes_transferred += flow.nbytes
        if flow.on_complete is not None:
            flow.on_complete(flow)

    # -- component tracking ------------------------------------------------
    def _comp_add(self, fid: int, cls: int) -> None:
        comp_flows = self._comp_flows
        res_comp = self._res_comp
        rids = self._class_rids[cls]
        found: list = []
        for rid in rids:
            c = res_comp.get(rid)
            if c is not None and c not in found:
                found.append(c)
        if not found:
            target = self._next_comp
            self._next_comp += 1
            comp_flows[target] = {}
            self._comp_res[target] = set()
        else:
            target = found[0]
            for c in found[1:]:
                if len(comp_flows[c]) > len(comp_flows[target]):
                    target = c
            for c in found:
                if c == target:
                    continue
                moved = comp_flows.pop(c)
                comp_flows[target].update(moved)
                for f in moved:
                    self._flow_comp[f] = target
                res = self._comp_res.pop(c)
                self._comp_res[target] |= res
                for rid in res:
                    res_comp[rid] = target
                self._dirty_comps.discard(c)
                if c in self._split_comps:
                    self._split_comps.discard(c)
                    self._split_comps.add(target)
                self._comp_removals[target] = self._comp_removals.pop(
                    target, 0
                ) + self._comp_removals.pop(c, 0)
        for rid in rids:
            res_comp[rid] = target
            self._comp_res[target].add(rid)
        comp_flows[target][fid] = cls
        self._flow_comp[fid] = target
        self._dirty_comps.add(target)

    def _comp_remove(self, fid: int) -> None:
        c = self._flow_comp.pop(fid)
        flows = self._comp_flows[c]
        del flows[fid]
        if not flows:
            del self._comp_flows[c]
            for rid in self._comp_res.pop(c):
                if self._res_comp.get(rid) == c:
                    del self._res_comp[rid]
            self._dirty_comps.discard(c)
            self._split_comps.discard(c)
            self._comp_removals.pop(c, None)
            return
        self._dirty_comps.add(c)
        removed = self._comp_removals.get(c, 0) + 1
        # Repartition once removals rival the component's size: keeps
        # stale merges from congealing everything into one mega-component
        # while amortising the O(component) rebuild over many removals.
        if removed >= max(4, len(flows)):
            self._split_comps.add(c)
            self._comp_removals.pop(c, None)
        else:
            self._comp_removals[c] = removed

    def _partition(self, flows: Dict[int, int]) -> List[Dict[int, int]]:
        """Group ``{fid: class}`` into contention components.

        Union-find over resource ids, flows visited in fid order; groups
        come back ordered by their first flow's fid with members in fid
        order — fully deterministic.
        """
        parent: dict = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        ordered = sorted(flows)
        keys: list = []
        for fid in ordered:
            base = None
            for rid in self._class_rids[flows[fid]]:
                if rid not in parent:
                    parent[rid] = rid
                root = find(rid)
                if base is None:
                    base = root
                elif root != base:
                    parent[root] = base
            keys.append(base)

        groups: dict = {}
        grouped: list = []
        for fid, key in zip(ordered, keys):
            gkey = ("f", fid) if key is None else ("r", find(key))
            group = groups.get(gkey)
            if group is None:
                groups[gkey] = group = {}
                grouped.append(group)
            group[fid] = flows[fid]
        return grouped

    def _repartition_comp(self, c: int) -> None:
        """Rebuild one component's grouping from its surviving flows."""
        flows = self._comp_flows.pop(c)
        for rid in self._comp_res.pop(c):
            if self._res_comp.get(rid) == c:
                del self._res_comp[rid]
        self._dirty_comps.discard(c)
        self._comp_removals.pop(c, None)
        for group in self._partition(flows):
            nc = self._next_comp
            self._next_comp += 1
            self._comp_flows[nc] = group
            res: set = set()
            for cls in group.values():
                res.update(self._class_rids[cls])
            self._comp_res[nc] = res
            for rid in res:
                self._res_comp[rid] = nc
            for f in group:
                self._flow_comp[f] = nc
            self._dirty_comps.add(nc)

    # -- rate solving ------------------------------------------------------
    def _solve_rates(self) -> None:
        """Re-run progressive filling for whatever changed.

        Incremental mode solves only the dirty components, through the
        memo; reference mode repartitions every active flow and runs the
        kernel on each group. Both assign bitwise-identical rates.
        """
        reference = self.solver == "reference"
        if not (self._flows if reference else self._dirty_comps or self._split_comps):
            return
        start = perf_counter()  # det: allow — telemetry, not sim state
        if reference:
            flows = {fid: entry[0] for fid, entry in self._flows.items()}
            for group in self._partition(flows):
                self._solve_component(group)
        else:
            if self._split_comps:
                for c in sorted(self._split_comps):
                    if c in self._comp_flows:
                        self._repartition_comp(c)
                self._split_comps.clear()
            for c in sorted(self._dirty_comps):
                self._solve_component(self._comp_flows[c])
            self._dirty_comps.clear()
        self._stat_solves += 1
        self._stat_solve_time += perf_counter() - start  # det: allow

    def _solve_component(self, flows: Dict[int, int]) -> None:
        """Assign rates to one contention component (``{fid: class}``),
        from the memo on a hit, from the kernel otherwise."""
        fids = sorted(flows)
        classes = [flows[f] for f in fids]
        memo = self.memo
        key = hit = None
        if memo is not None:
            key = tuple(sorted(classes))
            hit = memo.get(key)
        rate = self._rate
        if hit is None:
            rates, rounds = self._kernel(classes)
            stored: Dict[int, float] = {}
            for f, cls, r in zip(fids, classes, rates):
                rate[f] = r
                stored[cls] = r
            if memo is not None and len(memo) < _MEMO_CAP:
                memo[key] = (stored, rounds)
        else:
            stored, rounds = hit
            for f, cls in zip(fids, classes):
                rate[f] = stored[cls]
        n = len(fids)
        self._stat_rounds += rounds
        self._stat_components += 1
        self._stat_flows_solved += n
        if n > self._stat_max_component:
            self._stat_max_component = n

    def _kernel(self, classes: List[int]) -> Tuple[List[float], int]:
        """Progressive filling over one row per flow (given by its path
        class); returns ``(rates, rounds)``.

        Scalar arithmetic over dicts keyed by the component's resource
        ids, sized for the components the tracker hands it (tens of
        flows, a few rounds). Each resource's *absolute* saturation level
        ``(capacity - fixed_load) / pending`` is computed once, then
        recomputed only for the resources the last round touched — an
        untouched resource's inputs are unchanged, so its level is
        bitwise what a fresh computation would give — and dropped once no
        pending flow crosses it. A round fixes every flow crossing a
        resource at the minimum level, plus every flow whose rate cap
        binds, and adds their rates to ``fixed_load`` as one
        per-resource sum of equal values started from 0.0 (a resource
        listed twice on a path counts twice). All reductions are exact
        (min / integer counts / equal-value sums), so the result is
        independent of row order and of which other components share the
        call — the properties the component tracker and the memo rest on.
        """
        n = len(classes)
        capacities = self._capacities
        paths = [self._class_rids[cls] for cls in classes]
        # Each resource's users, a flow repeated once per path listing.
        users: Dict[int, List[int]] = {}
        for i, path in enumerate(paths):
            for rid in path:
                u = users.get(rid)
                if u is None:
                    users[rid] = [i]
                else:
                    u.append(i)
        pending = {rid: len(u) for rid, u in users.items()}
        fixed_load = dict.fromkeys(users, 0.0)
        levels = {rid: capacities[rid] / p for rid, p in pending.items()}
        # Capped flows by ascending cap: the unfixed ones with a binding
        # cap are always a prefix from ``k``.
        caps = [self._class_cap[cls] for cls in classes]
        capped = sorted([i for i in range(n) if caps[i] != _INF], key=caps.__getitem__)
        ncapped = len(capped)
        k = 0
        fixed = [False] * n
        rates = [0.0] * n
        left = n
        rounds = 0

        while left:
            rounds += 1
            level_min = min(levels.values()) if levels else _INF
            if level_min < 0.0:
                level_min = 0.0  # float dust: resource already over-filled
            while k < ncapped and fixed[capped[k]]:
                k += 1
            cap_min = caps[capped[k]] if k < ncapped else _INF
            level = level_min if level_min < cap_min else cap_min
            if not level < _INF:
                raise SimulationError("flow without binding constraint")

            newly: List[int] = []
            if level_min <= level:
                # Saturation is tested on the unclamped levels.
                for rid, lv in levels.items():
                    if lv <= level:
                        for i in users[rid]:
                            if not fixed[i]:
                                fixed[i] = True
                                newly.append(i)
            while k < ncapped and caps[capped[k]] <= level:
                i = capped[k]
                if not fixed[i]:
                    fixed[i] = True
                    newly.append(i)
                k += 1
            if not newly:
                # Numerical corner: nothing bound this round. Fix all
                # remaining flows at the current level to terminate.
                newly = [i for i in range(n) if not fixed[i]]
                for i in newly:
                    fixed[i] = True
            left -= len(newly)
            added: Dict[int, float] = {}
            for i in newly:
                rates[i] = level
                for rid in paths[i]:
                    added[rid] = added.get(rid, 0.0) + level
                    pending[rid] -= 1
            for rid, load in added.items():
                p = pending[rid]
                if p:
                    fixed_load[rid] = total = fixed_load[rid] + load
                    levels[rid] = (capacities[rid] - total) / p
                else:
                    del levels[rid]

        return rates, rounds
