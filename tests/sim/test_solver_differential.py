"""Differential and bookkeeping tests for the incremental fluid solver.

The incremental, component-aware, memoised solver must be *bitwise*
equivalent to the from-scratch reference solver
(``FlowNetwork(engine, solver="reference")``): same rates after every
change, same completion order, same simulated timestamps. The
hypothesis test drives randomized add/cancel/complete churn through
both implementations and compares everything observable; the unit
tests pin down the component tracking and the O(1) removal bookkeeping
directly.
"""

import functools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.mpi import runtime
from repro.sim import Engine, FlowNetwork, Resource, SolverStats

CAPACITIES = [100.0, 250.0, 400.0, 150.0, 900.0, 60.0]


def _run_script(script, solver):
    """Execute one churn script on a fresh network; return observables.

    ``script`` is a list of operations, each a tuple:

    * ``("add", delay, nbytes, res_indices, rate_cap)``
    * ``("cancel", delay, flow_ordinal)`` — cancel the n-th added flow
      (modulo adds so far) if it is still active;
    * ``("probe", delay)`` — snapshot every active flow's rate.

    Delays are relative to the previous operation, so the script replays
    identically on both solvers.
    """
    eng = Engine()
    net = FlowNetwork(eng, solver=solver)
    resources = [Resource(f"r{i}", c) for i, c in enumerate(CAPACITIES)]
    added = []
    completions = []
    probes = []
    at = 0.0
    for op in script:
        kind, delay = op[0], op[1]
        at += delay
        if kind == "add":
            _, _, nbytes, res_idx, cap = op

            def do_add(nbytes=nbytes, res_idx=res_idx, cap=cap):
                tag = len(added)
                flow = net.add_flow(
                    nbytes,
                    [resources[i] for i in res_idx],
                    rate_cap=cap,
                    on_complete=lambda f, tag=tag: completions.append(
                        (tag, eng.now)
                    ),
                    meta=tag,
                )
                added.append(flow)

            eng.schedule(at - eng.now if at > eng.now else 0.0, do_add)
        elif kind == "cancel":
            _, _, ordinal = op

            def do_cancel(ordinal=ordinal):
                if added:
                    net.cancel_flow(added[ordinal % len(added)])

            eng.schedule(at - eng.now if at > eng.now else 0.0, do_cancel)
        else:  # probe

            def do_probe():
                net.flush()
                probes.append(
                    tuple(sorted((f.meta, f.rate) for f in net.active))
                )

            eng.schedule(at - eng.now if at > eng.now else 0.0, do_probe)
    eng.run()
    return {
        "completions": completions,
        "probes": probes,
        "final_time": eng.now,
        "completed": net.completed_count,
        "bytes": net.total_bytes_transferred,
        "memo_entries": len(net.memo or {}),
        "components": net.stats().components_solved,
    }


_add_op = st.tuples(
    st.just("add"),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    st.lists(
        st.integers(min_value=0, max_value=len(CAPACITIES) - 1),
        min_size=1,
        max_size=4,
    ),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
)
_cancel_op = st.tuples(
    st.just("cancel"),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.integers(min_value=0, max_value=63),
)
_probe_op = st.tuples(
    st.just("probe"), st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
)


# The same three-flow contention pattern, started three times over: the
# incremental solver's second and third rounds are answered from its memo.
_REPEATED_PATTERN = [
    op
    for _ in range(3)
    for op in (
        ("add", 60.0, 500.0, [0, 1], None),
        ("add", 0.0, 800.0, [1, 2], None),
        ("add", 0.0, 300.0, [0], 50.0),
        ("probe", 0.5),
    )
]


class TestDifferential:
    """Incremental and reference solvers are observably identical."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_add_op, _cancel_op, _probe_op), max_size=24))
    @example(_REPEATED_PATTERN)
    def test_randomized_churn_is_bitwise_identical(self, script):
        inc = _run_script(script, "incremental")
        ref = _run_script(script, "reference")
        if script == _REPEATED_PATTERN:
            # Memo hits happened: fewer kernel runs than component solves.
            assert inc["memo_entries"] < inc["components"]
        # Same completion order at the same (bitwise) timestamps.
        assert inc["completions"] == ref["completions"]
        # Same rate assignment at every probe point.
        assert inc["probes"] == ref["probes"]
        assert inc["final_time"] == ref["final_time"]
        assert inc["completed"] == ref["completed"]
        assert inc["bytes"] == ref["bytes"]

    def test_bcast_simulation_is_bitwise_identical(self, monkeypatch):
        from repro.core import simulate_bcast
        from repro.machine import hornet

        # Force the DES: this differential is about its two solver
        # modes, not about the replay engine's frontier loop.
        monkeypatch.setenv("REPRO_ENGINE", "des")
        spec = hornet(nodes=4)
        times = {}
        for mode in ("incremental", "reference"):
            with monkeypatch.context() as patch:
                if mode == "reference":
                    # Every DES job builds its network through this name.
                    reference = functools.partial(FlowNetwork, solver="reference")
                    patch.setattr(runtime, "FlowNetwork", reference)
                rec = simulate_bcast(spec, 8, 65536, algorithm="scatter_ring_opt")
            times[mode] = rec.time
            assert rec.solver_mode == mode
        assert times["incremental"] == times["reference"]


class TestSolverSelection:
    def test_default_is_incremental(self):
        assert FlowNetwork(Engine()).solver == "incremental"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError, match="unknown"):
            FlowNetwork(Engine(), solver="magic")


class TestEmptyPathValidation:
    def test_empty_path_without_cap_raises_at_add_time(self):
        eng = Engine()
        net = FlowNetwork(eng)
        with pytest.raises(
            SimulationError, match="no resources and no rate cap"
        ):
            net.add_flow(100.0, [])

    def test_empty_path_with_cap_completes(self):
        eng = Engine()
        net = FlowNetwork(eng)
        done = {}
        net.add_flow(
            100.0, [], rate_cap=10.0, on_complete=lambda f: done.setdefault("t", eng.now)
        )
        eng.run()
        assert math.isclose(done["t"], 10.0)

    def test_zero_byte_empty_path_still_allowed(self):
        eng = Engine()
        net = FlowNetwork(eng)
        done = {}
        net.add_flow(0.0, [], on_complete=lambda f: done.setdefault("t", eng.now))
        eng.run()
        assert done["t"] == 0.0


class TestComponentTracking:
    def test_disjoint_groups_solved_as_separate_components(self):
        eng = Engine()
        net = FlowNetwork(eng, solver="incremental")
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        for res in (a, a, b, b):
            net.add_flow(1000.0, [res])
        net.flush()
        stats = net.stats()
        assert stats.solves == 1
        assert stats.components_solved == 2
        assert stats.max_component == 2

    def test_untouched_component_is_not_resolved(self):
        eng = Engine()
        net = FlowNetwork(eng, solver="incremental")
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        f1 = net.add_flow(1000.0, [a])
        f2 = net.add_flow(1000.0, [a])
        net.flush()
        assert net.stats().components_solved == 1
        rate_before = (f1.rate, f2.rate)
        # A new flow on an unrelated resource dirties only its own
        # (singleton) component.
        net.add_flow(1000.0, [b])
        net.flush()
        stats = net.stats()
        assert stats.components_solved == 2
        assert stats.max_component == 2
        assert (f1.rate, f2.rate) == rate_before

    def test_shared_resource_merges_components(self):
        eng = Engine()
        net = FlowNetwork(eng, solver="incremental")
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        net.add_flow(1000.0, [a])
        net.add_flow(1000.0, [b])
        net.flush()
        # A bridging flow across both resources joins everything into
        # one three-flow component.
        net.add_flow(1000.0, [a, b])
        net.flush()
        assert net.stats().max_component == 3

    def test_cancel_resolves_only_the_touched_component(self):
        eng = Engine()
        net = FlowNetwork(eng, solver="incremental")
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        fa = net.add_flow(1000.0, [a])
        net.add_flow(1000.0, [a])
        fb = net.add_flow(1000.0, [b])
        net.flush()
        base = net.stats().components_solved
        net.cancel_flow(fa)
        net.flush()
        stats = net.stats()
        # Only resource a's component re-solved (one more kernel call),
        # and b's flow kept its rate.
        assert stats.components_solved == base + 1
        assert fb.rate == pytest.approx(100.0)

    def test_stats_are_a_frozen_snapshot(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        net.add_flow(500.0, [link])
        eng.run()
        stats = net.stats()
        assert isinstance(stats, SolverStats)
        assert stats.mode == net.solver
        assert stats.solves >= 1
        assert stats.rounds >= stats.solves
        assert stats.flows_advanced >= 0
        assert stats.solve_time_s >= 0.0
        assert stats.rounds_per_solve == stats.rounds / stats.solves
        assert "solver[" in stats.describe()
        with pytest.raises(AttributeError):
            stats.solves = 0


class TestRemovalBookkeeping:
    def test_completion_releases_slot_and_maps(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        flow = net.add_flow(500.0, [link])
        fid = flow.fid
        assert fid in net._flows
        eng.run()
        assert fid not in net._flows
        assert net.active_count == 0
        # No per-flow or per-component state leaks past completion.
        assert not (net._rem or net._rate or net._flow_comp or net._comp_flows)
        assert link.load == 0
        # Detached flow still reports its terminal state.
        assert flow.remaining == 0.0

    def test_slot_reuse_after_churn(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        for _ in range(50):
            net.add_flow(10.0, [link])
            eng.run()
        # Sequential churn keeps reusing the same interned path class,
        # and per-flow state never outlives its flow.
        assert len(net._class_rids) == 1
        assert not net._rem

    def test_cancel_is_o1_and_idempotent(self):
        eng = Engine()
        net = FlowNetwork(eng)
        link = Resource("link", 100.0)
        flows = [net.add_flow(1000.0, [link]) for _ in range(5)]
        net.flush()
        net.cancel_flow(flows[2])
        assert net.active_count == 4
        net.cancel_flow(flows[2])  # second cancel is a silent no-op
        assert net.active_count == 4
        assert flows[2].fid not in net._flows
        assert link.load == 4

    def test_duplicate_resource_multiplicity_tracked(self):
        eng = Engine()
        net = FlowNetwork(eng)
        mem = Resource("mem", 100.0)
        flow = net.add_flow(1000.0, [mem, mem])
        assert mem.load == 2
        assert mem.flows == [flow, flow]
        net.cancel_flow(flow)
        assert mem.load == 0
        assert mem.flows == []

    def test_detach_unknown_flow_still_raises(self):
        eng = Engine()
        net = FlowNetwork(eng)
        a = Resource("a", 100.0)
        b = Resource("b", 100.0)
        flow = net.add_flow(1000.0, [a])
        with pytest.raises(SimulationError, match="not attached"):
            b.detach(flow)
