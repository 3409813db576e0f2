"""Tests of the benchmark itself: generator, reference check, span math.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

import json
import os

import pytest

import reference
import spans
import workloads

EAGER = 8 * 1024  # hornet eager threshold


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert workloads.make_plan(name, 5) == workloads.make_plan(name, 5)
    assert workloads.make_plan(name, 0) == workloads.make_plan(name, 0)


def test_default_seed_is_the_named_grid():
    fig7 = workloads.make_plan("fig7-eager", 0)
    assert [i.points[0][1] for i in fig7.invocations] == [9, 17, 33, 65, 129, 257]
    assert {p[2] for p in fig7.points} == {12288}
    fig6b = workloads.make_plan("fig6b-rndv", 0)
    assert [i.points[0][2] for i in fig6b.invocations] == [2**k for k in range(19, 26)]
    chaos = workloads.make_plan("chaos-des", 0)
    assert {p[3] for p in chaos.points} == {7}
    assert chaos.invocations[0].argv[-4:] == (
        "--fault-drop", "0.01", "--fault-seed", "7")


def _shape(plan):
    """Seed-independent shape: point count per invocation and regimes."""
    if plan.batches:
        return [len(b) for b in plan.batches]
    shape = []
    for inv in plan.invocations:
        regimes = tuple(
            (alg, n // p <= EAGER, fs is None) for alg, p, n, fs in inv.points
        )
        shape.append((len(inv.points), regimes))
    return shape


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_other_seed_keeps_shape(name, seed):
    assert _shape(workloads.make_plan(name, seed)) == _shape(
        workloads.make_plan(name, 0))


def test_seeds_vary_inputs():
    for name in ("fig7-eager", "fig6b-rndv", "service-session"):
        plans = {workloads.make_plan(name, s) for s in range(1, 6)}
        assert len({p.invocations or p.batches for p in plans}) > 1, name
    assert len({workloads.make_plan("chaos-des", s).points[0][3]
                for s in range(1, 20)}) > 1


def test_fig7_ranks_stay_in_their_octave():
    for seed in range(50):
        plan = workloads.make_plan("fig7-eager", seed)
        for k, inv in zip(workloads.FIG7_OCTAVES, plan.invocations):
            nranks = inv.points[0][1]
            assert 2**k < nranks < 2 ** (k + 1) and nranks % 2 == 1


def test_service_session_misses_each_pool_point_once():
    for seed in (0, 3, 99):
        batches = workloads.make_plan("service-session", seed).batches
        assert len(batches) == workloads.SERVICE_BATCHES
        seen = set()
        for b, batch in enumerate(batches):
            assert len(set(batch)) == workloads.SERVICE_BATCH
            fresh = [p for p in batch if p not in seen]
            assert len(fresh) <= (workloads.SERVICE_BATCH if b == 0 else 1)
            seen.update(batch)
        assert seen == set(workloads.service_pool())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_draws_referenced_points(name):
    ref = reference.load(name)
    pool = {reference.point_key(p)
            for inv in workloads.reference_pool(name) for p in inv.points}
    assert pool == set(ref)
    for seed in range(40):
        for point in workloads.make_plan(name, seed).points:
            assert reference.point_key(point) in ref


def _record(point, ref):
    alg, nranks, nbytes, _ = point
    return {"algorithm": alg, "nranks": nranks, "nbytes": nbytes,
            "solver_time_s": 0.123, **ref[reference.point_key(point)]}


def test_reference_accepts_exact_and_rejects_one_perturbed_record():
    ref = reference.load("chaos-des")
    points = workloads.make_plan("chaos-des", 0).points
    records = [_record(p, ref) for p in points]
    assert all(reference.mismatch(ref, p, r) == "" for p, r in zip(points, records))

    bad = dict(records[3], retrans_messages=records[3]["retrans_messages"] + 1)
    why = reference.mismatch(ref, points[3], bad)
    assert "retrans_messages" in why
    bumped = dict(records[0], time=records[0]["time"] * (1 + 2**-52))
    assert "time" in reference.mismatch(ref, points[0], bumped)
    assert "no outcome" in reference.mismatch(ref, points[0], None)


def test_host_telemetry_is_not_compared_and_digest_is_bitwise():
    ref = reference.load("fig7-eager")
    points = workloads.make_plan("fig7-eager", 0).points
    a = [(p, _record(p, ref)) for p in points]
    b = [(p, dict(r, solver_time_s=9.9, engine="des")) for p, r in a]
    assert all(reference.mismatch(ref, p, r) == "" for p, r in b)
    assert reference.digest(a) == reference.digest(b)
    c = list(a)
    c[-1] = (c[-1][0], dict(c[-1][1], messages=c[-1][1]["messages"] - 1))
    assert reference.digest(a) != reference.digest(c)


def _span(sid, parent, name, start, end, pid=1):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "attrs": {}}


def test_self_time_on_synthetic_tree():
    tree = [
        _span(1, 0, "cli", 0.0, 10.0),
        _span(2, 1, "exec", 1.0, 9.0),
        _span(3, 2, "sim", 2.0, 5.0),
        _span(4, 2, "sim", 6.0, 8.0),
        _span(5, 3, "extract", 2.5, 3.5),
        # A span of another process with a colliding parent id is not a
        # child of span 2 in process 1.
        _span(6, 2, "sim", 0.0, 10.0, pid=2),
    ]
    own = spans.self_times(tree)
    assert own["cli"] == pytest.approx(2.0)
    assert own["exec"] == pytest.approx(3.0)
    assert own["sim"] == pytest.approx(2.0 + 2.0 + 10.0)
    assert own["extract"] == pytest.approx(1.0)
    # Self times of one process partition its root span.
    assert sum(own.values()) - 10.0 == pytest.approx(10.0)
    assert spans.durations(tree)["sim"] == pytest.approx(15.0)
    assert spans.counts(tree)["sim"] == 3


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 3), (2, 4), (6, 7)]) == pytest.approx(4)
    assert spans.covered(2, 5, [(0, 3), (4, 9)]) == pytest.approx(2)
    assert spans.covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8)


def test_recorder_nests_and_flushes(tmp_path):
    rec = spans.Recorder(tmp_path, "t")
    inner = rec.wrap(lambda x: x * 2, "inner", lambda a, k, r: {"out": r})
    outer = rec.wrap(lambda x: inner(x) + inner(x), "outer")
    assert outer(3) == 12
    with pytest.raises(ZeroDivisionError):
        rec.wrap(lambda: 1 / 0, "boom")()
    rec.process["import_s"] = 0.5
    rec.flush()
    got, procs = spans.load(tmp_path)
    assert procs[0]["import_s"] == 0.5
    by_name = {}
    for s in got:
        by_name.setdefault(s["name"], []).append(s)
    (o,) = by_name["outer"]
    assert o["parent"] == 0
    assert [s["parent"] for s in by_name["inner"]] == [o["id"], o["id"]]
    assert [s["attrs"] for s in by_name["inner"]] == [{"out": 6}, {"out": 6}]
    assert by_name["boom"][0]["parent"] == 0
    assert json.loads((tmp_path / f"spans-t-{o['pid']}.jsonl")
                      .read_text().splitlines()[0])["kind"] == "process"


def test_intervals_scale_by_their_own_units_or_the_pooled_ones(tmp_path):
    import hostspeed

    clock = hostspeed.HostClock(tmp_path)
    clock.close()
    ref = hostspeed.REFERENCE_UNIT_S
    long = hostspeed.Interval(4.0, 10, 10 * 2 * ref)  # host at half speed
    short = hostspeed.Interval(0.5, 1, 4 * ref)  # too few units alone
    clock.intervals = [long, short]
    assert clock.slowdown(long) == pytest.approx(2.0)
    assert clock.reference_s(long) == pytest.approx(2.0)
    assert clock.slowdown() == pytest.approx(24 / 11)
    assert clock.reference_s(short) == pytest.approx(0.5 * 11 / 24)
    assert hostspeed.WallClock().reference_s(long) == 4.0


def test_host_clock_counts_busy_time_not_waiting(tmp_path):
    import time

    import hostspeed

    cpus = os.sched_getaffinity(0)
    clock = hostspeed.HostClock(tmp_path)
    try:
        assert os.sched_getaffinity(0) == {min(cpus)}
        clock.start()
        time.sleep(0.5)  # the calibrator has the CPU to itself
        idle = clock.stop().busy_s
        clock.start()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        busy = clock.stop()
        assert idle < 0.1 < busy.busy_s
        assert busy.units > 0 and clock.slowdown(busy) > 0
    finally:
        clock.close()
    assert clock.proc.returncode is not None
    assert os.sched_getaffinity(0) == cpus
