"""Repository benchmark: end-to-end host time of the simulator's surfaces.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7-eager --seed 0 --seconds 30 --trace 0

Workloads and metrics are described in ``BENCHMARK.json``; the
baseline and its notes are in ``perfbench/baseline.json``. Every run
does a fixed amount of work, so its samples do not depend on how fast
the host is: one-shot workloads make one pass over their grid and
``service-session`` measures one 110-batch session. ``--seconds`` is
accepted for the common benchmark interface and does not change the
work; each workload's work is sized to take about ``run_seconds`` of
BENCHMARK.json on a 2-vCPU host. With ``--trace 0`` the last
stdout line carries every end-to-end metric; with ``--trace 1`` the
same work runs under the traced launcher (``perfbench/traced.py``) and
the line carries every per-layer metric.

End-to-end times are the program's busy time at a reference host
speed: the run is pinned to one CPU beside a low-priority calibrator
(``perfbench/hostspeed.py``), and each measured interval is divided by
how much slower than the reference the CPU ran during it. Stdout also
shows every value as measured. Traced runs are unpinned wall time.
Every simulated record is checked against ``perfbench/reference``; any
failed point makes the exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # at least this many no-simulation CLI starts per one-shot run
SERVICE_SETUP_PROBES = 4  # server spawns per service run (incl. the session's)


class Tally:
    """Attempted/failed points, their records and per-batch wall times."""

    def __init__(self, ref: Dict[str, dict]):
        self.ref = ref
        self.attempted = 0
        self.failures: List[str] = []
        self.checked: List[tuple] = []
        self.batches: List[hostspeed.Interval] = []

    def check(self, point, record: Optional[dict], error: str = "") -> None:
        self.attempted += 1
        why = error and f"{reference.point_key(point)}: {error}"
        why = why or reference.mismatch(self.ref, point, record)
        if why:
            self.failures.append(why)
        self.checked.append((point, record))

    @property
    def completed(self) -> int:
        return self.attempted - len(self.failures)


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples around it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Largest RSS of any reaped descendant: the program, not the benchmark
    (read before the calibrator is reaped)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- one-shot workloads -------------------------------------------------
def run_oneshot(plan, workdir: Path, tally: Tally, clock,
                trace_dir: Optional[Path]) -> dict:
    """One pass over ``plan.invocations``, one fresh process each."""
    # Start-up probes are spread over the pass, so one slow spell of the
    # host does not decide their median.
    per_inv = 0 if trace_dir else -(-SETUP_PROBES // len(plan.invocations))
    setup: List[hostspeed.Interval] = []
    for n, inv in enumerate(plan.invocations):
        setup += [runner.probe_startup(workdir, clock) for _ in range(per_inv)]
        out = runner.run_invocation(inv, workdir, clock, trace_dir, f"i{n}")
        tally.batches.append(out.time)
        for point, record in zip(inv.points, out.records):
            tally.check(point, record, out.error)
    return {"setup": setup}


# -- service-session ----------------------------------------------------
def run_service(plan, workdir: Path, tally: Tally, clock,
                trace_dir: Optional[Path]) -> dict:
    """One ``repro serve`` session of ``plan.batches`` in a closed loop."""
    from repro.core.sweep import SweepPoint
    from repro.errors import ServiceError
    from repro.machine import hornet

    spec = hornet(nodes=workloads.NODES)
    setup: List[hostspeed.Interval] = []

    def probe_servers(count: int) -> None:
        for _ in range(0 if trace_dir else count):
            with runner.Server(workdir, clock) as probe:
                setup.append(probe.setup)

    # Extra server starts go before and after the session (the session's
    # own start is one more sample).
    probe_servers(SERVICE_SETUP_PROBES // 2)
    rec = spans.Recorder(trace_dir, "client") if trace_dir else None
    with runner.Server(workdir, clock, trace_dir) as server:
        setup.append(server.setup)
        client = server.client

        def send(points) -> Dict[int, tuple]:
            return dict(client.sweep(spec, points, timeout=120.0))

        if rec is not None:
            # Client-side spans: one per batch, one per wire request (a
            # resumed sweep re-requests, so extra sweep requests are retries).
            send = rec.wrap(send, "service.batch")
            client._request = rec.wrap(
                client._request, "service.request",
                lambda a, k, r: {"op": a[0].get("op")},
            )
        for batch in plan.batches:
            clock.start()
            got: Dict[int, tuple] = {}
            error = ""
            try:
                got = send([SweepPoint(alg, p, n) for alg, p, n, _ in batch])
            except (OSError, ServiceError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            tally.batches.append(clock.stop())
            for i, point in enumerate(batch):
                outcome = got.get(i)
                if outcome is not None and outcome[0] == "ok":
                    tally.check(point, dataclasses.asdict(outcome[1]))
                else:
                    why = error or (f"{outcome[1]}: {outcome[2]}" if outcome else "")
                    tally.check(point, None, why)
        stats = client.stats(timeout=10.0)
        cache_bytes = runner.dir_bytes(server.cache_dir / "shards")
    probe_servers(SERVICE_SETUP_PROBES - 1 - SERVICE_SETUP_PROBES // 2)
    if rec is not None:
        rec.flush()
    return {
        "setup": setup,
        "stats": stats,
        "cache_bytes": cache_bytes,
    }


# -- metrics ------------------------------------------------------------
def end_to_end(tally: Tally, res: dict,
               seconds: Callable[[hostspeed.Interval], float]) -> Dict[str, tuple]:
    """Every end-to-end metric, with intervals read as *seconds*."""
    batch_s = [seconds(i) for i in tally.batches]
    return {
        "points_per_s": (tally.completed / sum(batch_s), "1/s"),
        "setup_s": (statistics.median(seconds(i) for i in res["setup"]), "s"),
        "batch_s.p50": (quantile(batch_s, 50), "s"),
        "batch_s.p90": (quantile(batch_s, 90), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(plan, tally: Tally, res: dict, trace_dir: Path) -> Dict[str, tuple]:
    """Every per-layer metric of a traced (wall-clock) run."""
    measured_s = sum(i.busy_s for i in tally.batches)
    all_spans, procs = spans.load(trace_dir)
    dur = spans.durations(all_spans)
    own = spans.self_times(all_spans)
    cnt = spans.counts(all_spans)
    records = [s["attrs"] for s in all_spans if s["name"] == "core.api.simulate"]
    serving = plan.batches != ()

    def total(key: str, engine: Optional[str] = None) -> float:
        return sum(r[key] for r in records if engine in (None, r["engine"]))

    gets = [s for s in all_spans if s["name"] == "core.diskcache.get"]
    hits = sum(1 for s in gets if s["attrs"].get("hit"))
    calls = cnt.get("core.api.simulate", 0)
    extracts = cnt.get("collectives.schedule.extract", 0)
    run_s = dur.get("sim.replay.run", 0.0)
    frontier = run_s - spans.attr_sum(all_spans, "sim.replay.run", "solve_s")
    replay_sends = spans.attr_sum(all_spans, "sim.replay.init", "sends")
    launched = [p for p in procs if "import_s" in p]

    if serving:
        stats = res["stats"]
        rpc_s = dur.get("service.batch", 0.0) - dur.get("service.handle", 0.0)
        # Server time not spent in the cache or in a worker's simulation.
        inner = [(s["start"], s["end"]) for s in all_spans
                 if s["name"] in ("core.diskcache.get", "core.diskcache.put",
                                  "core.api.simulate")]
        unattributed = sum(
            s["end"] - s["start"] - spans.covered(s["start"], s["end"], inner)
            for s in all_spans if s["name"] == "service.handle"
        )
        retries = sum(
            1 for s in all_spans
            if s["name"] == "service.request" and s["attrs"].get("op") == "sweep"
        ) - len(plan.batches)
        respawns, quarantined = stats["respawns"], stats["quarantined"]
        cli_self = 0.0
    else:
        rpc_s, retries, respawns, quarantined = 0.0, 0, 0, 0
        # Process wall not covered by the import or by cli.main's tree.
        unattributed = measured_s - sum(
            p["import_s"] for p in launched) - dur.get("cli.main", 0.0)
        cli_self = own.get("cli.main", 0.0)

    m = {
        "cli.import_s": (sum(p["import_s"] for p in launched), "s"),
        "cli.self_s": (cli_self, "s"),
        "core.executor.self_s": (own.get("core.executor.run", 0.0), "s"),
        "core.diskcache.get_s": (dur.get("core.diskcache.get", 0.0), "s"),
        "core.diskcache.put_s": (dur.get("core.diskcache.put", 0.0), "s"),
        "core.diskcache.gets": (len(gets), "count"),
        "core.diskcache.puts": (cnt.get("core.diskcache.put", 0), "count"),
        "core.diskcache.hit_ratio": (hits / len(gets) if gets else 0.0, "ratio"),
        "core.diskcache.dir_bytes": (res.get("cache_bytes", 0), "B"),
        "service.rpc_s": (rpc_s, "s"),
        "service.retries": (retries, "count"),
        "service.respawns": (respawns, "count"),
        "service.quarantined": (quarantined, "count"),
        "core.api.simulate_s": (dur.get("core.api.simulate", 0.0), "s"),
        "core.api.self_s": (own.get("core.api.simulate", 0.0), "s"),
        "core.api.calls": (calls, "count"),
        "core.api.extracts_per_call": (extracts / calls if calls else 0.0, "ratio"),
        "collectives.schedule.extract_s": (
            dur.get("collectives.schedule.extract", 0.0), "s"),
        "collectives.schedule.extracts": (extracts, "count"),
        "collectives.schedule.sends": (
            spans.attr_sum(all_spans, "collectives.schedule.extract", "sends"),
            "count"),
        "sim.replay.compile_s": (dur.get("sim.replay.compile", 0.0), "s"),
        "sim.replay.compiles": (cnt.get("sim.replay.compile", 0), "count"),
        "sim.replay.init_s": (dur.get("sim.replay.init", 0.0), "s"),
        "sim.replay.run_s": (run_s, "s"),
        "sim.replay.frontier_s": (frontier, "s"),
        "sim.replay.sends": (replay_sends, "count"),
        "sim.replay.frontier_us_per_send": (
            frontier / replay_sends * 1e6 if replay_sends else 0.0, "us"),
        "solve.replay_s": (total("solver_time_s", "replay"), "s"),
        "solve.des_s": (total("solver_time_s", "des"), "s"),
        "solve.solves": (total("solves"), "count"),
        "solve.rounds": (total("rounds"), "count"),
        "solve.memo_entries": (
            max((p.get("memo_entries", 0) for p in procs), default=0), "count"),
        "mpi.job.run_s": (dur.get("mpi.job.run", 0.0), "s"),
        "mpi.reliable.retrans": (total("retrans"), "count"),
        "mpi.reliable.acks": (total("acks"), "count"),
        "mpi.reliable.timeouts": (total("timeouts"), "count"),
        "core.sweep.render_s": (dur.get("core.sweep.render", 0.0), "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.points_per_s": (tally.completed / measured_s, "1/s"),
        "trace.spans": (len(all_spans), "count"),
    }
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (runner.SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program source at {runner.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(runner.SRC))
    plan = workloads.make_plan(args.workload, args.seed)
    tally = Tally(reference.load(args.workload))
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runner.work_root()))
    trace_dir = workdir / "spans" if args.trace else None
    if trace_dir:
        trace_dir.mkdir()
    # Traced runs time the program's own spans, which the calibrator
    # would stretch, so they run unpinned on plain wall time.
    clock = hostspeed.WallClock()
    try:
        if not trace_dir:
            clock = hostspeed.HostClock(workdir)
        run = run_service if plan.batches else run_oneshot
        res = run(plan, workdir, tally, clock, trace_dir)
        if trace_dir:
            metrics = measured = per_layer(plan, tally, res, trace_dir)
        else:
            metrics = end_to_end(tally, res, clock.reference_s)
            measured = end_to_end(tally, res, lambda i: i.busy_s)
            print(f"host_slowdown {clock.slowdown():.4f} (calibrator CPU per "
                  f"unit / {hostspeed.REFERENCE_UNIT_S} s, pooled)")
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in tally.failures[:20]:
        print(f"FAIL {failure}")
    print(f"env {json.dumps(runner.environment_record(), sort_keys=True)}")
    print(f"records {reference.digest(tally.checked)} ({len(tally.checked)} points)")
    print(f"fail_ratio {len(tally.failures)}/{tally.attempted}")
    print(f"batches {len(tally.batches)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} (as measured {measured[name][0]:.6g})")
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
