"""Traced launcher: ``python -m repro`` with layer spans recorded.

Usage::

    python3 perfbench/traced.py --spans DIR --id INVOCATION -- <repro argv>

It imports ``repro.__main__`` (timed as the CLI import), wraps the
public entry point of each layer where its caller looks the name up,
then calls ``repro.__main__.main(argv)``. Spans are written to
``DIR/spans-<id>-<pid>.jsonl`` when the process exits; pool workers
forked by ``repro serve`` inherit the wrappers and write their own file.
The program itself is unchanged.
"""

from __future__ import annotations

import atexit
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Recorder  # noqa: E402


def _record_attrs(args, kwargs, rec):
    return {
        "engine": rec.engine,
        "solver_time_s": rec.solver_time_s,
        "solves": rec.solver_solves,
        "rounds": rec.solver_rounds,
        "retrans": rec.retrans_messages,
        "acks": rec.ack_messages,
        "timeouts": rec.timeouts,
    }


def _solve_s(result) -> float:
    stats = result.solver_stats
    return stats.solve_time_s if stats is not None else 0.0


def install(rec: Recorder, serving: bool) -> None:
    """Wrap each layer's public entry point (see BENCHMARK.json)."""
    import repro.core.api as api
    import repro.core.executor as executor
    from repro.core.diskcache import DiskCache
    from repro.core.sweep import Sweep
    from repro.mpi.runtime import Job
    from repro.sim.replay import ReplayEngine

    executor.simulate_bcast = rec.wrap(
        executor.simulate_bcast, "core.api.simulate", _record_attrs
    )
    api.extract_schedule = rec.wrap(
        api.extract_schedule,
        "collectives.schedule.extract",
        lambda a, k, r: {"sends": r.transfers},
    )
    api.compile_schedule = rec.wrap(api.compile_schedule, "sim.replay.compile")
    ReplayEngine.__init__ = rec.wrap(
        ReplayEngine.__init__,
        "sim.replay.init",
        lambda a, k, r: {"sends": (a[2] if len(a) > 2 else k["schedule"]).n_sends},
    )
    ReplayEngine.run = rec.wrap(
        ReplayEngine.run, "sim.replay.run", lambda a, k, r: {"solve_s": _solve_s(r)}
    )
    Job.run = rec.wrap(Job.run, "mpi.job.run")
    executor.SweepExecutor.run = rec.wrap(
        executor.SweepExecutor.run, "core.executor.run"
    )
    DiskCache.get = rec.wrap(
        DiskCache.get, "core.diskcache.get", lambda a, k, r: {"hit": r is not None}
    )
    DiskCache.put = rec.wrap(DiskCache.put, "core.diskcache.put")
    Sweep.to_table = rec.wrap(Sweep.to_table, "core.sweep.render")
    Sweep.to_csv = rec.wrap(Sweep.to_csv, "core.sweep.render")
    if serving:
        from repro.service.server import SimulationServer

        SimulationServer.handle_sweep = rec.wrap(
            SimulationServer.handle_sweep,
            "service.handle",
            lambda a, k, r: {"job": str(a[1].get("job", ""))},
        )


def _process_stats(rec: Recorder) -> None:
    replay = sys.modules.get("repro.sim.replay")
    if replay is not None:
        rec.process["memo_entries"] = replay.solve_memo_entries()


def main(argv) -> int:
    split = argv.index("--")
    opts, repro_argv = argv[:split], argv[split + 1:]
    out_dir = Path(opts[opts.index("--spans") + 1])
    invocation = opts[opts.index("--id") + 1]

    rec = Recorder(out_dir, invocation)
    t0 = time.perf_counter()
    import repro.__main__ as cli

    rec.process["import_s"] = time.perf_counter() - t0
    serving = bool(repro_argv) and repro_argv[0] == "serve"
    install(rec, serving)

    rec.on_exit = lambda: _process_stats(rec)
    rec.follow_forks()
    atexit.register(rec.flush)
    return rec.wrap(cli.main, "cli.serve" if serving else "cli.main")(repro_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
