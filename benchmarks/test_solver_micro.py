"""Fluid-solver microbenchmarks: churn throughput and grid differentials.

Two kinds of check on the incremental, component-aware solver
(``docs/performance.md``):

* **Churn micro** — ring-allgather-shaped flow churn driven straight at
  a :class:`~repro.sim.FlowNetwork` at P in {16, 64, 256}, timed for
  both solver modes. The incremental path must beat the
  ``FlowNetwork(engine, solver="reference")`` from-scratch path on
  solver wall time at P=256 (the BENCH_solver.json acceptance bar is
  >= 2x) while producing the identical simulated schedule.
* **Grid differential** — the full fig6a and fig7 sweeps on the default
  engines must match, bitwise at every grid point, the same sweeps run
  on the DES with every flow network built in reference mode (honours
  ``REPRO_BENCH_FAST`` axis trimming like every other bench).
"""

import functools

import pytest

from repro.bench import NATIVE, OPT, fig6, fig7, solver_churn
from repro.mpi import runtime
from repro.sim import FlowNetwork

from conftest import publish

CHURN_RANKS = (16, 64, 256)


def _churn_pair(nranks):
    inc = solver_churn(nranks, solver="incremental")
    ref = solver_churn(nranks, solver="reference")
    return inc, ref


def test_solver_churn_micro(benchmark):
    """Both solvers replay the identical churn; incremental is faster."""
    rows = [
        "Solver churn micro (ring-allgather shape, 8 ranks/node):",
        f"  {'P':>4} {'flows':>6} {'inc solve ms':>13} {'ref solve ms':>13} "
        f"{'speedup':>8} {'max comp':>9}",
    ]
    speedups = {}
    for nranks in CHURN_RANKS:
        inc, ref = _churn_pair(nranks)
        # The two implementations must describe the same simulation ...
        assert inc.sim_time == ref.sim_time
        assert inc.flows_completed == ref.flows_completed
        assert inc.flows_cancelled == ref.flows_cancelled
        # ... and both must actually record telemetry.
        for result in (inc, ref):
            assert result.stats.solves > 0
            assert result.stats.rounds >= result.stats.solves
            assert result.stats.solve_time_s > 0.0
            assert result.stats.max_component <= result.nranks
        speedup = ref.solve_time_s / inc.solve_time_s
        speedups[nranks] = speedup
        rows.append(
            f"  {nranks:>4} {inc.flows_completed + inc.flows_cancelled:>6} "
            f"{inc.solve_time_s * 1e3:>13.2f} {ref.solve_time_s * 1e3:>13.2f} "
            f"{speedup:>7.2f}x {inc.stats.max_component:>9}"
        )
    publish("solver_churn", "\n".join(rows))
    # The acceptance bar: at P=256 the incremental solver at least
    # halves solver wall time relative to the reference path.
    assert speedups[256] >= 2.0

    benchmark.pedantic(
        lambda: solver_churn(256, solver="incremental").solve_time_s,
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("exp_factory", [lambda: fig6("a"), fig7], ids=["fig6a", "fig7"])
def test_solver_differential_on_figure_grids(exp_factory, benchmark, monkeypatch):
    """Incremental and reference solvers agree bitwise on whole figure
    grids — every simulated time, message count and byte count."""
    grids, modes = {}, {}
    for mode in ("incremental", "reference"):
        with monkeypatch.context() as patch:
            if mode == "reference":
                # The reference oracle runs on the DES, whose flow
                # networks are built through this constructor.
                patch.setenv("REPRO_ENGINE", "des")
                patch.setattr(
                    runtime,
                    "FlowNetwork",
                    functools.partial(FlowNetwork, solver="reference"),
                )
            exp = exp_factory()
            exp.run()  # no disk cache: both modes must really simulate
            recs = [
                exp.sweep.record(algo, p, size)
                for algo in (NATIVE, OPT)
                for p in exp.ranks_axis
                for size in exp.sizes_axis
            ]
        modes[mode] = {rec.solver_mode for rec in recs}
        grids[mode] = {
            (rec.algorithm, rec.nranks, rec.nbytes): (
                rec.time,
                rec.messages,
                rec.bytes_on_wire,
            )
            for rec in recs
        }
    assert grids["incremental"] == grids["reference"]
    assert len(grids["incremental"]) >= 4
    assert modes["reference"] == {"reference"}

    benchmark.pedantic(lambda: len(grids["incremental"]), rounds=1, iterations=1)
