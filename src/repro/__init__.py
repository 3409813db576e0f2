"""repro: reproduction of "A Bandwidth-saving Optimization for MPI
Broadcast Collective Operation" (Zhou et al., ICPP 2015).

A simulated-MPI testbed: a deterministic discrete-event machine model
(:mod:`repro.sim`, :mod:`repro.machine`), an MPI point-to-point runtime
(:mod:`repro.mpi`), the paper's native and tuned scatter-ring-allgather
broadcasts plus their MPICH peers (:mod:`repro.collectives`), and a
high-level experiment API (:mod:`repro.core`).

Quickstart::

    from repro import core, machine

    cmp = core.compare_bcast(machine.hornet(), nranks=64, nbytes="1MiB")
    print(cmp.describe())
"""

from . import collectives, core, machine, mpi, sim, util
from .errors import ReproError
from .core import compare_bcast, simulate_bcast, validate_bcast

__version__ = "1.0.0"


def __getattr__(name):
    # The analysis layer (certificates, model checker, gates) loads on
    # first use: simulating and sweeping never need it.
    if name == "analysis":
        from importlib import import_module

        return import_module(".analysis", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "analysis",
    "collectives",
    "core",
    "machine",
    "mpi",
    "sim",
    "util",
    "ReproError",
    "compare_bcast",
    "simulate_bcast",
    "validate_bcast",
    "__version__",
]
