"""Seeded workload generator for the repository benchmark.

Every workload turns a seed into the exact inputs the program sees:
argv lists for fresh ``python -m repro`` processes (one-shot workloads)
or a list of request batches for a ``repro serve`` session. Nothing
else about a run depends on the seed.

Seed 0 reproduces the grid each workload is named after. Other seeds
draw from small finite pools chosen so that

* every point keeps its regime (eager ring chunks stay eager, the
  Fig. 6(b) sizes keep their chunk protocol) and the point count stays
  the same, and
* every point any seed can draw has a committed reference record
  (``perfbench/reference/*.json``), so correctness is checked on every
  seed, not only the default one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 0
ALGORITHMS = ("scatter_ring_native", "scatter_ring_opt")
NODES = 16
KIB = 1024
MIB = 1024 * KIB

# A point is (algorithm, nranks, nbytes, fault_seed); fault_seed is None
# for fault-free runs.
Point = Tuple[str, int, int, object]


@dataclass(frozen=True)
class Invocation:
    """One fresh ``python -m repro`` process and the points it must yield."""

    argv: Tuple[str, ...]
    points: Tuple[Point, ...]


@dataclass(frozen=True)
class Plan:
    """Everything one run of a workload feeds the program."""

    workload: str
    seed: int
    invocations: Tuple[Invocation, ...] = ()  # one-shot workloads
    batches: Tuple[Tuple[Point, ...], ...] = ()  # service-session

    @property
    def points(self) -> List[Point]:
        if self.invocations:
            return [p for inv in self.invocations for p in inv.points]
        return [p for batch in self.batches for p in batch]


def _sweep(nranks: int, sizes: List[int], fault_seed=None) -> Invocation:
    argv = [
        "sweep", "--nranks", str(nranks), "--nodes", str(NODES),
        "--sizes", ",".join(str(s) for s in sizes), "--no-cache",
    ]
    if fault_seed is not None:
        argv += ["--fault-drop", str(CHAOS_DROP), "--fault-seed", str(fault_seed)]
    points = tuple(
        (alg, nranks, size, fault_seed) for size in sizes for alg in ALGORITHMS
    )
    return Invocation(tuple(argv), points)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- fig7-eager --------------------------------------------------------
# P = 2^k + 1 + 2j (one odd, non-power-of-two P per octave) and a
# message whose ring chunks stay well under the 8 KiB eager threshold.
FIG7_OCTAVES = range(3, 9)  # P = 9 .. 257 at seed 0
FIG7_STEPS = (0, 1, 2)
FIG7_SIZES = (10 * KIB, 12 * KIB, 14 * KIB)


def _fig7_sweep(octave: int, step: int, size: int) -> Invocation:
    return _sweep(2**octave + 1 + 2 * step, [size])


def fig7_eager(seed: int) -> Plan:
    if seed == DEFAULT_SEED:
        steps, size = [0] * len(FIG7_OCTAVES), 12 * KIB
    else:
        rng = _rng("fig7-eager", seed)
        steps = [rng.choice(FIG7_STEPS) for _ in FIG7_OCTAVES]
        size = rng.choice(FIG7_SIZES)
    return Plan("fig7-eager", seed, tuple(
        _fig7_sweep(k, j, size) for k, j in zip(FIG7_OCTAVES, steps)))


# -- fig6b-rndv --------------------------------------------------------
# Fig. 6(b): P = 64, 512 KiB .. 32 MiB. Other seeds shave up to 2/16 of
# each octave's size, keeping every size divisible by P and every ring
# chunk on the same side of the eager threshold.
FIG6B_NRANKS = 64
FIG6B_OCTAVES = range(19, 26)
FIG6B_SHAVES = (0, 1, 2)


def _fig6b_sweep(octave: int, shave: int) -> Invocation:
    return _sweep(FIG6B_NRANKS, [2**octave - shave * 2 ** (octave - 4)])


def fig6b_rndv(seed: int) -> Plan:
    if seed == DEFAULT_SEED:
        shaves = [0] * len(FIG6B_OCTAVES)
    else:
        rng = _rng("fig6b-rndv", seed)
        shaves = [rng.choice(FIG6B_SHAVES) for _ in FIG6B_OCTAVES]
    return Plan("fig6b-rndv", seed, tuple(
        _fig6b_sweep(k, j) for k, j in zip(FIG6B_OCTAVES, shaves)))


# -- chaos-des ---------------------------------------------------------
CHAOS_RANKS = (33, 64, 129)
CHAOS_SIZES = (12 * KIB, 512 * KIB, 2 * MIB)
CHAOS_DROP = 0.01
CHAOS_FAULT_SEEDS = tuple(range(7, 15))  # 7 at seed 0


def _chaos_sweeps(fault_seed: int) -> Tuple[Invocation, ...]:
    return tuple(_sweep(p, list(CHAOS_SIZES), fault_seed) for p in CHAOS_RANKS)


def chaos_des(seed: int) -> Plan:
    if seed == DEFAULT_SEED:
        fault_seed = CHAOS_FAULT_SEEDS[0]
    else:
        fault_seed = _rng("chaos-des", seed).choice(CHAOS_FAULT_SEEDS)
    return Plan("chaos-des", seed, _chaos_sweeps(fault_seed))


# -- service-session ---------------------------------------------------
SERVICE_RANKS = (16, 33, 64)
SERVICE_SIZES = (12 * KIB, 128 * KIB, 1 * MIB, 8 * MIB)
SERVICE_BATCH = 4
SERVICE_BATCHES = 110  # p90 keeps >= 10 samples beyond it
# The first batch always holds the same four points (cheap P = 16
# cells), so the remaining first touches — one per batch — are the same
# set of points on every seed and the slow-batch tail keeps its shape.
SERVICE_OPENERS: Tuple[Point, ...] = tuple(
    (alg, 16, size, None) for size in (12 * KIB, 128 * KIB) for alg in ALGORITHMS
)


def service_pool() -> List[Point]:
    return [
        (alg, p, size, None)
        for p in SERVICE_RANKS
        for size in SERVICE_SIZES
        for alg in ALGORITHMS
    ]


def service_session(seed: int) -> Plan:
    """110 batches of 4 distinct points over a 24-point pool.

    Every pool point is requested for the first time exactly once (a
    cache miss: simulate and store); after the fixed opening batch each
    first touch sits alone in its own batch. All other slots repeat
    points already stored, drawn with a Zipf-like skew over a seeded
    popularity order, so they are cache hits.
    """
    rng = _rng("service-session", seed)
    rest = [p for p in service_pool() if p not in SERVICE_OPENERS]
    rng.shuffle(rest)
    miss_batches = sorted(rng.sample(range(1, SERVICE_BATCHES), len(rest)))
    first_touch: Dict[int, Point] = dict(zip(miss_batches, rest))
    popularity = list(SERVICE_OPENERS) + rest
    rng.shuffle(popularity)
    weight = {p: 1.0 / (rank + 1) for rank, p in enumerate(popularity)}

    touched = list(SERVICE_OPENERS)
    batches = [SERVICE_OPENERS]
    for b in range(1, SERVICE_BATCHES):
        batch = [first_touch[b]] if b in first_touch else []
        while len(batch) < SERVICE_BATCH:
            choices = [p for p in touched if p not in batch]
            batch.append(rng.choices(choices, [weight[p] for p in choices])[0])
        rng.shuffle(batch)
        batches.append(tuple(batch))
        if b in first_touch:
            touched.append(first_touch[b])
    return Plan("service-session", seed, batches=tuple(batches))


# Workload name -> generator. Only service-session yields batches; the
# others yield one-shot invocations.
WORKLOADS = {
    "fig7-eager": fig7_eager,
    "fig6b-rndv": fig6b_rndv,
    "service-session": service_session,
    "chaos-des": chaos_des,
}


def make_plan(workload: str, seed: int) -> Plan:
    return WORKLOADS[workload](seed)


def reference_pool(workload: str) -> List[Invocation]:
    """Every invocation any seed can generate (the reference universe),
    built by the generators' own helpers over every choice they draw from.

    For ``service-session`` the pool points are grouped by P into
    one-shot sweeps so references come from the same public CLI.
    """
    if workload == "fig7-eager":
        return [
            _fig7_sweep(k, j, size)
            for k in FIG7_OCTAVES
            for j in FIG7_STEPS
            for size in FIG7_SIZES
        ]
    if workload == "fig6b-rndv":
        return [_fig6b_sweep(k, j) for k in FIG6B_OCTAVES for j in FIG6B_SHAVES]
    if workload == "chaos-des":
        return [inv for fs in CHAOS_FAULT_SEEDS for inv in _chaos_sweeps(fs)]
    if workload == "service-session":
        sizes: Dict[int, List[int]] = {}
        for _, nranks, size, _ in service_pool():
            if size not in sizes.setdefault(nranks, []):
                sizes[nranks].append(size)
        return [_sweep(p, s) for p, s in sizes.items()]
    raise KeyError(workload)
