"""Certified schedule emission against extraction (repro.collectives.emit).

The emitter lays the scatter-ring broadcasts and the ring allgather out
from their certificate instead of running them through the schedule
executor. Against ``compile_schedule(extract_schedule(...))`` it
asserts two things:

* the schedules are equal up to a send renumbering — same per-rank op
  kinds, the same ``(src, dst, nbytes, tag)`` for every send under the
  bijection op positions induce, the same receive matching and waits.
  Checked at every P in [2, 64] plus 129 and 257, over roots
  {0, 1, P-1} and sizes {0, 1, 3P+1, 12 KiB, 512 KiB} (empty,
  mostly-empty, uneven, eager and rendezvous chunks on hornet): the
  full root x size grid up to P = 16, one rotating (root, size) cell
  per collective above that, so every cell of the grid recurs across
  the larger P. Extraction costs ~45 us per send, which prices the
  full grid at every P out of the tier-1 suite; ``repro prove --xval``
  (tests/analysis/test_certify.py) adds root 0 at 64 KiB for every
  P in [2, 64].
* the replay engine's results are bitwise equal — makespan, per-rank
  finish times, every wire counter, completed flows and every
  ``SolverStats`` count (``solve_time_s`` is host time) — on the cells
  of :data:`REPLAY_CELLS`: both protocols, every root, pof2 and non-pof2
  P, empty and uneven chunks.

The ring allgather ignores the root, so it runs at root 0 only.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.verify import REGISTRY
from repro.collectives.emit import EMITTED, emit_schedule, schedule_mismatches
from repro.collectives.schedule import extract_schedule
from repro.core import api
from repro.errors import CollectiveError, ReplayUnsupportedError
from repro.machine import Machine, hornet
from repro.sim.replay import (
    OP_IRECV,
    OP_RECV,
    OP_SEND,
    ReplayEngine,
    compile_schedule,
)

RANKS = list(range(2, 65)) + [129, 257]
RINGS = ("bcast_native", "bcast_opt", "allgather_ring")
FULL_GRID_UP_TO = 16


def _grid(name, P):
    roots = (0,) if name == "allgather_ring" else sorted({0, min(1, P - 1), P - 1})
    sizes = (0, 1, 3 * P + 1, 12 * 1024, 512 * 1024)
    return [(root, nbytes) for root in roots for nbytes in sizes]


def _cells(name, P):
    """The (root, nbytes) cells whose schedules are compared at P."""
    grid = _grid(name, P)
    if P <= FULL_GRID_UP_TO:
        return grid
    return [grid[(P + 5 * RINGS.index(name)) % len(grid)]]


def _extracted(name, P, nbytes, root):
    return compile_schedule(
        extract_schedule(P, REGISTRY[name].build(P, nbytes, root))
    )


def _replay(schedule, P, nbytes):
    result = ReplayEngine(Machine(hornet(), P), schedule, working_set=nbytes).run()
    stats = dataclasses.asdict(result.solver_stats)
    del stats["solve_time_s"]
    return (
        result.time,
        list(result.rank_finish_times),
        dataclasses.asdict(result.counters),
        result.flows_completed,
        stats,
    )


@pytest.mark.parametrize("P", RANKS)
@pytest.mark.parametrize("name", RINGS)
def test_schedule_equals_extraction(name, P):
    for root, nbytes in _cells(name, P):
        emitted = emit_schedule(name, P, nbytes, root)
        reference = _extracted(name, P, nbytes, root)
        cell = f"{name} P={P} root={root} nbytes={nbytes}"
        assert schedule_mismatches(emitted, reference) == [], cell


def test_rotation_covers_the_grid():
    # Every (root position, size position) cell recurs above P = 16.
    for name in RINGS:
        seen = set()
        for P in RANKS:
            if P > FULL_GRID_UP_TO:
                grid = _grid(name, P)
                seen.add(grid.index(_cells(name, P)[0]))
        assert seen == set(range(len(_grid(name, 64)))), name


#: (P, root, nbytes) replay cells, each run for both rings and the
#: allgather (whose root is forced to 0).
REPLAY_CELLS = [
    (2, 1, 0),
    (2, 0, 512 * 1024),
    (3, 2, 1),
    (5, 1, 16),
    (5, 4, 512 * 1024),
    (8, 0, 12 * 1024),
    (8, 7, 25),
    (13, 1, 12 * 1024),
    (13, 12, 40),
    (16, 15, 512 * 1024),
    (16, 0, 1),
    (33, 32, 100),
    (33, 1, 512 * 1024),
    (64, 1, 12 * 1024),
    (129, 128, 388),
]


@pytest.mark.parametrize("P,root,nbytes", REPLAY_CELLS)
@pytest.mark.parametrize("name", RINGS)
def test_replay_is_bitwise_equal(name, P, root, nbytes):
    if name == "allgather_ring":
        root = 0
    emitted = emit_schedule(name, P, nbytes, root)
    reference = _extracted(name, P, nbytes, root)
    assert _replay(emitted, P, nbytes) == _replay(reference, P, nbytes)


@pytest.mark.parametrize("P", [1, 2, 3, 8, 13, 64])
def test_scatter_alone_is_emitted_exactly(P):
    for root, nbytes in _grid("scatter", P):
        reference = _extracted("scatter", P, nbytes, root)
        emitted = emit_schedule("scatter", P, nbytes, root)
        assert schedule_mismatches(emitted, reference) == []


@pytest.mark.parametrize("name", RINGS)
def test_single_rank_is_empty(name):
    emitted = emit_schedule(name, 1, 4096)
    assert emitted.n_sends == 0 and emitted.ranks == [0]
    assert schedule_mismatches(emitted, _extracted(name, 1, 4096, 0)) == []


class TestMismatchesAreReported:
    def _pair(self):
        reference = _extracted("bcast_opt", 8, 12288, 0)
        return emit_schedule("bcast_opt", 8, 12288, 0), reference

    def test_changed_bytes(self):
        emitted, reference = self._pair()
        emitted.send_nbytes = emitted.send_nbytes.copy()
        emitted.send_nbytes[3] += 1
        (line,) = schedule_mismatches(emitted, reference)
        assert "send_nbytes" in line

    def test_swapped_receive_matches(self):
        emitted, reference = self._pair()
        # Point rank 7's first ring receive at another send of rank 6.
        kinds, args = emitted.op_kinds[7], emitted.op_args[7].copy()
        recvs = np.flatnonzero((kinds == OP_RECV) | (kinds == OP_IRECV))
        args[recvs[1]], args[recvs[2]] = args[recvs[2]], args[recvs[1]]
        emitted.op_args[7] = args
        assert any("receive op" in m for m in schedule_mismatches(emitted, reference))

    def test_changed_op_kinds(self):
        emitted, reference = self._pair()
        kinds = emitted.op_kinds[0].copy()
        kinds[-1] = OP_SEND if kinds[-1] != OP_SEND else OP_RECV
        emitted.op_kinds[0] = kinds
        assert "op kinds" in schedule_mismatches(emitted, reference)[0]


class TestEmitterContract:
    def test_emitted_set_is_certified_shape(self):
        from repro.collectives.certificates import CERTIFICATES

        assert EMITTED <= set(CERTIFICATES)
        assert set(RINGS) <= EMITTED

    def test_production_algorithms_map_into_emitted(self):
        assert set(api._EMITTED_ALGORITHMS.values()) <= EMITTED

    def test_uncertified_collective_rejected(self):
        with pytest.raises(ReplayUnsupportedError):
            emit_schedule("bcast_binomial", 8, 4096)

    @pytest.mark.parametrize("P,nbytes,root", [(0, 8, 0), (4, -1, 0), (4, 8, 4)])
    def test_bad_points_are_typed(self, P, nbytes, root):
        with pytest.raises(CollectiveError):
            emit_schedule("bcast_opt", P, nbytes, root)
