"""Large-P structural tests via the zero-cost paths (no DES).

The closed forms, the schedule executor and the certified schedule
emitter are cheap enough to exercise the paper's arithmetic at scales
the timed simulator would labour over — up to 4096 ranks for pure
math, 512 for full schedule extraction, 1024 for emitted schedules.
"""

import numpy as np
import pytest

from repro.collectives import (
    bcast_scatter_ring_opt,
    extract_schedule,
    subtree_chunks,
    tuned_ring_role,
)
from repro.collectives.allgather_ring import RING_TAG
from repro.collectives.emit import emit_schedule
from repro.collectives.scatter import SCATTER_TAG
from repro.sim.replay import OP_IRECV, OP_ISEND, OP_RECV, OP_SEND
from repro.core import (
    ring_transfers_native,
    ring_transfers_tuned,
    subtree_sum,
    transfers_saved,
)


class TestClosedFormsAtScale:
    @pytest.mark.parametrize("P", [512, 1000, 2048, 4096])
    def test_formulas_consistent(self, P):
        assert ring_transfers_tuned(P) == ring_transfers_native(P) - transfers_saved(P)
        assert transfers_saved(P) == subtree_sum(P) - P
        # Savings fraction decays like ~log2(P)/2 / (P-1).
        frac = transfers_saved(P) / ring_transfers_native(P)
        import math

        approx = (math.log2(P) / 2 + 1) / (P - 1)
        assert frac == pytest.approx(approx, rel=0.35)

    @pytest.mark.parametrize("P", [512, 1023, 2048])
    def test_role_pairing_at_scale(self, P):
        for r in range(P):
            step, flag = tuned_ring_role(r, P)
            assert 1 <= step <= P
            if flag == 1 and step >= 2:
                nstep, nflag = tuned_ring_role((r + 1) % P, P)
                assert (nstep, nflag) == (step, 0)
            if flag == 0:
                assert step == subtree_chunks(r, P)

    def test_paper_deduction_savings_strictly_increasing_doubling(self):
        prev = 0
        for logp in range(1, 13):
            saved = transfers_saved(1 << logp)
            assert saved > prev
            prev = saved


class TestScheduleAtScale:
    @pytest.mark.parametrize("P", [257, 512])
    def test_full_schedule_extraction(self, P):
        """Extract the complete tuned-broadcast schedule at hundreds of
        ranks and verify the exact count plus per-rank completeness."""
        nbytes = 64 * P

        def factory(ctx):
            def program():
                return (yield from bcast_scatter_ring_opt(ctx, nbytes, 0))

            return program()

        schedule = extract_schedule(P, factory)
        ring = sum(1 for s in schedule.sends if s.tag == 2)
        assert ring == ring_transfers_tuned(P)
        for res in schedule.rank_results:
            res.assert_complete()

    def test_512_rank_savings_closed_form(self):
        # Power-of-two: S = P (log2 P + 2) / 2 = 512 * 11 / 2 = 2816,
        # so the tuned ring saves 2816 - 512 = 2304 transfers.
        assert subtree_sum(512) == 2816
        assert transfers_saved(512) == 2304
        assert ring_transfers_native(512) - ring_transfers_tuned(512) == 2304

class TestEmittedScheduleAtScale:
    """Emitted replay schedules past extraction's reach (root 0, every
    chunk carrying bytes)."""

    @pytest.mark.parametrize("P", [512, 1024])
    @pytest.mark.parametrize(
        "name,closed_form",
        [("bcast_native", ring_transfers_native), ("bcast_opt", ring_transfers_tuned)],
    )
    def test_ring_counts_and_chunk_tiling(self, name, closed_form, P):
        schedule = emit_schedule(name, P, 64 * P, 0)
        tags = schedule.send_tag
        assert int((tags == RING_TAG).sum()) == closed_form(P)
        assert int((tags == SCATTER_TAG).sum()) == P - 1

        # The k-th ring send of relative rank r forwards chunk r - k.
        chunk = np.full(schedule.n_sends, -1, dtype=np.int64)
        for rank in range(P):
            kinds, args = schedule.op_kinds[rank], schedule.op_args[rank]
            orders = args[(kinds == OP_SEND) | (kinds == OP_ISEND)]
            ring = orders[tags[orders] == RING_TAG]
            chunk[ring] = (rank - np.arange(len(ring))) % P
        redundant = 0
        for rank in range(P):
            kinds, args = schedule.op_kinds[rank], schedule.op_args[rank]
            orders = args[(kinds == OP_RECV) | (kinds == OP_IRECV)]
            got = np.bincount(chunk[orders[tags[orders] == RING_TAG]], minlength=P)
            run = np.zeros(P, dtype=bool)
            run[rank : rank + subtree_chunks(rank, P)] = True
            assert (got[~run] == 1).all(), rank  # outside the scatter run
            assert got[rank] == 0
            redundant += int(got[run].sum())
        assert redundant == (0 if name == "bcast_opt" else transfers_saved(P))
