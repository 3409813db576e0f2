"""Certified schedule emission: replay schedules built from their shape.

The scatter-ring broadcasts and the plain ring allgather have static
schedules that follow from one rule each, and :mod:`.certificates`
declares that rule as a :class:`~.certificates.ScatterPhase` /
:class:`~.certificates.RingPhase` composition which ``repro prove``
certifies for every P. This module lays such a schedule out directly as
the :class:`~repro.sim.replay.ReplaySchedule` that
:func:`~repro.sim.replay.compile_schedule` would build from an extracted
one — from ``subtree_chunks``, ``tuned_ring_role`` and the chunk byte
counts, with no generators, ``Request`` objects or matching engines.

Per rank, the op stream is exactly what the schedule executor logs:

* scatter — ``RECV`` from the parent when the rank's span carries
  bytes, then ``SEND`` to each child whose span carries bytes, largest
  mask first;
* ring — ``ISEND``/``IRECV``/``WAIT`` per full-duplex step, then the
  bare ``RECV`` (receive-only endpoint) or ``SEND`` (send-only
  endpoint) tail of a tuned rank; zero-byte ring transfers are still
  issued.

Sends are numbered rank-major: rank 0's sends in program order, then
rank 1's, and so on. Matching is per-channel FIFO — the k-th receive
rank g posts from ``src`` with tag ``t`` pairs with the k-th send
``src`` issues to g with tag ``t`` — which is MPI's non-overtaking rule
for receives without wildcards. An emitted schedule therefore equals the
extracted one up to a send renumbering (:func:`schedule_mismatches`
checks exactly that) and replays to bitwise-identical results; both
claims are tested against extraction in ``tests/collectives/test_emit.py``
and the first is re-checked by ``repro prove --xval`` at every P it
cross-validates.

Only collectives whose byte layout is fixed by ``(P, nbytes)`` are
emitted. ``allgatherv_ring`` is certified too, but its per-rank counts
are chosen by the caller, and placement-aware broadcasts (``smp``)
read the machine; both keep going through extraction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import CollectiveError, ReplayUnsupportedError, SimulationError
from ..sim.replay import (
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    ReplaySchedule,
)
from ..util import chunk_count, next_power_of_two, scatter_size
from .certificates import CERTIFICATES, RingPhase, ScatterPhase
from .relative import tuned_ring_role

__all__ = ["EMITTED", "emit_schedule", "schedule_mismatches"]

#: Certified collectives the emitter lays out, with the chunk byte rule
#: each applies to a registry size: the broadcast family splits
#: ``nbytes`` into MPICH scatter chunks, the ring allgather moves uniform
#: ``ceil(nbytes / P)`` blocks (the registry's per-rank block size).
_CHUNKING: Dict[str, str] = {
    "scatter": "scatter",
    "bcast_native": "scatter",
    "bcast_opt": "scatter",
    "allgather_ring": "block",
}
EMITTED = frozenset(_CHUNKING)

_SENDRECV = np.array([OP_ISEND, OP_IRECV, OP_WAIT], dtype=np.int8)


class _SendrecvWaits:
    """One rank's wait table when its waits are its sendrecv steps: wait
    k covers ops ``first + 3k`` (isend) and ``first + 3k + 1`` (irecv).

    Reads like the list of member tuples ``compile_schedule`` builds,
    without materialising one tuple per ring step.
    """

    __slots__ = ("first", "count")

    def __init__(self, first: int, count: int):
        self.first = first
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> Tuple[int, int]:
        if not 0 <= k < self.count:
            raise IndexError(k)
        j = self.first + 3 * int(k)
        return (j, j + 1)


def _chunk_bytes(chunking: str, nranks: int, nbytes: int) -> np.ndarray:
    if chunking == "scatter":
        sizes = [chunk_count(nbytes, nranks, c) for c in range(nranks)]
    else:
        sizes = [scatter_size(nbytes, nranks)] * nranks
    return np.asarray(sizes, dtype=np.int64)


def _scatter_ops(rel: int, nranks: int, prefix: np.ndarray):
    """What ``binomial_scatter`` issues on relative rank *rel*: whether
    it receives its span from the parent, and the ``(child_rel,
    nbytes)`` messages it forwards. Zero-byte spans are skipped."""
    receives = False
    if rel:
        low = rel & -rel
        receives = bool(prefix[rel + min(low, nranks - rel)] > prefix[rel])
        mask = low
    else:
        mask = next_power_of_two(nranks)
    children = []
    m = mask >> 1
    while m:
        child = rel + m
        if child < nranks:
            end = child + min(m, nranks - child)
            nbytes = int(prefix[end] - prefix[child])
            if nbytes > 0:
                children.append((child, nbytes))
        m >>= 1
    return receives, children


def emit_schedule(
    collective: str, nranks: int, nbytes: int, root: int = 0
) -> ReplaySchedule:
    """Lay out *collective*'s replay schedule from its certificate.

    *nbytes* follows the registry convention (the broadcast payload; for
    ``allgather_ring`` the total, split into ``ceil(nbytes / P)``-byte
    blocks). *root* is ignored by collectives whose chunks are not
    root-relative. Raises :class:`~repro.errors.ReplayUnsupportedError`
    for a collective outside :data:`EMITTED`.
    """
    chunking = _CHUNKING.get(collective)
    if chunking is None:
        raise ReplayUnsupportedError(
            f"no certified schedule emitter for {collective!r}; "
            f"emitted: {', '.join(sorted(EMITTED))}"
        )
    cert = CERTIFICATES[collective]
    P = nranks
    if P < 1:
        raise CollectiveError(f"communicator size must be >= 1, got {P}")
    if nbytes < 0:
        raise CollectiveError(f"negative size {nbytes}")
    if not cert.relative_chunks:
        root = 0
    elif not 0 <= root < P:
        raise CollectiveError(f"root {root} outside [0, {P})")
    scatter = next((p for p in cert.phases if isinstance(p, ScatterPhase)), None)
    ring = next((p for p in cert.phases if isinstance(p, RingPhase)), None)

    sizes = _chunk_bytes(chunking, P, nbytes)
    prefix = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(sizes, out=prefix[1:])

    # Pass 1: every rank's send counts, so orders can be numbered
    # rank-major before any receive refers to them.
    receives = [False] * P
    children: List[List[Tuple[int, int]]] = [[] for _ in range(P)]
    n_full = [0] * P  # full-duplex ring steps
    n_ring_send = [0] * P
    n_ring_recv = [0] * P
    ring_steps = P - 1 if ring is not None else 0
    for g in range(P):
        rel = (g - root) % P
        if scatter is not None and P > 1:
            receives[g], children[g] = _scatter_ops(rel, P, prefix)
        if ring is not None:
            full = ring_steps
            send = recv = ring_steps
            if ring.tuned:
                step, flag = tuned_ring_role(rel, P)
                full = P - step
                if flag:
                    send = full
                else:
                    recv = full
            n_full[g], n_ring_send[g], n_ring_recv[g] = full, send, recv
    for g in range(P):
        if n_ring_recv[g] != n_ring_send[(g - 1) % P]:
            raise SimulationError(
                f"{collective}: rank {g} posts {n_ring_recv[g]} ring "
                f"receive(s), its left neighbour sends "
                f"{n_ring_send[(g - 1) % P]}"
            )

    n_scatter = [len(c) for c in children]
    base = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(np.add(n_scatter, n_ring_send), out=base[1:])
    ring_base = base[:P] + np.asarray(n_scatter, dtype=np.int64)
    scatter_order: Dict[int, int] = {}  # child rel -> order of its message
    for g in range(P):
        for k, (child, _) in enumerate(children[g]):
            scatter_order[child] = int(base[g]) + k

    # Pass 2: send arrays and op streams.
    dst_parts: List[np.ndarray] = []
    nbytes_parts: List[np.ndarray] = []
    tag_parts: List[np.ndarray] = []
    op_kinds: List[np.ndarray] = []
    op_args: List[np.ndarray] = []
    wait_members: List[_SendrecvWaits] = []
    for g in range(P):
        rel = (g - root) % P
        kids = children[g]
        full, send, recv = n_full[g], n_ring_send[g], n_ring_recv[g]
        if kids:
            dst_parts.append(
                np.fromiter(((c + root) % P for c, _ in kids), np.int64, len(kids))
            )
            nbytes_parts.append(np.fromiter((b for _, b in kids), np.int64, len(kids)))
            tag_parts.append(np.full(len(kids), scatter.tag, dtype=np.int64))
        if send:
            k = np.arange(send, dtype=np.int64)
            dst_parts.append(np.full(send, (g + 1) % P, dtype=np.int64))
            # The k-th ring send (step k+1) forwards chunk rel - k.
            nbytes_parts.append(sizes[(rel - k) % P])
            tag_parts.append(np.full(send, ring.tag, dtype=np.int64))

        n_ops = receives[g] + len(kids) + 3 * full + (send - full) + (recv - full)
        kinds = np.empty(n_ops, dtype=np.int8)
        args = np.empty(n_ops, dtype=np.int64)
        j = 0
        if receives[g]:
            kinds[0] = OP_RECV
            args[0] = scatter_order[rel]
            j = 1
        kinds[j : j + len(kids)] = OP_SEND
        args[j : j + len(kids)] = np.arange(base[g], base[g] + len(kids))
        j += len(kids)
        send0 = int(ring_base[g])
        recv0 = int(ring_base[(g - 1) % P])
        end = j + 3 * full
        kinds[j:end] = np.tile(_SENDRECV, full)
        args[j:end:3] = np.arange(send0, send0 + full)
        args[j + 1 : end : 3] = np.arange(recv0, recv0 + full)
        args[j + 2 : end : 3] = np.arange(full)
        wait_members.append(_SendrecvWaits(j, full))
        if send > full:
            kinds[end:] = OP_SEND
            args[end:] = np.arange(send0 + full, send0 + send)
        elif recv > full:
            kinds[end:] = OP_RECV
            args[end:] = np.arange(recv0 + full, recv0 + recv)
        op_kinds.append(kinds)
        op_args.append(args)

    def joined(parts: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    counts = np.diff(base)
    return ReplaySchedule(
        nranks=P,
        ranks=list(range(P)),
        send_src=np.repeat(np.arange(P, dtype=np.int64), counts),
        send_dst=joined(dst_parts),
        send_nbytes=joined(nbytes_parts),
        send_tag=joined(tag_parts),
        op_kinds=op_kinds,
        op_args=op_args,
        wait_members=wait_members,
        compute_seconds=[[] for _ in range(P)],
    )


def schedule_mismatches(
    schedule: ReplaySchedule, reference: ReplaySchedule, limit: int = 8
) -> List[str]:
    """How *schedule* differs from *reference* up to a send renumbering.

    Op positions induce the renumbering: the j-th op of rank r is a send
    in both or in neither, and those paired sends must carry the same
    ``(src, dst, nbytes, tag)``. Every receive must name the paired
    send, every wait the same op positions, every compute the same
    seconds. Returns at most *limit* descriptions (empty = equivalent).
    """
    out: List[str] = []
    if schedule.nranks != reference.nranks or list(schedule.ranks) != list(
        reference.ranks
    ):
        return [
            f"ranks {list(schedule.ranks)} vs reference {list(reference.ranks)}"
        ]
    n = schedule.n_sends
    if n != reference.n_sends:
        return [f"{n} sends vs reference {reference.n_sends}"]
    to_ref = np.full(n, -1, dtype=np.int64)
    for r, glob in enumerate(schedule.ranks):
        kinds, ref_kinds = schedule.op_kinds[r], reference.op_kinds[r]
        if len(kinds) != len(ref_kinds) or not np.array_equal(kinds, ref_kinds):
            out.append(
                f"rank {glob}: op kinds {kinds.tolist()[:12]}... vs reference "
                f"{ref_kinds.tolist()[:12]}... ({len(kinds)} vs "
                f"{len(ref_kinds)} ops)"
            )
            continue
        args, ref_args = schedule.op_args[r], reference.op_args[r]
        sends = (kinds == OP_SEND) | (kinds == OP_ISEND)
        to_ref[args[sends]] = ref_args[sends]
    if out:
        return out[:limit]
    if (to_ref < 0).any() or len(np.unique(to_ref)) != n:
        return ["op positions do not induce a send bijection"]
    for name in ("send_src", "send_dst", "send_nbytes", "send_tag"):
        mine = getattr(schedule, name)
        theirs = getattr(reference, name)[to_ref]
        bad = np.flatnonzero(mine != theirs)
        if len(bad):
            i = int(bad[0])
            out.append(
                f"send {i} (reference {int(to_ref[i])}): {name} "
                f"{int(mine[i])} vs {int(theirs[i])} ({len(bad)} differ)"
            )
    for r, glob in enumerate(schedule.ranks):
        kinds = schedule.op_kinds[r]
        args, ref_args = schedule.op_args[r], reference.op_args[r]
        recvs = np.flatnonzero((kinds == OP_RECV) | (kinds == OP_IRECV))
        mine = args[recvs]
        mapped = np.where(mine >= 0, to_ref[np.maximum(mine, 0)], -1)
        bad = recvs[mapped != ref_args[recvs]]
        if len(bad):
            out.append(f"rank {glob}: receive op {int(bad[0])} matches another send")
        for j in np.flatnonzero(kinds == OP_WAIT):
            got = tuple(schedule.wait_members[r][args[j]])
            want = tuple(reference.wait_members[r][ref_args[j]])
            if got != want:
                out.append(f"rank {glob}: wait op {int(j)} covers {got}, not {want}")
                break
        for j in np.flatnonzero(kinds == OP_COMPUTE):
            got_s = schedule.compute_seconds[r][args[j]]
            want_s = reference.compute_seconds[r][ref_args[j]]
            if got_s != want_s:
                out.append(f"rank {glob}: compute op {int(j)} {got_s} vs {want_s}")
                break
    return out[:limit]
