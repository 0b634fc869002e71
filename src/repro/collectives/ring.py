"""Ring reduce-scatter / allreduce (Patarasuk & Yuan [45]) on shared memory.

The ring algorithms are bandwidth-optimal in the send/recv cost model,
but on a shared-memory node every ``MPI_Send``/``MPI_Recv`` pair moves
data through a bounce buffer: the sender copies its chunk into shared
memory (2 bytes DAV per byte) and the receiver reduces it from there
(3 bytes DAV per byte) — ``5 s (p-1)`` per node for reduce-scatter
(Table 1), which the movement-avoiding design beats by construction.

Chunk schedule: at step ``k`` rank ``r`` sends chunk ``(r - k - 1) mod p``
and receives chunk ``(r - k - 2) mod p`` from its left neighbour, ending
with its own chunk ``r`` fully reduced (standard ring reduce-scatter,
rotated so rank ``r`` owns partition ``r``).

For the allreduce, the reduce-scatter's final chunks are placed in
shared memory and every rank then copies the remaining ``p - 1`` chunks
out directly (single-copy allgather through the shared segment),
matching Table 2's ``7 s (p-1)``.

Shared-memory slots are double-buffered per rank; a sender reusing its
slot waits for the consumer's flag from two steps earlier.
"""

from __future__ import annotations

from repro.collectives.common import CollectiveEnv, partition


def _max_chunk(parts) -> int:
    return max((length for _, length in parts), default=0)


def ring_reduce_scatter_pipeline(ctx, env: CollectiveEnv, *,
                                 final_in_shm: bool, tag=("ring",)):
    """Ring reduce-scatter for one rank.

    With ``final_in_shm`` the fully reduced chunk ``r`` is written to
    rank ``r``'s *result slot* in shared memory (at offset
    ``p * 2 * slot + r's result area``) for a following allgather;
    otherwise it lands in the rank's receiving buffer.
    """
    p, r = env.p, ctx.rank
    parts = partition(env.s, p)
    slot = _max_chunk(parts)
    send = env.sendbufs[r]
    left = (r - 1) % p

    def slot_view(rank: int, k: int, n: int):
        return env.shm.view((rank * 2 + k % 2) * slot, n)

    def result_view(chunk: int, n: int):
        return env.shm.view((p * 2 + chunk) * slot, n)

    acc = None  # BufView of the running accumulation (private temp)
    tmp = env.engine.alloc(r, max(slot, 8), name=f"ringtmp[{r}]")

    for k in range(p - 1):
        send_chunk = (r - k - 1) % p
        recv_chunk = (r - k - 2) % p
        s_off, s_len = parts[send_chunk]
        # "MPI_Send": copy the outgoing chunk into my bounce slot.
        if k >= 2:
            yield ctx.wait((tag, "slotfree", r, k - 2))
        src = send.view(s_off, s_len) if k == 0 else acc
        if s_len:
            env.copy(ctx, slot_view(r, k, s_len), src, t_flag=False)
        ctx.post((tag, "sent", r, k))
        # "MPI_Recv" + reduce: combine the left neighbour's chunk with my
        # own contribution to the same chunk.
        yield ctx.wait((tag, "sent", left, k))
        r_off, r_len = parts[recv_chunk]
        incoming = slot_view(left, k, r_len)
        mine = send.view(r_off, r_len)
        last = k == p - 2
        if last:
            dst = (
                result_view(recv_chunk, r_len)
                if final_in_shm
                else env.recvbufs[r].view(0, r_len)
            )
        else:
            dst = tmp.view(0, r_len)
        if r_len:
            ctx.reduce_out(dst, incoming, mine, op=env.op)
        acc = dst
        ctx.post((tag, "slotfree", left, k))
        if last:
            ctx.post((tag, "result", recv_chunk))


class RingReduceScatter:
    """Ring reduce-scatter: DAV ``5 s (p - 1)`` (Table 1)."""

    name = "ring-reduce-scatter"
    kind = "reduce_scatter"

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p + env.s + self.shm_bytes(env)

    def shm_bytes(self, env: CollectiveEnv) -> int:
        parts = partition(env.s, env.p)
        return 2 * env.p * _max_chunk(parts)

    def program(self, ctx, env: CollectiveEnv):
        if env.p == 1:
            ctx.copy(env.recvbufs[0].view(0, env.s), env.sendbufs[0].view(0, env.s))
            return
        yield from ring_reduce_scatter_pipeline(ctx, env, final_in_shm=False)


class RingAllreduce:
    """Ring allreduce: ring RS into shm + direct shm allgather.

    DAV ``7 s (p - 1)`` (Table 2): ``5 s (p-1)`` for the reduce-scatter
    plus one copy-out per foreign chunk (``2 s (p-1)``); the own chunk is
    written once more to the receiving buffer (``O(s)``).
    """

    name = "ring-allreduce"
    kind = "allreduce"

    def work_set(self, env: CollectiveEnv) -> int:
        return 2 * env.s * env.p + self.shm_bytes(env)

    def shm_bytes(self, env: CollectiveEnv) -> int:
        parts = partition(env.s, env.p)
        return (2 * env.p + env.p) * _max_chunk(parts)

    def program(self, ctx, env: CollectiveEnv):
        p, r = env.p, ctx.rank
        if p == 1:
            ctx.copy(env.recvbufs[0].view(0, env.s), env.sendbufs[0].view(0, env.s))
            return
        yield from ring_reduce_scatter_pipeline(
            ctx, env, final_in_shm=True, tag=("ring-ar",)
        )
        parts = partition(env.s, p)
        slot = _max_chunk(parts)
        recv = env.recvbufs[r]
        for chunk in range(p):
            off, n = parts[chunk]
            if not n:
                continue
            if chunk != r:
                yield ctx.wait((("ring-ar",), "result", chunk))
            env.copy_out(
                ctx,
                recv.view(off, n),
                env.shm.view((2 * p + chunk) * slot, n),
            )


RING_REDUCE_SCATTER = RingReduceScatter()
RING_ALLREDUCE = RingAllreduce()
