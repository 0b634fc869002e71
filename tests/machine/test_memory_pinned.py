"""Pinned memory-model streams.

Seeded random access streams run through :class:`MemorySystem` on TINY,
NodeA and NodeB.  A stream mixes loads, temporal and non-temporal
stores on homed private and un-homed shared buffers, with slice lengths
on a coarse grid scaled to the socket cache (one length is larger than
the cache), plus ``set_active_ranks``, explicit ``concurrency``,
``reset_counters``, ``flush_buffer`` and ``reset_caches``.  Every
returned time (``float.hex``), every per-rank and node counter and each
cache's ``used_bytes`` go into one sha256, which must equal the digest
recorded for the stream: the region index and the counter rows are an
implementation detail, and no simulated time or byte may move with them.

Each stream also counts, through the public API only, the corner cases
it exercises (partial-overlap evictions, exact re-hits, cache-to-cache
hits, remote homes, dirty write-backs, regions larger than the cache),
so a change to the generator cannot quietly drop one of them.
"""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest

from repro.machine.memory import MemorySystem, TrafficCounters
from repro.machine.spec import NODE_A, NODE_B
from repro.sim.buffers import Buffer, SharedBuffer

from tests.conftest import TINY

FIELDS = [f.name for f in dataclasses.fields(TrafficCounters)]
#: slice offsets and lengths, in grains (:func:`_grain`)
OFFSETS = range(16)
LENGTHS = (1, 2, 3, 4, 6, 8)
CONCURRENCY = (1, 2, 3, 8, 64)
OPS = 3000

#: sha256 of each stream: any moved time, counter or cache occupancy
#: changes it
PINNED = {
    ("Tiny", 1):
        "ed7dd44f3a421d65dee704bcc6d143be3637f82c5f46babb1990ec0b951b8934",
    ("Tiny", 2):
        "37e7cdd4708e2ba74189009f366fa783f2296ec122a353f6ea78926459672e40",
    ("NodeA", 1):
        "8cb3d5158318f47b9658a07009ae8579b61e963b8000cad6a51203ecd505bbf1",
    ("NodeA", 2):
        "e4ce95158edacc28366413eb49c7ab732cac047060f5b47f7b9371f631036a94",
    ("NodeB", 1):
        "580757998cac24ca0d5ce8f0bcf1da83df446f7923fe83e83c44926314af56d7",
    ("NodeB", 2):
        "6a3aafee97a2ea6548359171bfab8571e2e738ac825f8ae7d9040c00ecf9ee93",
}
MACHINES = {"Tiny": (TINY, 8), "NodeA": (NODE_A, 64), "NodeB": (NODE_B, 48)}


def _vals(tc: TrafficCounters) -> dict:
    return {f: getattr(tc, f) for f in FIELDS}


def _row(tc: TrafficCounters) -> bytes:
    return repr(list(_vals(tc).values())).encode()


def _resident(ms, sock, buf, grain):
    """Keys of ``buf`` resident in socket ``sock``'s cache.  Every
    access lies on the grid, so this finds every resident."""
    cache = ms.caches[sock]
    return [(buf.buf_id, o * grain, n * grain)
            for o in OFFSETS for n in LENGTHS
            if (buf.buf_id, o * grain, n * grain) in cache]


def _grain(ms) -> int:
    """About 1/32 of a socket cache.  The 304-byte offset makes the grid
    uneven enough that dividing by a bandwidth and multiplying by its
    reciprocal round differently for most lengths on every machine."""
    return ms.caches[0].capacity // 32 - 304


def _overlap(a, b) -> bool:
    return a[1] < b[1] + b[2] and b[1] < a[1] + a[2]


def drive(machine, nranks, seed, ops=OPS, check=None):
    """Run one stream; returns ``(sha256 hex, corner-case counts)``.

    ``check(ms, bufs)`` is called after every access."""
    rng = random.Random(seed)
    ms = MemorySystem(machine, nranks)
    cap = ms.caches[0].capacity
    grain = _grain(ms)
    huge = cap + grain  # a region larger than the cache
    owners = rng.sample(range(nranks), 4)
    bufs = [Buffer(64 * grain, owner=r, home_socket=ms.socket_of_rank(r))
            for r in owners for _ in range(2)]
    bufs += [SharedBuffer(64 * grain) for _ in range(3)]
    bufs.append(SharedBuffer(64 * grain, home_socket=machine.sockets - 1))
    h = hashlib.sha256()
    seen = Counter()
    recent = []

    def dump_all():
        for tc in ms.per_rank:
            h.update(_row(tc))

    for _ in range(ops):
        u = rng.random()
        if u < 0.84:
            rank = rng.randrange(nranks)
            sock = ms.socket_of_rank(rank)
            if recent and rng.random() < 0.5:
                buf, off, n = rng.choice(recent)
            else:
                buf = rng.choice(bufs)
                off = rng.choice(OFFSETS) * grain
                n = huge if rng.random() < 0.03 else rng.choice(LENGTHS) * grain
            recent = (recent + [(buf, off, n)])[-24:]
            conc = None if rng.random() < 0.6 else rng.choice(CONCURRENCY)
            key = (buf.buf_id, off, n)
            mine = ms.caches[sock]
            before = _vals(ms.counters)
            if key in mine:
                seen["exact_rehit"] += 1
            elif any(k != key and _overlap(k, key)
                     for k in _resident(ms, sock, buf, grain)):
                seen["partial_overlap"] += 1
            seen["huge"] += n > cap
            if u < 0.42:
                if key not in mine and any(
                        key in c for s, c in enumerate(ms.caches)
                        if s != sock):
                    seen["c2c"] += 1
                t = ms.load(rank, buf, off, n, concurrency=conc)
            else:
                t = ms.store(rank, buf, off, n, nt=u >= 0.68,
                             concurrency=conc)
            d = {f: v - before[f] for f, v in _vals(ms.counters).items()}
            seen["remote_home"] += d["numa_bytes"] > d["c2c_bytes"]
            seen["writeback"] += d["writeback_bytes"] > 0
            h.update(float.hex(t).encode())
            h.update(_row(ms.per_rank[rank]))
            if check is not None:
                check(ms, bufs)
        elif u < 0.90:
            ranks = rng.sample(range(nranks), rng.randint(1, nranks))
            ms.set_active_ranks(ranks)
        elif u < 0.93:
            dump_all()
            ms.reset_counters()
        elif u < 0.98:
            sock = rng.randrange(machine.sockets)
            wb = ms.caches[sock].flush_buffer(rng.choice(bufs).buf_id)
            h.update(repr(wb).encode())
        else:
            ms.reset_caches(clear_homes=rng.random() < 0.5)
        h.update(_row(ms.counters))
        h.update(repr([c.used_bytes for c in ms.caches]).encode())
    dump_all()
    return h.hexdigest(), seen


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_stream_is_pinned(name, seed):
    machine, nranks = MACHINES[name]
    digest, seen = drive(machine, nranks, seed)
    for case in ("exact_rehit", "partial_overlap", "c2c", "remote_home",
                 "writeback", "huge"):
        assert seen[case] > 0, (case, dict(seen))
    assert digest == PINNED[name, seed]


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_residents_of_one_buffer_never_overlap(name):
    """Every insert evicts the residents it partially overlaps, so one
    buffer's residents in one cache are pairwise disjoint, and they
    account for every used byte."""
    machine, nranks = MACHINES[name]

    def check(ms, bufs):
        grain = _grain(ms)
        for sock, cache in enumerate(ms.caches):
            used = 0
            for buf in bufs:
                keys = _resident(ms, sock, buf, grain)
                used += sum(k[2] for k in keys)
                for i, a in enumerate(keys):
                    for b in keys[i + 1:]:
                        assert not _overlap(a, b), (sock, a, b)
            assert used == cache.used_bytes, sock

    drive(machine, nranks, 7, ops=800, check=check)
