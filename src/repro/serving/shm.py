"""Shared-memory publication of probability columns.

The multiprocess serving backend never pickles a TID per request:
the *numeric* content of an instance — the per-tuple
``(numerator, denominator)`` columns of
:func:`repro.db.columnar.probability_columns` — is written once into a
``multiprocessing.shared_memory`` segment and addressed by content:
the segment key is ``(Instance.shard_key(), probability_digest())``,
both process-stable blake2b digests, so every request that shares a
numeric content shares one segment, and a ``probability_version`` bump
simply publishes a *new* segment under the new digest.

Segment layout (``count`` int64 pairs, little-endian)::

    [ numerators  : count * int64 ]
    [ denominators: count * int64 ]

aligned with ``instance.tuple_ids()`` order on both sides.  Entries
whose numerator or denominator exceeds an int64 word hold the ``0/0``
sentinel and travel in the (tiny, pickled) ``overflow`` list of the
registry lease instead — exactness is never rounded away by the wire
format.

Lifecycle (the :class:`SegmentRegistry`, parent side):

* :meth:`~SegmentRegistry.acquire` publishes the segment on first use
  and *pins* it for the duration of one in-flight RPC; publishing a new
  digest for a shard key marks that key's older digests **stale**.
* :meth:`~SegmentRegistry.release` unpins; a stale segment is unlinked
  the moment its pin count reaches zero — a ``probability_version``
  bump therefore reclaims the superseded segment as soon as the last
  request using it resolves, never under a live reader.  Reclaim
  unlinks under the registry lock, so a request that re-acquires the
  same digest meanwhile (probabilities flipped back) waits and then
  republishes the name instead of colliding with the old segment.
* :meth:`~SegmentRegistry.unlink_all` (``stop()``/``close()``) unlinks
  everything; a stopped service leaves no ``/dev/shm`` entries behind.

Workers attach, copy the two columns out, and detach immediately
(:func:`read_columns`) — the attachment is transient, so the parent's
unlink ordering (pins + the FIFO pipe barrier: a segment is released
only after the RPC that referenced it replied) is the whole ownership
story.

One ``multiprocessing`` resource tracker serves a service's whole
process tree.  :class:`~repro.serving.worker._WorkerClient` starts the
parent's tracker before it forks a worker, so every worker, respawned
ones too, inherits it instead of starting its own at its first attach.
The tracker keeps one set of names.  The parent's create adds a name,
and a worker's attach adds it again, which changes nothing (on 3.11 an
attach registers too).  The parent's unlink removes it once.  If the
owner dies without unlinking, even by SIGKILL, its workers see pipe EOF
and exit; the tracker then sees its own pipe close and unlinks every
name still in the set, so a crashed owner leaves no ``/dev/shm`` entry.
:meth:`SegmentRegistry.unlink_all` is idempotent and swallows
``FileNotFoundError``, so kill-recover-stop cycles leave zero
``/dev/shm`` entries too — which the kill-recovery tests assert.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.db.columnar import ProbabilityColumns

#: Prefix of every segment name this process publishes (pid-scoped so
#: concurrent test runs never collide and tests can assert on leaks).
def segment_prefix() -> str:
    return f"pqe{os.getpid():x}"


_WORD = struct.Struct("<q")


@dataclass
class _Segment:
    key: tuple[int, int]
    shm: shared_memory.SharedMemory
    count: int
    overflow: tuple[tuple[int, int, int], ...]
    pins: int = 0
    stale: bool = False


@dataclass(frozen=True)
class SegmentLease:
    """What :meth:`SegmentRegistry.acquire` hands out: everything a
    worker needs to attach (name/count/overflow) plus whether this call
    published the segment (``fresh`` — the caller then announces it to
    the worker exactly once)."""

    key: tuple[int, int]
    name: str
    count: int
    overflow: tuple[tuple[int, int, int], ...]
    fresh: bool


class SegmentRegistry:
    """Parent-side owner of every published probability segment."""

    _instances = 0
    _instances_lock = threading.Lock()

    def __init__(self) -> None:
        with SegmentRegistry._instances_lock:
            uid = SegmentRegistry._instances
            SegmentRegistry._instances += 1
        self._prefix = f"{segment_prefix()}r{uid:x}"
        self._lock = threading.Lock()
        self._segments: dict[tuple[int, int], _Segment] = {}
        self._closed = False

    # -- publication ---------------------------------------------------

    def acquire(
        self, shard_key: int, digest: int, columns: ProbabilityColumns
    ) -> SegmentLease:
        """Pin (publishing on first use) the segment for ``columns``
        under ``(shard_key, digest)``.  Publishing a new digest marks
        the shard key's other digests stale."""
        key = (shard_key, digest)
        with self._lock:
            if self._closed:
                raise RuntimeError("segment registry is closed")
            segment = self._segments.get(key)
            if segment is None:
                segment = self._publish(key, columns)
                fresh = True
                for other_key, other in self._segments.items():
                    if other_key[0] == shard_key and other_key != key:
                        other.stale = True
                self._segments[key] = segment
                reclaim = [
                    other
                    for other in self._segments.values()
                    if other.stale and other.pins == 0
                ]
                for other in reclaim:
                    del self._segments[other.key]
                    _unlink(other.shm)
            else:
                fresh = False
            segment.pins += 1
        return SegmentLease(
            key, segment.shm.name, segment.count, segment.overflow, fresh
        )

    def _publish(
        self, key: tuple[int, int], columns: ProbabilityColumns
    ) -> _Segment:
        count = len(columns)
        name = f"{self._prefix}-{key[0]:016x}-{key[1]:016x}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, 16 * count)
        )
        buffer = shm.buf
        for slot, (num, den) in enumerate(
            zip(columns.numerators, columns.denominators)
        ):
            _WORD.pack_into(buffer, 8 * slot, num)
            _WORD.pack_into(buffer, 8 * (count + slot), den)
        return _Segment(key, shm, count, columns.overflow)

    # -- lifecycle -----------------------------------------------------

    def release(self, lease: SegmentLease) -> None:
        """Unpin; unlink immediately if the segment is stale and idle."""
        with self._lock:
            segment = self._segments.get(lease.key)
            if segment is None:
                return
            segment.pins -= 1
            if segment.stale and segment.pins <= 0:
                del self._segments[lease.key]
                _unlink(segment.shm)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def unlink_all(self) -> None:
        """Unlink every segment (idempotent — a second call, e.g. a
        shard *and* its owning service both shutting down, finds the
        books already empty and does nothing; registry unusable after)."""
        with self._lock:
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
        for segment in segments:
            _unlink(segment.shm)

    def unpublished(self, keys) -> list[tuple[int, int]]:
        """The keys among ``keys`` that have no segment: reclaimed (or
        never published)."""
        with self._lock:
            return [key for key in keys if key not in self._segments]

    def live_names(self) -> list[str]:
        """The names currently published (tests and stats)."""
        with self._lock:
            return sorted(s.shm.name for s in self._segments.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)


def _unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


def read_columns(
    name: str, count: int, overflow: tuple[tuple[int, int, int], ...]
) -> ProbabilityColumns:
    """Attach to a published segment, copy the columns out, detach.

    Runs on the worker side.  The attach registers the name with the
    resource tracker the worker shares with its parent, where the
    parent's create already did; the parent's unlink removes it."""
    shm = shared_memory.SharedMemory(name=name, create=False)
    try:
        buffer = shm.buf
        numerators = tuple(
            _WORD.unpack_from(buffer, 8 * slot)[0] for slot in range(count)
        )
        denominators = tuple(
            _WORD.unpack_from(buffer, 8 * (count + slot))[0]
            for slot in range(count)
        )
    finally:
        shm.close()
    return ProbabilityColumns(numerators, denominators, tuple(overflow))
