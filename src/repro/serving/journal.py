"""The gateway's durable registration journal.

A restarted gateway must come back knowing every instance its clients
registered — same facts, same exact-rational probabilities, same
``replicas`` — so recovery is *bit-invisible*: the instance re-derives
the same :meth:`~repro.db.relation.Instance.shard_key`, lands on the
same :func:`~repro.serving.service.placement_ring`, and every engine
recomputes the same content-determined floats.  The journal is the
source of truth that makes that possible: an append-only JSON-lines
file of ``register`` records, one per line, each wrapped with a
content checksum::

    {"v": 1, "sum": "<blake2b-64 hex>", "record": {"instance": ...,
     "relations": [...], "facts": [...], "replicas": 1}}

The checksum covers the *canonical* encoding of the record (sorted
keys, compact separators), so replay detects both torn tails and bit
rot, and the canonical form is what gets hashed no matter which process
wrote it.

Crash semantics (the part worth being pedantic about):

- **Appends are atomic at the line level.**  A crash mid-append leaves
  at most one torn final line.  :meth:`replay` detects it — trailing
  junk that does not parse, fails its checksum, or lacks the newline
  terminator — truncates the file back to the last durable record, and
  carries on.  Only the *tail* may be forgiven this way: a mangled
  record with valid records after it means the file was corrupted, not
  torn, and replay raises :class:`JournalCorrupt` rather than silently
  serving a hole in the catalog.
- **``fsync`` policy is explicit.**  ``"always"`` fsyncs after every
  append (a crashed gateway forgets nothing it acknowledged);
  ``"batch"`` flushes to the OS per append and fsyncs only on
  :meth:`sync` / :meth:`compact` / :meth:`close` (faster, may forget
  the tail of unsynced acknowledgements on *power* loss — process
  crashes lose nothing either way); ``"never"`` leaves durability
  entirely to the OS.
- **Compaction is atomic.**  :meth:`compact` rewrites the live tail —
  the *last* record per instance name, in first-registration order —
  into a temp file in the same directory, fsyncs it,
  ``os.replace``\\ s it over the journal and fsyncs the directory, so a
  crash during compaction leaves either the old file or the new one,
  never a mix, and appends after it land in the file the directory
  names.  Creating the journal fsyncs the directory too (except under
  ``"never"``).  With the
  gateway's replace-on-re-register semantics, superseded registrations
  are dead weight the next replay would apply and then throw away;
  ``auto_compact_dead`` compacts automatically once that many dead
  records accumulate.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.serving.stats import JournalStats

__all__ = [
    "JournalCorrupt",
    "JournalStats",
    "RegistrationJournal",
]

#: Journal line-format version; bumped only on incompatible changes.
_VERSION = 1

_FSYNC_POLICIES = ("always", "batch", "never")


class JournalCorrupt(RuntimeError):
    """A non-tail journal record is mangled: the file was corrupted
    (not merely torn by a crash mid-append), and replaying around the
    damage would silently drop registrations.  Recovery is manual by
    design — serve from a backup or accept the explicit data loss."""


def _canonical(record: dict) -> bytes:
    """The canonical encoding checksums cover: sorted keys, compact
    separators — stable across writer processes and dict orders."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def encode_record(record: dict) -> bytes:
    """One durable journal line (newline-terminated) for ``record``."""
    body = _canonical(record)
    envelope = {
        "v": _VERSION,
        "sum": _checksum(body),
        "record": record,
    }
    return json.dumps(envelope, separators=(",", ":")).encode() + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """The record inside a journal line, or ``None`` if the line is
    mangled (unparseable, wrong shape, or checksum mismatch)."""
    try:
        envelope = json.loads(line)
    except ValueError:
        return None
    if (
        not isinstance(envelope, dict)
        or envelope.get("v") != _VERSION
        or "record" not in envelope
        or not isinstance(envelope["record"], dict)
    ):
        return None
    record = envelope["record"]
    if envelope.get("sum") != _checksum(_canonical(record)):
        return None
    return record


def _fsync_directory(path: Path) -> None:
    """Make a new name in directory ``path`` durable.  A file's own
    fsync covers its data, not the directory entry that names it, so
    after creating the journal or renaming a compacted snapshot over it
    the directory is fsynced too, or a power loss could leave the name
    pointing at nothing or at the old file."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class RegistrationJournal:
    """An append-only, checksummed, compactable registration log.

    Thread-safe: the gateway appends from its event loop but benches
    and tests may poke it from other threads; one lock covers the file
    handle and the counters.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: str = "always",
        auto_compact_dead: int | None = None,
    ):
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        if auto_compact_dead is not None and auto_compact_dead < 1:
            raise ValueError(
                f"auto_compact_dead must be positive or None, "
                f"got {auto_compact_dead}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self.auto_compact_dead = auto_compact_dead
        self._lock = threading.Lock()
        self._file = None
        self._appended = 0
        self._replayed = 0
        self._compactions = 0
        self._torn_records = 0
        self._torn_bytes = 0
        #: last record per instance name, in first-appearance order —
        #: exactly the compacted image of the file.
        self._live: dict[str, dict] = {}
        self._records = 0  # records currently in the file

    # -- durability ----------------------------------------------------

    def _open(self):
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            created = not self.path.exists()
            self._file = open(self.path, "ab")
            if created and self.fsync != "never":
                _fsync_directory(self.path.parent)
        return self._file

    def _sync_locked(self, force: bool = False) -> None:
        if self._file is None:
            return
        self._file.flush()
        if force or self.fsync == "always":
            os.fsync(self._file.fileno())

    def append(self, record: dict) -> None:
        """Durably append one register record (``record["instance"]``
        names the instance; the rest is opaque to the journal)."""
        name = record.get("instance")
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"journal records need a non-empty 'instance' name, "
                f"got {record!r}"
            )
        line = encode_record(record)
        with self._lock:
            handle = self._open()
            handle.write(line)
            self._sync_locked()
            self._appended += 1
            self._records += 1
            self._live[name] = record
            compact_now = (
                self.auto_compact_dead is not None
                and self._dead_locked() >= self.auto_compact_dead
            )
            if compact_now:
                self._compact_locked()

    def sync(self) -> None:
        """Force pending appends to disk regardless of policy."""
        with self._lock:
            self._sync_locked(force=True)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._sync_locked(force=True)
                self._file.close()
                self._file = None

    # -- replay --------------------------------------------------------

    def replay(self) -> list[dict]:
        """Read every durable record, in order, truncating a torn tail.

        Returns the record list (the caller re-applies them through its
        normal register path).  A missing file is an empty journal.  A
        mangled record *before* the tail raises :class:`JournalCorrupt`.
        """
        with self._lock:
            if self._file is not None:
                self._sync_locked(force=True)
            if not self.path.exists():
                self._replayed = 0
                self._live = {}
                self._records = 0
                return []
            raw = self.path.read_bytes()
            records: list[dict] = []
            good_end = 0
            offset = 0
            torn: bytes | None = None
            while offset < len(raw):
                newline = raw.find(b"\n", offset)
                if newline < 0:
                    torn = raw[offset:]  # unterminated: torn mid-append
                    break
                line = raw[offset : newline + 1]
                record = _decode_line(line)
                if record is None:
                    if newline + 1 < len(raw):
                        # A mangled record *followed by more records* is
                        # never a torn append — refuse to replay around
                        # the hole it would leave in the catalog.
                        raise JournalCorrupt(
                            f"{self.path}: mangled record at byte "
                            f"{good_end} with "
                            f"{len(raw) - newline - 1} bytes after it — "
                            f"corrupted journal, not a torn tail"
                        )
                    torn = line  # mangled final line: torn mid-append
                    break
                records.append(record)
                offset = newline + 1
                good_end = offset
            if torn is not None:
                self._torn_records += 1
                self._torn_bytes += len(torn)
                self._truncate_locked(good_end)
            self._replayed = len(records)
            self._records = len(records)
            self._live = {}
            for record in records:
                self._live[record["instance"]] = record
            return records

    def _truncate_locked(self, size: int) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        with open(self.path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    # -- compaction ----------------------------------------------------

    def _dead_locked(self) -> int:
        return self._records - len(self._live)

    def compact(self) -> int:
        """Atomically rewrite the journal down to its live records (the
        last one per instance name); returns the records dropped."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        dropped = self._dead_locked()
        if self._file is not None:
            self._file.close()
            self._file = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        snapshot = self.path.with_name(self.path.name + ".compact")
        with open(snapshot, "wb") as handle:
            for record in self._live.values():
                handle.write(encode_record(record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(snapshot, self.path)
        _fsync_directory(self.path.parent)
        self._records = len(self._live)
        self._compactions += 1
        return dropped

    def forget(self, name: str) -> None:
        """Drop ``name`` from the live image (no file write until the
        next compaction — an unregister is just future dead weight)."""
        with self._lock:
            self._live.pop(name, None)

    # -- observability -------------------------------------------------

    @property
    def live_records(self) -> dict[str, dict]:
        """The compacted image: last record per name, insertion order."""
        with self._lock:
            return dict(self._live)

    def stats(self) -> JournalStats:
        with self._lock:
            return JournalStats(
                appended=self._appended,
                replayed=self._replayed,
                live=len(self._live),
                dead=self._dead_locked(),
                compactions=self._compactions,
                torn_records=self._torn_records,
                torn_bytes=self._torn_bytes,
            )
