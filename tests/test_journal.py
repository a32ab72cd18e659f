"""Tests for the durable registration journal
(:mod:`repro.serving.journal`).

Crash semantics under a microscope: append/replay round trips,
checksummed lines, torn-tail truncation (unterminated, mangled, and
bad-checksum tails), the torn-vs-corrupt distinction (a mangled record
*before* the tail raises), atomic compaction, fsync policies, and
auto-compaction.
"""

from __future__ import annotations

import json

import pytest

from repro.serving.journal import (
    JournalCorrupt,
    JournalStats,
    RegistrationJournal,
    encode_record,
)

pytestmark = pytest.mark.filterwarnings("error")


def record_for(name: str, replicas: int = 1, facts=None) -> dict:
    return {
        "instance": name,
        "relations": [],
        "facts": facts if facts is not None else [["R", [1], [1, 2]]],
        "replicas": replicas,
    }


class TestAppendReplay:
    def test_round_trip_preserves_records_and_order(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        records = [
            record_for("orders"),
            record_for("users", replicas=2),
            record_for("events", facts=[["S1", [1, 2]]]),
        ]
        for record in records:
            journal.append(record)
        journal.close()

        fresh = RegistrationJournal(path)
        assert fresh.replay() == records
        assert fresh.stats().replayed == 3
        assert fresh.stats().live == 3
        assert fresh.stats().dead == 0

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        journal = RegistrationJournal(tmp_path / "never-written.journal")
        assert journal.replay() == []
        assert journal.stats() == JournalStats()

    def test_lines_are_checksummed_canonical_json(self, tmp_path):
        # The on-disk envelope is inspectable and the checksum covers
        # the canonical record encoding, so key order cannot matter.
        a = {"instance": "orders", "facts": [["R", [1]]], "replicas": 1}
        b = {"replicas": 1, "facts": [["R", [1]]], "instance": "orders"}
        line_a, line_b = encode_record(a), encode_record(b)
        assert json.loads(line_a)["sum"] == json.loads(line_b)["sum"]
        assert json.loads(line_a)["v"] == 1

    def test_append_requires_an_instance_name(self, tmp_path):
        journal = RegistrationJournal(tmp_path / "edge.journal")
        with pytest.raises(ValueError, match="instance"):
            journal.append({"facts": []})
        with pytest.raises(ValueError, match="instance"):
            journal.append({"instance": ""})

    def test_replay_on_the_writing_journal_sees_its_own_appends(
        self, tmp_path
    ):
        journal = RegistrationJournal(
            tmp_path / "edge.journal", fsync="batch"
        )
        journal.append(record_for("orders"))
        # replay() syncs the open handle first, so no append is missed.
        assert journal.replay() == [record_for("orders")]
        journal.close()


class TestTornTail:
    def test_unterminated_tail_is_truncated(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.append(record_for("users"))
        journal.close()
        good = path.read_bytes()
        path.write_bytes(good + b'{"v":1,"sum":"dead')  # crash mid-write

        fresh = RegistrationJournal(path)
        records = fresh.replay()
        assert [r["instance"] for r in records] == ["orders", "users"]
        # The tail was physically truncated back to the durable prefix.
        assert path.read_bytes() == good
        stats = fresh.stats()
        assert stats.torn_records == 1
        assert stats.torn_bytes == len(b'{"v":1,"sum":"dead')

    def test_mangled_final_line_is_truncated(self, tmp_path):
        # Newline-terminated but unparseable: still a torn append (the
        # crash hit between the payload write and the flush boundary).
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.close()
        good = path.read_bytes()
        path.write_bytes(good + b"not json at all\n")

        fresh = RegistrationJournal(path)
        assert [r["instance"] for r in fresh.replay()] == ["orders"]
        assert path.read_bytes() == good

    def test_bad_checksum_final_line_is_truncated(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.close()
        good = path.read_bytes()
        line = json.loads(encode_record(record_for("users")))
        line["sum"] = "0" * 16  # bit rot in the tail record
        path.write_bytes(good + json.dumps(line).encode() + b"\n")

        fresh = RegistrationJournal(path)
        assert [r["instance"] for r in fresh.replay()] == ["orders"]
        assert path.read_bytes() == good

    def test_replay_after_truncation_is_stable(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.close()
        path.write_bytes(path.read_bytes() + b"torn")

        fresh = RegistrationJournal(path)
        first = fresh.replay()
        second = fresh.replay()  # no tail left to forgive
        assert first == second
        assert fresh.stats().torn_records == 1

    def test_mangled_record_before_the_tail_raises(self, tmp_path):
        # A hole in the middle is corruption, not a torn append:
        # replaying around it would silently drop a registration.
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.append(record_for("users"))
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"garbage line\n" + lines[1])

        with pytest.raises(JournalCorrupt, match="corrupted"):
            RegistrationJournal(path).replay()

    def test_bad_checksum_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.append(record_for("users"))
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        first = json.loads(lines[0])
        first["sum"] = "f" * 16
        path.write_bytes(
            json.dumps(first).encode() + b"\n" + lines[1]
        )

        with pytest.raises(JournalCorrupt):
            RegistrationJournal(path).replay()


class TestCompaction:
    def test_compact_keeps_last_record_per_name(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders", replicas=1))
        journal.append(record_for("users"))
        journal.append(record_for("orders", replicas=3))
        assert journal.stats().dead == 1

        dropped = journal.compact()
        assert dropped == 1
        assert journal.stats().dead == 0
        assert journal.stats().compactions == 1
        journal.close()

        records = RegistrationJournal(path).replay()
        # First-appearance order, last record wins.
        assert [(r["instance"], r["replicas"]) for r in records] == [
            ("orders", 3),
            ("users", 1),
        ]

    def test_compact_leaves_no_snapshot_litter(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.append(record_for("orders", replicas=2))
        journal.compact()
        journal.close()
        assert [p.name for p in tmp_path.iterdir()] == ["edge.journal"]

    def test_append_after_compact_continues_the_file(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.append(record_for("orders", replicas=2))
        journal.compact()
        journal.append(record_for("users"))
        journal.close()
        records = RegistrationJournal(path).replay()
        assert [r["instance"] for r in records] == ["orders", "users"]

    def test_forget_drops_a_name_at_the_next_compaction(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path)
        journal.append(record_for("orders"))
        journal.append(record_for("users"))
        journal.forget("orders")
        assert journal.stats().live == 1
        journal.compact()
        journal.close()
        records = RegistrationJournal(path).replay()
        assert [r["instance"] for r in records] == ["users"]

    def test_auto_compact_dead_threshold(self, tmp_path):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path, auto_compact_dead=2)
        journal.append(record_for("orders", replicas=1))
        journal.append(record_for("orders", replicas=2))  # dead: 1
        assert journal.stats().compactions == 0
        journal.append(record_for("orders", replicas=3))  # dead: 2 -> go
        stats = journal.stats()
        assert stats.compactions == 1
        assert stats.dead == 0
        journal.close()
        records = RegistrationJournal(path).replay()
        assert [(r["instance"], r["replicas"]) for r in records] == [
            ("orders", 3)
        ]


class TestDirectoryDurability:
    """A file's fsync does not cover the directory entry naming it: the
    journal fsyncs its directory after creating the file and after a
    compaction renames the snapshot over it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import os
        import stat

        log = []
        fsync, replace = os.fsync, os.replace

        def logged_fsync(descriptor):
            is_dir = stat.S_ISDIR(os.fstat(descriptor).st_mode)
            log.append("fsync-dir" if is_dir else "fsync-file")
            fsync(descriptor)

        def logged_replace(source, target):
            log.append("replace")
            replace(source, target)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        return log

    def test_compaction_fsyncs_the_directory_after_the_rename(
        self, tmp_path, calls
    ):
        journal = RegistrationJournal(tmp_path / "edge.journal")
        journal.append(record_for("orders"))
        journal.append(record_for("orders", replicas=2))
        del calls[:]
        journal.compact()
        assert calls == ["fsync-file", "replace", "fsync-dir"]
        journal.close()

    def test_auto_compaction_fsyncs_the_directory(self, tmp_path, calls):
        journal = RegistrationJournal(
            tmp_path / "edge.journal", auto_compact_dead=1
        )
        journal.append(record_for("orders"))
        del calls[:]
        journal.append(record_for("orders", replicas=2))
        assert calls[-2:] == ["replace", "fsync-dir"]
        journal.close()

    @pytest.mark.parametrize(
        "fsync, expected",
        [
            ("always", ["fsync-dir", "fsync-file"]),
            ("batch", ["fsync-dir"]),
            ("never", []),
        ],
    )
    def test_creating_the_file_fsyncs_the_directory(
        self, tmp_path, calls, fsync, expected
    ):
        path = tmp_path / "edge.journal"
        journal = RegistrationJournal(path, fsync=fsync)
        journal.append(record_for("orders"))
        assert calls == expected
        journal.close()
        # An existing file keeps its directory entry: reopening it to
        # append fsyncs the file only.
        del calls[:]
        journal = RegistrationJournal(path, fsync=fsync)
        journal.append(record_for("users"))
        assert "fsync-dir" not in calls
        journal.close()


class TestPolicyAndStats:
    def test_fsync_policy_is_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            RegistrationJournal(tmp_path / "x", fsync="sometimes")
        with pytest.raises(ValueError, match="auto_compact_dead"):
            RegistrationJournal(tmp_path / "x", auto_compact_dead=0)

    @pytest.mark.parametrize("fsync", ["always", "batch", "never"])
    def test_every_fsync_policy_round_trips(self, tmp_path, fsync):
        path = tmp_path / f"{fsync}.journal"
        journal = RegistrationJournal(path, fsync=fsync)
        journal.append(record_for("orders"))
        journal.sync()  # explicit sync is always allowed
        journal.close()
        assert [
            r["instance"] for r in RegistrationJournal(path).replay()
        ] == ["orders"]

    def test_stats_payload_round_trip(self, tmp_path):
        journal = RegistrationJournal(tmp_path / "edge.journal")
        journal.append(record_for("orders"))
        journal.append(record_for("orders", replicas=2))
        journal.close()
        stats = journal.stats()
        assert stats.appended == 2
        assert stats.live == 1
        assert stats.dead == 1
        assert JournalStats.from_payload(stats.to_payload()) == stats

    def test_live_records_is_a_snapshot(self, tmp_path):
        journal = RegistrationJournal(tmp_path / "edge.journal")
        journal.append(record_for("orders"))
        image = journal.live_records
        image.clear()  # mutating the copy cannot touch the journal
        assert journal.stats().live == 1
        journal.close()
