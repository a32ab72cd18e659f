"""Tests for replica placement, replicated routing, and worker supervision.

The contract: ``register(..., replicas=n)`` places read-only copies of
an instance along a deterministic rendezvous ring; routing spreads load
across the healthy ring members and fails over past an unhealthy
primary — and none of it is visible in the floats, because every
replica computes the same content-determined probabilities.  On the process backend, a supervisor
detects worker death, respawns the worker, replays its instance
registrations, and gives up into the circuit breaker after
``max_restarts`` — with zero ``/dev/shm`` leaks through arbitrary
kill-recover-stop cycles.
"""

from __future__ import annotations

import glob
import os
import signal
import time
from fractions import Fraction

import pytest

from repro.db.generator import complete_tid
from repro.pqe.engine import evaluate_batch
from repro.queries.hqueries import q9
from repro.serving import (
    CircuitBreakerOpen,
    FaultInjector,
    GatewayServer,
    ProcessShard,
    ShardedService,
    SupervisorPolicy,
    WorkerCrashError,
    placement_ring,
)
from repro.serving.api import QueryRequest
from repro.serving.shm import segment_prefix
from repro.serving.stats import ServiceStats

pytestmark = pytest.mark.filterwarnings("error")


def shm_entries() -> set[str]:
    return {
        os.path.basename(path)
        for path in glob.glob(f"/dev/shm/{segment_prefix()}*")
    }


class TestPlacementRing:
    def test_primary_first_distinct_and_deterministic(self):
        for key in (0, 1, 7, 12345, 2**61 - 1):
            ring = placement_ring(key, 8, 3)
            assert ring[0] == key % 8
            assert len(ring) == 3
            assert len(set(ring)) == 3
            assert all(0 <= index < 8 for index in ring)
            assert ring == placement_ring(key, 8, 3)

    def test_replicas_capped_at_shard_count(self):
        ring = placement_ring(5, 3, 10)
        assert len(ring) == 3
        assert set(ring) == {0, 1, 2}

    def test_prefix_stable_under_replica_increase(self):
        for key in range(40):
            previous = placement_ring(key, 8, 1)
            for replicas in range(2, 9):
                ring = placement_ring(key, 8, replicas)
                assert ring[: len(previous)] == previous
                previous = ring

    def test_replicas_spread_across_instances(self):
        # Rendezvous ordering: different instances pick different first
        # replicas, not one designated backup shard.
        first_replicas = {
            placement_ring(key, 8, 2)[1] for key in range(64)
        }
        assert len(first_replicas) > 3

    def test_validation(self):
        with pytest.raises(ValueError):
            placement_ring(1, 0, 1)
        with pytest.raises(ValueError):
            placement_ring(1, 4, 0)


class TestReplicatedRouting:
    def test_register_places_instance_on_ring_shards(self):
        with ShardedService(shards=4) as service:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            primary = service.register(tid, replicas=3)
            placement = service.placement_of(tid)
            assert placement[0] == primary == service.shard_of(tid)
            assert len(placement) == 3
            for index in placement:
                assert service._shards[index].stats().instances == 1

    def test_reregister_with_more_replicas_extends_prefix(self):
        with ShardedService(shards=4) as service:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            service.register(tid, replicas=2)
            before = service.placement_of(tid)
            service.register(tid, replicas=3)
            after = service.placement_of(tid)
            assert after[:2] == before
            assert len(after) == 3
            # Shrinking never un-places.
            service.register(tid, replicas=1)
            assert service.placement_of(tid) == after

    def test_spread_is_bit_invisible_in_probabilities(self):
        tid = complete_tid(3, 3, 2, prob=Fraction(1, 3))
        reference = evaluate_batch(q9(), [tid] * 16)
        with ShardedService(shards=4) as service:
            service.register(tid, replicas=3)
            responses = service.submit_batch(q9(), [tid] * 16)
            assert [
                r.probability for r in responses
            ] == reference.probabilities
            stats = service.stats()
            assert stats.replication.replicated_instances == 1
            assert stats.replication.replicas_placed == 2
            assert stats.replication.spread > 0
            # Several ring members actually served.
            serving = [s for s in stats.shards if s.requests > 0]
            assert len(serving) > 1

    def test_failover_past_tripped_primary(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        reference = evaluate_batch(q9(), [tid])
        with ShardedService(shards=4) as service:
            service.register(tid, replicas=2)
            primary = service.shard_of(tid)
            service._shards[primary]._breaker.trip()
            responses = service.submit_batch(q9(), [tid] * 4)
            for response in responses:
                assert response.probability == reference.probabilities[0]
            stats = service.stats()
            assert stats.replication.failovers == 4
            assert stats.shards[primary].requests == 0

    def test_unreplicated_instance_gets_primary_rejection(self):
        # No replicas: a tripped primary's typed rejection surfaces —
        # failover is opt-in via register(replicas>=2).
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        with ShardedService(shards=2) as service:
            service.register(tid)
            service._shards[service.shard_of(tid)]._breaker.trip()
            future = service.submit(q9(), tid)
            assert isinstance(
                future.exception(timeout=60), CircuitBreakerOpen
            )


class TestFaultInjectorKillLanes:
    def test_kill_and_straggler_schedules_are_deterministic(self):
        first = FaultInjector(
            seed=7,
            worker_kill_rate=Fraction(1, 4),
            straggler_rate=Fraction(1, 3),
            straggler_ms=5.0,
        )
        second = FaultInjector(
            seed=7,
            worker_kill_rate=Fraction(1, 4),
            straggler_rate=Fraction(1, 3),
            straggler_ms=5.0,
        )
        kills = [
            (shard, index, attempt)
            for shard in range(2)
            for index in range(32)
            for attempt in range(2)
            if first.should_kill(shard, index, attempt)
        ]
        assert kills == [
            (shard, index, attempt)
            for shard in range(2)
            for index in range(32)
            for attempt in range(2)
            if second.should_kill(shard, index, attempt)
        ]
        assert kills  # the schedule actually fires at rate 1/4
        stragglers = [
            first.straggler_ms_for(shard, index)
            for shard in range(2)
            for index in range(32)
        ]
        assert stragglers == [
            second.straggler_ms_for(shard, index)
            for shard in range(2)
            for index in range(32)
        ]
        assert any(delay == 5.0 for delay in stragglers)
        assert first.stats()["kills"] == len(kills)
        assert first.stats()["straggler_events"] == sum(
            1 for delay in stragglers if delay > 0
        )

    def test_kill_fault_parity_across_backends(self):
        # The kill *schedule* is parent-side policy: the same request
        # indices crash on both backends — the thread backend has no
        # worker to kill but raises the same typed WorkerCrashError.
        def run(backend):
            service = ShardedService(
                shards=2,
                workers_per_shard=1,
                fault_injector=FaultInjector(
                    seed=13, worker_kill_rate=Fraction(1, 5)
                ),
                backend=backend,
            )
            try:
                outcomes = []
                for i in range(16):
                    tid = complete_tid(
                        3, 2 + i % 3, 2, prob=Fraction(1, 2)
                    )
                    future = service.submit(q9(), tid)
                    error = future.exception(timeout=120)
                    if error is None:
                        outcomes.append(
                            ("ok", future.result().probability)
                        )
                    else:
                        outcomes.append((type(error).__name__, None))
                return outcomes
            finally:
                service.stop(wait=True)

        threads = run("threads")
        processes = run("processes")
        assert threads == processes
        assert any(kind == "ok" for kind, _ in threads)
        assert not shm_entries()


class TestSupervision:
    def test_injected_kill_respawns_and_retry_succeeds(self):
        # Rate 1/2 at seed 29 kills some first attempts; the retry runs
        # on the already-respawned worker and answers.
        injector = FaultInjector(
            seed=29, worker_kill_rate=Fraction(1, 2)
        )
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        reference = evaluate_batch(q9(), [tid])
        service = ShardedService(
            shards=1,
            workers_per_shard=1,
            backend="processes",
            fault_injector=injector,
            # Keep the breaker out of the picture: this test is about
            # kill -> respawn -> retry, not failure accounting.
            breaker_failure_threshold=100,
        )
        try:
            outcomes = []
            for _ in range(12):
                future = service.submit(q9(), tid)
                error = future.exception(timeout=120)
                outcomes.append(error)
            for error in outcomes:
                assert error is None or isinstance(
                    error, WorkerCrashError
                ), repr(error)
            assert any(error is None for error in outcomes)
            ok = service.submit(q9(), tid).result(timeout=120)
            assert ok.probability == reference.probabilities[0]
            stats = service.stats()
            assert injector.stats()["kills"] > 0
            assert stats.supervision.restarts == injector.stats()["kills"]
            assert stats.supervision.worker_alive
            assert not stats.supervision.gave_up
            assert service._shards[0].healthy()
        finally:
            service.stop(wait=True)
        assert not shm_entries()

    def test_external_kill_respawns_and_replays_registrations(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        try:
            reference = service.submit(q9(), tid).result(timeout=120)
            shard = service._shards[0]
            os.kill(shard._client._process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if shard.stats().supervisor.restarts >= 1:
                    break
                time.sleep(0.02)
            supervisor = shard.stats().supervisor
            assert supervisor.restarts == 1
            assert supervisor.replayed_instances == 1
            assert supervisor.respawn_ms > 0.0
            # Poll through the breaker window the death opened.
            again = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    again = service.submit(q9(), tid).result(timeout=120)
                    break
                except CircuitBreakerOpen:
                    time.sleep(0.05)
            assert again is not None
            assert again.probability == reference.probability
        finally:
            service.stop(wait=True)
        assert not shm_entries()

    def test_max_restarts_gives_up_into_breaker(self):
        from repro.serving import CircuitBreaker

        shard = ProcessShard(
            0,
            workers=1,
            breaker=CircuitBreaker(),
            supervisor=SupervisorPolicy(max_restarts=0),
        )
        try:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            shard.submit(QueryRequest(q9(), tid)).result(timeout=120)
            os.kill(shard._client._process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if shard._supervisor.gave_up:
                    break
                time.sleep(0.02)
            supervisor = shard.stats().supervisor
            assert supervisor.gave_up
            assert supervisor.restarts == 0
            assert not shard.healthy()
            future = shard.submit(QueryRequest(q9(), tid))
            assert isinstance(
                future.exception(timeout=60), CircuitBreakerOpen
            )
        finally:
            shard.stop(wait=True)
        assert not shm_entries()

    def test_replicas_share_segments_on_one_registry(self):
        # One service-wide registry: a replicated instance publishes its
        # probability columns once, not once per ring shard.
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        service = ShardedService(shards=2, backend="processes")
        try:
            service.register(tid, replicas=2)
            service.submit_batch(q9(), [tid] * 8)
            assert len(service._registry) == 1
        finally:
            service.stop(wait=True)
        assert not shm_entries()


class TestReplicationStatsAndGateway:
    def test_service_stats_payload_round_trips_new_sections(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        with ShardedService(shards=4) as service:
            service.register(tid, replicas=2)
            service.submit_batch(q9(), [tid] * 8)
            stats = service.stats()
        payload = stats.to_payload()
        rebuilt = ServiceStats.from_payload(payload)
        assert rebuilt == stats
        assert rebuilt.replication == stats.replication
        assert rebuilt.hedging == stats.hedging
        assert rebuilt.supervision == stats.supervision
        import json

        assert json.loads(json.dumps(payload)) == payload

    def test_gateway_register_accepts_replicas(self):
        import socket

        service = ShardedService(shards=4)
        with GatewayServer(service) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                reader = sock.makefile("r")
                import json

                sock.sendall(
                    (
                        json.dumps(
                            {
                                "op": "register",
                                "id": 1,
                                "instance": "orders",
                                "facts": [
                                    ["R", [1], [1, 2]],
                                    ["S1", [1, 2]],
                                    ["T", [2], [2, 3]],
                                ],
                                "replicas": 2,
                            }
                        )
                        + "\n"
                    ).encode()
                )
                reply = json.loads(reader.readline())
                assert reply["ok"], reply
                assert len(reply["placement"]) == 2
                assert reply["placement"][0] == reply["shard"]
                sock.sendall(
                    (
                        json.dumps(
                            {
                                "op": "register",
                                "id": 2,
                                "instance": "bad",
                                "facts": [],
                                "replicas": 0,
                            }
                        )
                        + "\n"
                    ).encode()
                )
                reply = json.loads(reader.readline())
                assert not reply["ok"]
                assert reply["error"] == "ValueError"
        service.stop(wait=True)
