"""Seeded chaos tests for the sharded service.

The contract under test: with a deterministic :class:`FaultInjector`
firing worker errors, added latency, and phantom queue pressure into a
mixed workload (every route, deadlines, priorities, budgets), **every
submitted request resolves** — to a response or to a *typed* resilience
error — and nothing deadlocks, leaks an unresolved future, or corrupts
the stats.  Faults draw from seeded DrawStream counters, so a failure
here replays exactly under ``PYTHONHASHSEED=0`` (the CI chaos step).
"""

from __future__ import annotations

from concurrent.futures import wait as futures_wait
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.core.deadline import DeadlineExceeded
from repro.db.generator import complete_tid
from repro.pqe.approximate import AccuracyBudget
from repro.queries.hqueries import HQuery, q9
from repro.serving import ShardedService
from repro.serving.faults import FaultInjector, TransientFaultError
from repro.serving.resilience import (
    CircuitBreakerOpen,
    RetryPolicy,
    ServiceStopped,
    ShardOverloaded,
)

pytestmark = pytest.mark.filterwarnings("error")

#: The complete set of errors a chaos-stressed future may resolve to.
#: Anything outside this set is a bug in the resilience layer.
TYPED_ERRORS = (
    DeadlineExceeded,
    ShardOverloaded,
    CircuitBreakerOpen,
    ServiceStopped,
    TransientFaultError,
)


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def mixed_workload(service: ShardedService, rounds: int):
    """Submit a mixed-route workload; returns (futures, submit_errors).

    Routes covered per round: extensional (q9), brute force (small hard
    instance), sampling (large hard instance with a budget) — across
    distinct instances so traffic spreads over shards and keys.
    Deadlines range from hopeless (1 ms) to generous; priorities 0-2.
    """
    hard = hard_full_disjunction(3)
    futures = []
    submit_errors = []

    def submit(query, tid, budget=None, **kwargs):
        try:
            futures.append(service.submit(query, tid, budget, **kwargs))
        except TYPED_ERRORS as error:  # pragma: no cover - rare path
            submit_errors.append(error)

    sampling_budget = AccuracyBudget(
        epsilon=0.3, min_samples=32, max_samples=128, seed=5
    )
    for i in range(rounds):
        safe_tid = complete_tid(3, 2 + i % 3, 2, prob=Fraction(1, 2))
        small_hard = complete_tid(3, 1 + i % 2, 1, prob=Fraction(1, 3))
        large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3 + i % 2))
        submit(q9(), safe_tid, priority=i % 3)
        submit(q9(), safe_tid, deadline_ms=1.0 if i % 5 == 0 else 10_000.0)
        submit(hard, small_hard, deadline_ms=5_000.0, priority=1)
        submit(hard, large_hard, sampling_budget, deadline_ms=10_000.0)
    return futures, submit_errors


def resolve_all(futures, timeout: float = 120.0):
    """Wait for every future; returns (responses, errors).

    Fails the test if any future is still unresolved at the timeout —
    the no-deadlock / no-leaked-future chaos invariant.
    """
    done, not_done = futures_wait(futures, timeout=timeout)
    assert not not_done, (
        f"{len(not_done)} futures never resolved under chaos"
    )
    responses, errors = [], []
    for future in done:
        error = future.exception()
        if error is None:
            responses.append(future.result())
        else:
            errors.append(error)
    return responses, errors


class TestChaos:
    def test_every_request_resolves_under_faults(self):
        injector = FaultInjector(
            seed=3,
            error_rate=Fraction(3, 20),
            latency_rate=Fraction(1, 5),
            latency_ms=5.0,
            pressure_rate=Fraction(1, 8),
            pressure_depth=8,
        )
        service = ShardedService(
            shards=2,
            workers_per_shard=2,
            max_queue_depth=16,
            retry=RetryPolicy(
                attempts=2, base_delay_ms=0.5, max_delay_ms=2.0
            ),
            breaker_failure_threshold=4,
            breaker_reset_after_ms=50.0,
            fault_injector=injector,
        )
        try:
            futures, submit_errors = mixed_workload(service, rounds=12)
            responses, errors = resolve_all(futures)
            # Every error is typed; no bare RuntimeError subclasses leak
            # out except our own.
            for error in errors + submit_errors:
                assert isinstance(error, TYPED_ERRORS), repr(error)
            # Responses are real answers.
            for response in responses:
                assert 0.0 <= response.probability <= 1.0
                if response.degraded:
                    assert response.half_width > 0.0
            # The workload actually exercised the machinery: most
            # requests succeed, and the injector fired.
            assert len(responses) >= len(futures) // 2
            fired = injector.stats()
            assert fired["errors"] > 0
            assert fired["latency_events"] > 0
            # Stats stay consistent with what callers observed.  A
            # request counts once it is dequeued unexpired; it then
            # either answers, fails terminally, or trips a later
            # deadline check mid-serve — so ``requests`` is bracketed
            # by those outcomes.
            stats = service.stats()
            res = stats.resilience
            assert res.failures == sum(
                1 for e in errors if isinstance(e, TransientFaultError)
            )
            assert (
                len(responses) + res.failures
                <= stats.requests
                <= len(responses) + res.failures + res.deadline_exceeded
            )
            assert res.shed + res.breaker_rejected == sum(
                1
                for e in errors + submit_errors
                if isinstance(e, (ShardOverloaded, CircuitBreakerOpen))
            )
            assert res.deadline_exceeded >= sum(
                1 for e in errors if isinstance(e, DeadlineExceeded)
            )
            assert res.injected_errors + res.retries >= res.failures
        finally:
            service.stop(wait=True)

    def test_chaos_schedule_replays_identically(self):
        # Two runs over the same seed and workload shed / fail / degrade
        # the same request indices: the fault schedule is a pure function
        # of (seed, admission order), which is what makes a chaos failure
        # debuggable.
        def run():
            service = ShardedService(
                shards=2,
                workers_per_shard=1,  # single worker => stable order
                retry=RetryPolicy(attempts=1),
                fault_injector=FaultInjector(
                    seed=9, error_rate=Fraction(1, 4)
                ),
            )
            try:
                hard = hard_full_disjunction(3)
                outcomes = []
                for i in range(24):
                    tid = complete_tid(
                        3, 2 + i % 3, 2, prob=Fraction(1, 2)
                    )
                    future = service.submit(
                        q9() if i % 2 == 0 else hard, tid
                    )
                    error = future.exception(timeout=60)
                    if error is None:
                        outcomes.append(
                            ("ok", future.result().probability)
                        )
                    else:
                        outcomes.append((type(error).__name__, None))
                return outcomes
            finally:
                service.stop(wait=True)

        first = run()
        second = run()
        assert first == second
        assert any(kind == "TransientFaultError" for kind, _ in first)
        assert any(kind == "ok" for kind, _ in first)

    def test_seeded_kill_and_recover_replays_identically(self):
        # Worker-kill chaos over replicated instances, on both backends:
        # the seeded kill schedule crashes the same request indices
        # everywhere (the thread backend has no worker process, but the
        # typed WorkerCrashError and retry schedule are identical), every
        # future resolves to an answer or a typed error, the killed
        # shard is healthy again by the end (the process supervisor
        # respawned its worker), and /dev/shm is clean after stop.
        import glob
        import os

        from repro.serving.shm import segment_prefix

        def run(backend):
            injector = FaultInjector(
                seed=21, worker_kill_rate=Fraction(1, 6)
            )
            service = ShardedService(
                shards=2,
                workers_per_shard=1,  # single drain => stable order
                retry=RetryPolicy(attempts=2, base_delay_ms=0.5),
                breaker_failure_threshold=100,
                fault_injector=injector,
                backend=backend,
            )
            try:
                tids = [
                    complete_tid(3, 2 + i, 2, prob=Fraction(1, 2))
                    for i in range(3)
                ]
                for tid in tids:
                    service.register(tid, replicas=2)
                outcomes = []
                for i in range(24):
                    future = service.submit(q9(), tids[i % 3])
                    error = future.exception(timeout=120)
                    if error is None:
                        outcomes.append(
                            ("ok", future.result().probability)
                        )
                    else:
                        assert isinstance(error, TYPED_ERRORS), repr(error)
                        outcomes.append((type(error).__name__, None))
                # Recovery: every shard is healthy again — on the
                # process backend that means the supervisor respawned
                # each killed worker.
                assert all(
                    shard.healthy() for shard in service._shards
                )
                stats = service.stats()
                kills = injector.stats()["kills"]
                assert kills > 0
                assert (
                    sum(
                        s.resilience.injected_kills for s in stats.shards
                    )
                    == kills
                )
                if backend == "processes":
                    assert stats.supervision.restarts == kills
                    assert stats.supervision.worker_alive
                    assert not stats.supervision.gave_up
                return outcomes, kills
            finally:
                service.stop(wait=True)

        threads = run("threads")
        processes = run("processes")
        assert threads == processes
        assert any(kind == "ok" for kind, _ in threads[0])
        # Kill-recover-stop cycles leave zero shared-memory leaks.
        assert not glob.glob(f"/dev/shm/{segment_prefix()}*"), (
            os.listdir("/dev/shm")
        )

    def test_stop_under_chaos_leaves_no_unresolved_future(self):
        # Stop the service while faulted traffic is still in flight:
        # everything still resolves (answers, typed faults, or
        # ServiceStopped) — shutdown never hangs and never strands a
        # caller.
        service = ShardedService(
            shards=2,
            workers_per_shard=1,
            max_queue_depth=8,
            retry=RetryPolicy(attempts=2, base_delay_ms=0.5),
            fault_injector=FaultInjector(
                seed=11,
                error_rate=Fraction(1, 10),
                latency_rate=Fraction(1, 2),
                latency_ms=20.0,
            ),
        )
        futures, submit_errors = mixed_workload(service, rounds=6)
        service.stop(wait=True)
        responses, errors = resolve_all(futures, timeout=60.0)
        for error in errors + submit_errors:
            assert isinstance(error, TYPED_ERRORS), repr(error)
        assert len(responses) + len(errors) == len(futures)
        # And the stopped service refuses new work, typed.
        with pytest.raises(ServiceStopped):
            service.submit(q9(), complete_tid(3, 2, 2))


class _RetryingGatewayClient:
    """A chaos-tolerant JSON-lines client for the gateway tests: any
    torn reply, reset connection, refused connect (the crash window) or
    typed draining rejection is retried — always with the same
    ``idempotency_key``, which is what makes the retries safe."""

    def __init__(self, server):
        self._server = server
        self._sock = None
        self._file = None
        self.reconnects = -1  # first connect is not a re-connect

    def _connect(self):
        import socket

        self._sock = socket.create_connection(
            ("127.0.0.1", self._server.port), timeout=30
        )
        self._file = self._sock.makefile("rw")
        self.reconnects += 1

    def _teardown(self):
        import contextlib

        with contextlib.suppress(OSError):
            if self._file is not None:
                self._file.close()
            if self._sock is not None:
                self._sock.close()
        self._file = None
        self._sock = None

    def close(self):
        self._teardown()

    def rpc(self, message: dict, deadline_s: float = 120.0) -> dict:
        import json
        import time

        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            try:
                if self._file is None:
                    self._connect()
                self._file.write(json.dumps(message) + "\n")
                self._file.flush()
                line = self._file.readline()
                if not line or not line.endswith("\n"):
                    raise ConnectionError("torn reply")
                reply = json.loads(line)
            except (OSError, ValueError):
                self._teardown()
                time.sleep(0.02)
                continue
            if not reply.get("ok") and reply.get("error") in (
                "GatewayDraining",
                "TooManyConnections",
            ):
                time.sleep(0.02)
                continue
            return reply
        raise AssertionError(f"request never resolved: {message}")


class TestGatewayChaos:
    """Network chaos at the gateway edge: seeded conn_drop /
    partial_write / slow_client lanes plus a crash-and-journal-recovery
    in the middle of the workload.  The contract: every request
    resolves exactly once (an answer or a typed error), and the whole
    outcome sequence replays identically across runs and across both
    service backends."""

    REGISTER_FACTS = [
        ["R", [1], [1, 2]],
        ["S1", [1, 2]],
        ["T", [2], [2, 3]],
    ]
    CONJUNCTION = {"k": 1, "nvars": 2, "table": 8}
    SAFE = {"k": 1, "nvars": 2, "table": 10}

    @staticmethod
    def _facts_wire(tid) -> list:
        return [
            [
                t.relation,
                list(t.values),
                [
                    tid.probability_of(t).numerator,
                    tid.probability_of(t).denominator,
                ],
            ]
            for t in tid.instance.tuple_ids()
        ]

    def _run(self, backend: str, journal_path):
        from repro.serving import GatewayServer

        hard = hard_full_disjunction(3)
        hard_payload = {
            "k": hard.k,
            "nvars": hard.phi.nvars,
            "table": hard.phi.table,
        }
        injector = FaultInjector(
            seed=13,
            conn_drop_rate=Fraction(1, 6),
            partial_write_rate=Fraction(1, 4),
            slow_client_rate=Fraction(1, 4),
            slow_client_ms=2.0,
        )
        service = ShardedService(
            shards=2, workers_per_shard=1, backend=backend
        )
        server = GatewayServer(
            service,
            journal_path=journal_path,
            fault_injector=injector,
        )
        server.start()
        client = _RetryingGatewayClient(server)
        outcomes = []
        try:
            big = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            assert client.rpc(
                {
                    "op": "register",
                    "id": 0,
                    "instance": "orders",
                    "facts": self.REGISTER_FACTS,
                }
            )["ok"]
            assert client.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "big",
                    "facts": self._facts_wire(big),
                }
            )["ok"]
            for i in range(24):
                if i == 12:
                    # SIGKILL-equivalent mid-workload: in-memory state
                    # (catalog, idempotency journal) is gone; the
                    # registration journal is the only recovery input.
                    server.restart(graceful=False)
                if i % 3 == 0:
                    query = {"instance": "orders", "query": self.CONJUNCTION}
                elif i % 3 == 1:
                    query = {"instance": "orders", "query": self.SAFE}
                else:
                    query = {
                        "instance": "big",
                        "query": hard_payload,
                        "budget": {"epsilon": 0.1, "seed": 11},
                    }
                reply = client.rpc(
                    {
                        "op": "query",
                        "id": 100 + i,
                        "idempotency_key": f"req-{i}",
                        **query,
                    }
                )
                if reply.get("ok"):
                    response = reply["response"]
                    outcomes.append(
                        (
                            "ok",
                            response["probability"],
                            response["engine"],
                        )
                    )
                else:
                    outcomes.append((reply["error"], None, None))
            return outcomes, injector.stats(), client.reconnects
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_chaos_workload_replays_identically_across_backends(
        self, tmp_path
    ):
        first, fired_first, reconnects = self._run(
            "threads", tmp_path / "a.journal"
        )
        second, fired_second, _ = self._run(
            "threads", tmp_path / "b.journal"
        )
        processes, _, _ = self._run(
            "processes", tmp_path / "c.journal"
        )
        # Exactly once: one outcome per request, none dropped, none
        # duplicated, every failure typed.
        assert len(first) == 24
        assert all(
            kind == "ok" or kind.isidentifier() for kind, _, _ in first
        )
        # The seeded chaos schedule is a pure function of the draw
        # counters: identical sequences across runs and backends.
        assert first == second
        assert first == processes
        assert fired_first == fired_second
        # The lanes actually fired, and torn replies forced reconnects
        # that the idempotency keys absorbed.
        assert fired_first["conn_drops"] > 0
        assert fired_first["partial_writes"] > 0
        assert fired_first["slow_client_events"] > 0
        assert reconnects >= fired_first["conn_drops"]
        # Answers survived the crash bit-identically: the same query
        # before and after request 12 returned the same float.
        exact = [p for k, p, e in first if e == "brute_force"]
        assert len(set(exact)) == 1 and len(exact) == 8
        sampled = [p for k, p, e in first if e == "karp_luby"]
        assert len(set(sampled)) == 1 and len(sampled) == 8
