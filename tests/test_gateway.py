"""Tests for the asyncio JSON-lines gateway (:mod:`repro.serving.gateway`).

A real TCP client (blocking sockets, newline-delimited JSON) against a
:class:`GatewayServer` running on its background event loop: protocol
round trips, float parity with the direct engine, typed errors on the
wire, tenant quotas, and both service backends behind one gateway.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.pqe.engine import BRUTE_FORCE_LIMIT, evaluate_batch
from repro.queries.hqueries import HQuery
from repro.serving import GatewayServer, ShardedService
from repro.serving.stats import ServiceStats

pytestmark = pytest.mark.filterwarnings("error")

#: The docstring query: k=1, phi = x0 AND x1 (truth table 0b1000) — the
#: canonical hard H_1, which brute-forces on the tiny reference TID.
CONJ_QUERY = HQuery(1, BooleanFunction(2, 8))
CONJUNCTION = {"k": 1, "nvars": 2, "table": 8}

#: k=1, phi = x0 (truth table 0b1010) — safe monotone, extensional.
SAFE_QUERY = HQuery(1, BooleanFunction(2, 10))
SAFE = {"k": 1, "nvars": 2, "table": 10}


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def query_payload(query: HQuery) -> dict:
    return {"k": query.k, "nvars": query.phi.nvars, "table": query.phi.table}


def facts_of(tid) -> list:
    """A TID's facts in the gateway's wire form (exact rationals)."""
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


class Client:
    """A blocking JSON-lines client socket."""

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port))
        self._file = self._sock.makefile("rw")

    def send(self, message: dict) -> None:
        self._file.write(json.dumps(message) + "\n")
        self._file.flush()

    def send_raw(self, line: str) -> None:
        self._file.write(line + "\n")
        self._file.flush()

    def recv(self) -> dict:
        return json.loads(self._file.readline())

    def rpc(self, message: dict) -> dict:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        # ``makefile`` holds its own reference to the socket: both must
        # close before the peer sees EOF.
        self._file.close()
        self._sock.close()


def reference_tid():
    """The TID matching :data:`REGISTER_FACTS`, built directly."""
    from repro.db.relation import Instance
    from repro.db.tid import TupleIndependentDatabase

    instance = Instance()
    tid = TupleIndependentDatabase(instance)
    a = instance.add("R", (1,))
    tid.set_probability(a, Fraction(1, 2))
    instance.add("S1", (1, 2))
    b = instance.add("T", (2,))
    tid.set_probability(b, Fraction(2, 3))
    return tid


REGISTER_FACTS = [
    ["R", [1], [1, 2]],
    ["S1", [1, 2]],
    ["T", [2], [2, 3]],
]


@pytest.fixture()
def gateway_backend(request):
    backend = getattr(request, "param", "threads")
    service = ShardedService(shards=2, backend=backend)
    server = GatewayServer(service)
    server.start()
    try:
        yield server
    finally:
        server.stop()
        service.stop(wait=True)


class TestProtocol:
    def test_ping(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            reply = client.rpc({"op": "ping", "id": 41})
            assert reply == {"id": 41, "ok": True, "pong": True}
        finally:
            client.close()

    def test_register_reports_shard_and_size(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            reply = client.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            assert reply["ok"]
            assert reply["instance"] == "orders"
            assert reply["tuples"] == 3
            assert 0 <= reply["shard"] < 2
        finally:
            client.close()

    def test_query_matches_direct_engine_float(self, gateway_backend):
        reference = evaluate_batch(CONJ_QUERY, [reference_tid()])
        client = Client(gateway_backend.port)
        try:
            client.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"]
            response = reply["response"]
            assert response["probability"] == reference.probabilities[0]
            assert response["engine"] == "brute_force"
            safe_reference = evaluate_batch(SAFE_QUERY, [reference_tid()])
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 3,
                    "instance": "orders",
                    "query": SAFE,
                }
            )
            assert reply["ok"]
            response = reply["response"]
            assert (
                response["probability"] == safe_reference.probabilities[0]
            )
            assert response["engine"] == "extensional"
        finally:
            client.close()

    def test_budgeted_hard_query_is_deterministic(self, gateway_backend):
        # A hard query on a large instance routes to seeded sampling;
        # the same (seed, budget) over the wire replays the same
        # estimate and error bar.
        large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        assert len(large_hard) > BRUTE_FORCE_LIMIT
        client = Client(gateway_backend.port)
        try:
            client.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "big",
                    "facts": facts_of(large_hard),
                }
            )
            replies = [
                client.rpc(
                    {
                        "op": "query",
                        "id": 2 + i,
                        "instance": "big",
                        "query": query_payload(hard_full_disjunction(3)),
                        "budget": {"epsilon": 0.1, "seed": 11},
                    }
                )
                for i in range(2)
            ]
            assert all(reply["ok"] for reply in replies)
            first, second = (reply["response"] for reply in replies)
            assert first["engine"] == "karp_luby"
            assert first["samples"] > 0
            assert first["half_width"] > 0.0
            assert first["probability"] == second["probability"]
            assert first["half_width"] == second["half_width"]
            assert first["samples"] == second["samples"]
        finally:
            client.close()

    def test_stats_round_trip(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            client.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            client.rpc(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "orders",
                    "query": SAFE,
                }
            )
            reply = client.rpc({"op": "stats", "id": 3})
            assert reply["ok"]
            stats = ServiceStats.from_payload(reply["stats"])
            assert stats.requests == 1
            assert stats.engines == {"extensional": 1}
            assert len(stats.shards) == 2
        finally:
            client.close()


@pytest.mark.parametrize(
    "gateway_backend", ["processes"], indirect=True
)
class TestProcessBackendGateway:
    def test_full_round_trip_over_worker_processes(self, gateway_backend):
        reference = evaluate_batch(CONJ_QUERY, [reference_tid()])
        client = Client(gateway_backend.port)
        try:
            client.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"]
            assert (
                reply["response"]["probability"]
                == reference.probabilities[0]
            )
            stats = ServiceStats.from_payload(
                client.rpc({"op": "stats", "id": 3})["stats"]
            )
            assert stats.requests == 1
        finally:
            client.close()


class TestTypedErrors:
    def test_unknown_instance(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 5,
                    "instance": "nope",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"] is False
            assert reply["error"] == "KeyError"
            assert "register" in reply["message"]
            assert reply["id"] == 5
        finally:
            client.close()

    def test_malformed_json_still_gets_a_reply(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            client.send_raw("{not json")
            reply = client.recv()
            assert reply["ok"] is False
            assert reply["error"] == "JSONDecodeError"
            assert reply["id"] is None
            # The connection survives a bad line.
            assert client.rpc({"op": "ping", "id": 6})["pong"]
        finally:
            client.close()

    def test_unknown_op_and_unknown_budget_field(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            reply = client.rpc({"op": "explode", "id": 7})
            assert reply["error"] == "ValueError"
            client.rpc(
                {
                    "op": "register",
                    "id": 8,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 9,
                    "instance": "orders",
                    "query": CONJUNCTION,
                    "budget": {"epsilon": 0.1, "turbo": True},
                }
            )
            assert reply["error"] == "ValueError"
            assert "turbo" in reply["message"]
        finally:
            client.close()


class TestQuotas:
    def test_tenant_quota_rejects_second_inflight_request(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service, default_tenant_quota=1)
        server.start()
        slow = Client(server.port)
        fast = Client(server.port)
        try:
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            slow.rpc(
                {
                    "op": "register",
                    "id": 1,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            slow.rpc(
                {
                    "op": "register",
                    "id": 2,
                    "instance": "big",
                    "facts": facts_of(large_hard),
                }
            )
            # Occupy tenant "acme"'s whole quota with a slow sampled
            # query (a large fixed-count budget), then race a second
            # request in on another connection.
            slow.send(
                {
                    "op": "query",
                    "id": 3,
                    "instance": "big",
                    "query": query_payload(hard_full_disjunction(3)),
                    "tenant": "acme",
                    "budget": {
                        "epsilon": 0.001,
                        "min_samples": 200_000,
                        "max_samples": 200_000,
                        "seed": 1,
                        "adaptive": False,
                    },
                }
            )
            deadline = time.monotonic() + 10
            rejected = None
            while time.monotonic() < deadline:
                reply = fast.rpc(
                    {
                        "op": "query",
                        "id": 3,
                        "instance": "orders",
                        "query": CONJUNCTION,
                        "tenant": "acme",
                    }
                )
                if not reply["ok"]:
                    rejected = reply
                    break
                time.sleep(0.01)  # slow query not admitted yet; retry
            assert rejected is not None, "quota never engaged"
            assert rejected["error"] == "TenantQuotaExceeded"
            # Another tenant is not affected by acme's quota.
            other = fast.rpc(
                {
                    "op": "query",
                    "id": 4,
                    "instance": "orders",
                    "query": CONJUNCTION,
                    "tenant": "zeta",
                }
            )
            assert other["ok"]
            # The slow request itself completes fine.
            assert slow.recv()["ok"]
        finally:
            slow.close()
            fast.close()
            server.stop()
            service.stop(wait=True)


class TestLifecycle:
    def test_context_manager_and_concurrent_clients(self):
        service = ShardedService(shards=2)
        reference = evaluate_batch(CONJ_QUERY, [reference_tid()])
        errors: list[BaseException] = []
        with GatewayServer(service) as server:
            setup = Client(server.port)
            setup.rpc(
                {
                    "op": "register",
                    "id": 0,
                    "instance": "orders",
                    "facts": REGISTER_FACTS,
                }
            )
            setup.close()

            def hammer():
                try:
                    client = Client(server.port)
                    for i in range(8):
                        reply = client.rpc(
                            {
                                "op": "query",
                                "id": i,
                                "instance": "orders",
                                "query": CONJUNCTION,
                            }
                        )
                        assert reply["ok"]
                        assert (
                            reply["response"]["probability"]
                            == reference.probabilities[0]
                        )
                    client.close()
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        service.stop(wait=True)

    def test_stop_with_open_connection_is_clean(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        assert client.rpc({"op": "ping", "id": 0})["pong"]
        server.stop()  # connection still open — must not hang or error
        service.stop(wait=True)
        client.close()


#: REGISTER_FACTS with R's probability changed — different content
#: fingerprint, different answers: the replacement test pair.
REPLACED_FACTS = [
    ["R", [1], [1, 3]],
    ["S1", [1, 2]],
    ["T", [2], [2, 3]],
]

BIG_BUDGET = {
    "epsilon": 0.001,
    "min_samples": 150_000,
    "max_samples": 150_000,
    "seed": 1,
    "adaptive": False,
}


def replaced_tid():
    """The TID matching :data:`REPLACED_FACTS`, built directly."""
    from repro.db.relation import Instance
    from repro.db.tid import TupleIndependentDatabase

    instance = Instance()
    tid = TupleIndependentDatabase(instance)
    a = instance.add("R", (1,))
    tid.set_probability(a, Fraction(1, 3))
    instance.add("S1", (1, 2))
    b = instance.add("T", (2,))
    tid.set_probability(b, Fraction(2, 3))
    return tid


def register(client, name, facts, message_id=1, **extra):
    reply = client.rpc(
        {
            "op": "register",
            "id": message_id,
            "instance": name,
            "facts": facts,
            **extra,
        }
    )
    assert reply["ok"], reply
    return reply


def gateway_payload(client) -> dict:
    reply = client.rpc({"op": "stats", "id": 999})
    assert reply["ok"]
    return reply["gateway"]


def sans_latency(response: dict) -> dict:
    """A response payload without its wall-clock field — everything
    else is content-determined and must be bit-identical."""
    return {k: v for k, v in response.items() if k != "latency_ms"}


@pytest.mark.parametrize(
    "gateway_backend", ["threads", "processes"], indirect=True
)
class TestJournalRecovery:
    def test_crash_restart_recovers_bit_identically(
        self, gateway_backend, tmp_path
    ):
        # A gateway with a journal, killed without warning: the restart
        # replays the journal, and every answer — exact and sampled —
        # is the bit-identical float the pre-crash gateway served.
        service = gateway_backend._service
        server = GatewayServer(
            service, journal_path=tmp_path / "edge.journal"
        )
        server.start()
        try:
            client = Client(server.port)
            first = register(client, "orders", REGISTER_FACTS)
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            register(client, "big", facts_of(large_hard), message_id=2)
            exact = client.rpc(
                {
                    "op": "query",
                    "id": 3,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            sampled = client.rpc(
                {
                    "op": "query",
                    "id": 4,
                    "instance": "big",
                    "query": query_payload(hard_full_disjunction(3)),
                    "budget": {"epsilon": 0.1, "seed": 11},
                }
            )
            assert exact["ok"] and sampled["ok"]
            client.close()

            server.restart(graceful=False)  # SIGKILL-equivalent

            client = Client(server.port)
            # No re-registration: the journal is the only recovery path.
            exact_after = client.rpc(
                {
                    "op": "query",
                    "id": 5,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            sampled_after = client.rpc(
                {
                    "op": "query",
                    "id": 6,
                    "instance": "big",
                    "query": query_payload(hard_full_disjunction(3)),
                    "budget": {"epsilon": 0.1, "seed": 11},
                }
            )
            assert exact_after["ok"] and sampled_after["ok"]
            assert sans_latency(exact_after["response"]) == sans_latency(
                exact["response"]
            )
            assert sans_latency(
                sampled_after["response"]
            ) == sans_latency(sampled["response"])
            # Same content, same shard_key, same ring: re-registering
            # after recovery is an idempotent no-op on the same shard.
            again = register(
                client, "orders", REGISTER_FACTS, message_id=7
            )
            assert again["replaced"] is False
            assert again["shard"] == first["shard"]
            assert again["placement"] == first["placement"]
            payload = gateway_payload(client)
            assert payload["replayed_instances"] == 2
            assert payload["journal"]["replayed"] == 2
            client.close()
        finally:
            server.stop()

    def test_gateway_stats_payload_round_trip(
        self, gateway_backend, tmp_path
    ):
        from repro.serving.stats import GatewayStats

        service = gateway_backend._service
        server = GatewayServer(
            service, journal_path=tmp_path / "edge.journal"
        )
        server.start()
        try:
            client = Client(server.port)
            register(client, "orders", REGISTER_FACTS)
            client.rpc(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "orders",
                    "query": SAFE,
                    "idempotency_key": "k1",
                }
            )
            payload = gateway_payload(client)
            stats = GatewayStats.from_payload(payload)
            assert stats.to_payload() == payload
            assert stats.requests == 1
            assert stats.journal.appended == 1
            assert stats.connections >= 1
            client.close()
        finally:
            server.stop()


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new_typed(self):
        # The ladder: accepted work finishes under its own deadline, a
        # pre-existing connection gets typed GatewayDraining for new
        # work, new connections cannot be opened, and the drain reports
        # clean because nothing in flight was cancelled.
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        slow = Client(server.port)
        other = Client(server.port)
        try:
            register(slow, "orders", REGISTER_FACTS)
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            register(slow, "big", facts_of(large_hard), message_id=2)
            slow.send(
                {
                    "op": "query",
                    "id": 3,
                    "instance": "big",
                    "query": query_payload(hard_full_disjunction(3)),
                    "budget": BIG_BUDGET,
                }
            )
            time.sleep(0.2)  # let the slow query be admitted
            drained: dict = {}

            def drain():
                drained["clean"] = server.drain(grace_ms=60_000.0)

            drainer = threading.Thread(target=drain)
            drainer.start()
            # Wait for the draining flag, then probe the pre-existing
            # connection once.  (A probe admitted before the flag flips
            # is in flight — on the process backend queued behind the
            # slow sweep — and the drain closes its connection.)
            deadline = time.monotonic() + 10
            while not server.gateway.draining:
                assert time.monotonic() < deadline, "draining never engaged"
                time.sleep(0.01)
            rejection = other.rpc(
                {
                    "op": "query",
                    "id": 4,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            assert rejection["error"] == "GatewayDraining"
            # Registers are rejected the same way while draining.
            reject_register = other.rpc(
                {
                    "op": "register",
                    "id": 5,
                    "instance": "late",
                    "facts": REGISTER_FACTS,
                }
            )
            assert reject_register["error"] == "GatewayDraining"
            # The in-flight slow query still completes with an answer.
            finished = slow.recv()
            assert finished["ok"], finished
            drainer.join(timeout=60)
            assert drained["clean"] is True
            # The listener is gone: no new connection can be opened.
            with pytest.raises(OSError):
                socket.create_connection(
                    ("127.0.0.1", server.port), timeout=0.5
                )
        finally:
            slow.close()
            other.close()
            server.stop()
            service.stop(wait=True)

    def test_drain_with_expired_grace_reports_dirty(self):
        # grace_ms=0 with work in flight: the gateway closes anyway and
        # honestly reports the drain was not clean.
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        try:
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            register(client, "big", facts_of(large_hard))
            client.send(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "big",
                    "query": query_payload(hard_full_disjunction(3)),
                    "budget": BIG_BUDGET,
                }
            )
            time.sleep(0.2)
            assert server.drain(grace_ms=0.0) is False
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_drain_idle_gateway_is_clean_even_with_zero_grace(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        try:
            assert server.drain(grace_ms=0.0) is True
        finally:
            server.stop()
            service.stop(wait=True)


class TestIdempotency:
    def test_completed_retry_replays_recorded_reply_verbatim(self):
        service = ShardedService(shards=2)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        try:
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            register(client, "big", facts_of(large_hard))
            request = {
                "op": "query",
                "id": 2,
                "instance": "big",
                "query": query_payload(hard_full_disjunction(3)),
                "budget": {"epsilon": 0.1, "seed": 11},
                "idempotency_key": "req-1",
            }
            first = client.rpc(request)
            assert first["ok"]
            retry = client.rpc({**request, "id": 3})
            assert retry["ok"]
            assert retry["id"] == 3
            assert retry["response"] == first["response"]
            # One execution, one replay: the service saw one request.
            stats_reply = client.rpc({"op": "stats", "id": 4})
            assert (
                ServiceStats.from_payload(stats_reply["stats"]).requests
                == 1
            )
            idem = stats_reply["gateway"]["idempotency"]
            assert idem["hits"] == 1
            assert idem["joins"] == 0
            assert idem["entries"] == 1
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_inflight_retry_joins_the_same_execution(self):
        # A retry racing the original joins the same sampling sweep —
        # no duplicate submission, and both replies carry the same
        # bit-identical floats.
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        first = Client(server.port)
        second = Client(server.port)
        try:
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            register(first, "big", facts_of(large_hard))
            request = {
                "op": "query",
                "id": 2,
                "instance": "big",
                "query": query_payload(hard_full_disjunction(3)),
                "budget": BIG_BUDGET,
                "idempotency_key": "req-join",
            }
            first.send(request)
            time.sleep(0.2)  # the original is registered in the LRU
            joined = second.rpc({**request, "id": 3})
            original = first.recv()
            assert original["ok"] and joined["ok"]
            assert joined["response"] == original["response"]
            stats_reply = first.rpc({"op": "stats", "id": 4})
            assert (
                ServiceStats.from_payload(stats_reply["stats"]).requests
                == 1
            )
            assert stats_reply["gateway"]["idempotency"]["joins"] == 1
        finally:
            first.close()
            second.close()
            server.stop()
            service.stop(wait=True)

    def test_typed_error_outcome_is_recorded_and_replayed(self):
        # An admitted request's outcome is its outcome — even when that
        # outcome is a typed error.  The retry replays it rather than
        # executing a second time.
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        try:
            register(client, "orders", REGISTER_FACTS)
            request = {
                "op": "query",
                "id": 2,
                "instance": "orders",
                "query": CONJUNCTION,
                "deadline_ms": 0.0001,
                "idempotency_key": "req-dead",
            }
            first = client.rpc(request)
            assert first["ok"] is False
            assert first["error"] == "DeadlineExceeded"
            retry = client.rpc({**request, "id": 3})
            assert retry["error"] == first["error"]
            assert retry["message"] == first["message"]
            assert gateway_payload(client)["idempotency"]["hits"] == 1
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_rejected_requests_are_not_recorded(self):
        # A pre-admission failure (unknown instance) must not poison
        # the key: once the instance exists, the retry succeeds.
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        try:
            request = {
                "op": "query",
                "id": 1,
                "instance": "orders",
                "query": CONJUNCTION,
                "idempotency_key": "req-early",
            }
            early = client.rpc(request)
            assert early["error"] == "KeyError"
            register(client, "orders", REGISTER_FACTS, message_id=2)
            retry = client.rpc({**request, "id": 3})
            assert retry["ok"], retry
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_lru_eviction_bounds_the_response_journal(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service, idempotency_capacity=2)
        server.start()
        client = Client(server.port)
        try:
            register(client, "orders", REGISTER_FACTS)
            for i, key in enumerate(["k1", "k2", "k3"]):
                reply = client.rpc(
                    {
                        "op": "query",
                        "id": 10 + i,
                        "instance": "orders",
                        "query": CONJUNCTION,
                        "idempotency_key": key,
                    }
                )
                assert reply["ok"]
            idem = gateway_payload(client)["idempotency"]
            assert idem["entries"] == 2
            assert idem["evictions"] == 1
            # k1 was evicted: the retry re-executes instead of replaying.
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 20,
                    "instance": "orders",
                    "query": CONJUNCTION,
                    "idempotency_key": "k1",
                }
            )
            assert reply["ok"]
            stats_reply = client.rpc({"op": "stats", "id": 21})
            assert (
                ServiceStats.from_payload(stats_reply["stats"]).requests
                == 4
            )
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_bad_idempotency_key_is_a_typed_error(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        try:
            register(client, "orders", REGISTER_FACTS)
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "orders",
                    "query": CONJUNCTION,
                    "idempotency_key": 7,
                }
            )
            assert reply["error"] == "ValueError"
            assert "idempotency_key" in reply["message"]
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)


class TestReRegister:
    def test_same_content_is_idempotent(self, gateway_backend):
        client = Client(gateway_backend.port)
        try:
            first = register(client, "orders", REGISTER_FACTS)
            again = register(client, "orders", REGISTER_FACTS, 2)
            assert again["replaced"] is False
            assert again["shard"] == first["shard"]
            assert again["placement"] == first["placement"]
            # The catalog did not grow a phantom second registration.
            stats_reply = client.rpc({"op": "stats", "id": 3})
            stats = ServiceStats.from_payload(stats_reply["stats"])
            assert sum(s.instances for s in stats.shards) == 1
        finally:
            client.close()

    def test_replicas_raise_on_reregister_widens_the_ring(
        self, gateway_backend
    ):
        client = Client(gateway_backend.port)
        try:
            first = register(client, "orders", REGISTER_FACTS)
            assert len(first["placement"]) == 1
            raised = register(
                client, "orders", REGISTER_FACTS, 2, replicas=2
            )
            assert raised["replaced"] is False
            # Prefix-stable ring: the original placement is the prefix.
            assert raised["placement"][0] == first["placement"][0]
            assert len(raised["placement"]) == 2
        finally:
            client.close()

    def test_different_content_replaces_atomically(self, gateway_backend):
        reference = evaluate_batch(CONJ_QUERY, [replaced_tid()])
        client = Client(gateway_backend.port)
        try:
            register(client, "orders", REGISTER_FACTS)
            replaced = register(client, "orders", REPLACED_FACTS, 2)
            assert replaced["replaced"] is True
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 3,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"]
            assert (
                reply["response"]["probability"]
                == reference.probabilities[0]
            )
            # The superseded registration was released, not leaked.
            stats_reply = client.rpc({"op": "stats", "id": 4})
            stats = ServiceStats.from_payload(stats_reply["stats"])
            assert sum(s.instances for s in stats.shards) == 1
        finally:
            client.close()

    def test_shared_content_survives_one_name_replacing(
        self, gateway_backend
    ):
        # Two names serving the same content share one registration;
        # replacing one name must not pull it out from under the other.
        client = Client(gateway_backend.port)
        try:
            register(client, "orders", REGISTER_FACTS)
            register(client, "mirror", REGISTER_FACTS, 2)
            register(client, "orders", REPLACED_FACTS, 3)
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 4,
                    "instance": "mirror",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"], reply
        finally:
            client.close()

    def test_replacement_survives_crash_restart_via_journal(
        self, tmp_path
    ):
        # Register, replace, crash: replay applies both records in
        # order and recovers the *replaced* catalog.
        reference = evaluate_batch(CONJ_QUERY, [replaced_tid()])
        service = ShardedService(shards=2)
        server = GatewayServer(
            service, journal_path=tmp_path / "edge.journal"
        )
        server.start()
        try:
            client = Client(server.port)
            register(client, "orders", REGISTER_FACTS)
            register(client, "orders", REPLACED_FACTS, 2)
            assert gateway_payload(client)["journal"]["dead"] == 1
            client.close()

            server.restart(graceful=False)

            client = Client(server.port)
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 3,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"]
            assert (
                reply["response"]["probability"]
                == reference.probabilities[0]
            )
            client.close()
        finally:
            server.stop()
            service.stop(wait=True)


class TestJournalCompaction:
    def test_reregisters_compact_the_journal(self, tmp_path):
        # Re-register one name past the compaction threshold, alternating
        # two probability maps over the wire: the journal compacts
        # itself, so a restart replays a bounded file, and the recovered
        # gateway answers bit-identically.
        from repro.serving.gateway import JOURNAL_COMPACT_DEAD

        maps = [REGISTER_FACTS, REPLACED_FACTS]
        count = JOURNAL_COMPACT_DEAD + 2
        service = ShardedService(shards=2)
        server = GatewayServer(
            service, journal_path=tmp_path / "edge.journal"
        )
        server.start()
        query = {
            "op": "query",
            "id": 0,
            "instance": "orders",
            "query": CONJUNCTION,
        }
        try:
            client = Client(server.port)
            for i in range(count):
                register(client, "orders", maps[i % 2], message_id=i)
            journal = gateway_payload(client)["journal"]
            assert journal["compactions"] >= 1
            assert journal["dead"] < JOURNAL_COMPACT_DEAD
            before = client.rpc(query)
            assert before["ok"], before
            client.close()

            server.restart(graceful=False)

            client = Client(server.port)
            after = client.rpc(query)
            assert after["ok"], after
            assert sans_latency(after["response"]) == sans_latency(
                before["response"]
            )
            last = replaced_tid() if (count - 1) % 2 else reference_tid()
            reference = evaluate_batch(CONJ_QUERY, [last])
            assert (
                after["response"]["probability"]
                == reference.probabilities[0]
            )
            payload = gateway_payload(client)
            assert payload["journal"]["replayed"] <= JOURNAL_COMPACT_DEAD
            client.close()
        finally:
            server.stop()
            service.stop(wait=True)


class TestConnectionEdges:
    def test_oversized_line_gets_typed_reply_then_close(
        self, gateway_backend
    ):
        from repro.serving.gateway import _LINE_LIMIT

        client = Client(gateway_backend.port)
        try:
            padding = "a" * _LINE_LIMIT
            client.send_raw(
                '{"op": "ping", "id": 1, "pad": "' + padding + '"}'
            )
            reply = client.recv()
            assert reply["ok"] is False
            assert reply["error"] == "LineTooLong"
            # Framing is unrecoverable: the gateway closes after the
            # typed reply.
            assert client._file.readline() == ""
        finally:
            client.close()

    def test_idle_connection_times_out_typed(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service, idle_timeout_s=0.2)
        server.start()
        client = Client(server.port)
        try:
            assert client.rpc({"op": "ping", "id": 1})["pong"]
            reply = client.recv()  # no request sent: wait for the axe
            assert reply["ok"] is False
            assert reply["error"] == "IdleTimeout"
            assert client._file.readline() == ""
            observer = Client(server.port)
            assert gateway_payload(observer)["idle_timeouts"] == 1
            observer.close()
        finally:
            client.close()
            server.stop()
            service.stop(wait=True)

    def test_connection_cap_rejects_typed_then_recovers(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service, max_connections=1)
        server.start()
        first = Client(server.port)
        try:
            assert first.rpc({"op": "ping", "id": 1})["pong"]
            second = Client(server.port)
            reply = second.recv()
            assert reply["ok"] is False
            assert reply["error"] == "TooManyConnections"
            assert second._file.readline() == ""
            second.close()
            first.close()
            # The slot frees once the first connection is gone.
            deadline = time.monotonic() + 10
            while True:
                third = Client(server.port)
                try:
                    third.send({"op": "ping", "id": 2})
                except (BrokenPipeError, ConnectionResetError):
                    pass  # rejection raced the ping; retry below
                line = third._file.readline()
                reply = json.loads(line) if line else {}
                third.close()
                if reply.get("pong"):
                    break
                assert time.monotonic() < deadline, "cap never freed"
                time.sleep(0.02)
        finally:
            server.stop()
            service.stop(wait=True)


class TestCancellation:
    def test_stop_with_parked_inflight_query_terminates(self):
        # Regression: _serve_line used to catch BaseException including
        # CancelledError, turning gateway shutdown into an error reply
        # and leaving the handler task uncancellable — stop() would
        # hang on the gather forever.  The parked query keeps a handler
        # pinned mid-await while we pull the plug.
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        client = Client(server.port)
        thread = server._thread
        try:
            large_hard = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            register(client, "big", facts_of(large_hard))
            client.send(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "big",
                    "query": query_payload(hard_full_disjunction(3)),
                    "budget": BIG_BUDGET,
                }
            )
            time.sleep(0.2)  # parked: admitted and awaiting its future
            server.stop()
            assert thread is not None and not thread.is_alive(), (
                "gateway loop never terminated — cancellation was "
                "swallowed"
            )
        finally:
            client.close()
            service.stop(wait=True)


class TestLifecycleEdges:
    def test_stop_before_start_is_a_noop(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.stop()  # never started: nothing to do, no error
        assert server.drain() is True
        service.stop(wait=True)

    def test_double_start_raises(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()
            service.stop(wait=True)

    def test_context_manager_graceful_restart_keeps_port_and_catalog(
        self, tmp_path
    ):
        service = ShardedService(shards=1)
        with GatewayServer(
            service, journal_path=tmp_path / "edge.journal"
        ) as server:
            client = Client(server.port)
            register(client, "orders", REGISTER_FACTS)
            client.close()
            port = server.port

            server.restart(graceful=True)

            assert server.port == port
            client = Client(server.port)
            reply = client.rpc(
                {
                    "op": "query",
                    "id": 2,
                    "instance": "orders",
                    "query": CONJUNCTION,
                }
            )
            assert reply["ok"], reply
            client.close()
        service.stop(wait=True)

    def test_negative_grace_raises(self):
        service = ShardedService(shards=1)
        server = GatewayServer(service)
        server.start()
        try:
            import concurrent.futures

            loop = server._loop
            future = None
            if loop is not None:
                future = __import__("asyncio").run_coroutine_threadsafe(
                    server.gateway.drain(-1.0), loop
                )
            with pytest.raises(
                (ValueError, concurrent.futures.CancelledError)
            ):
                assert future is not None
                future.result(timeout=10)
        finally:
            server.stop()
            service.stop(wait=True)
