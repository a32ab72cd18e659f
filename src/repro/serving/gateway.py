"""The asyncio gateway: a durable, drainable JSON-lines edge over a
ShardedService.

Pure stdlib (``asyncio.start_server``): clients speak newline-delimited
JSON objects and get one JSON object back per request, correlated by the
caller-chosen ``id``.  The gateway is a thin *policy* front — it parses,
enforces a per-tenant in-flight quota, connection caps and the
gateway-wide in-flight bound :data:`MAX_INFLIGHT`, and routes into the
:class:`~repro.serving.service.ShardedService` behind it (either
backend); every deeper policy — deadlines, priorities, shedding,
breakers, retries, degradation — is PR 6's resilience layer inside the
shards, reused rather than reinvented here.  A rejected or failed
request is answered with the *typed* error name on the wire
(``DeadlineExceeded``, ``ShardOverloaded``, ``CircuitBreakerOpen``,
``TenantQuotaExceeded``, ``GatewayDraining``, ``LineTooLong``, ...),
mirroring the future-based API.

Protocol (one JSON object per line; ``id`` is echoed back)::

    {"op": "ping", "id": 0}
    {"op": "register", "id": 1, "instance": "orders",
     "facts": [["R", [1], [1, 2]], ["S1", [1, 2]], ["T", [2], [2, 3]]],
     "replicas": 2}                               # optional
    {"op": "query", "id": 2, "instance": "orders",
     "query": {"k": 1, "nvars": 2, "table": 8},
     "budget": {"epsilon": 0.05, "seed": 7},     # optional
     "deadline_ms": 50.0, "priority": 1,          # optional
     "tenant": "acme",                            # optional
     "idempotency_key": "req-7f3a"}               # optional
    {"op": "stats", "id": 3}

Replies are ``{"id": ..., "ok": true, ...}`` or ``{"id": ..., "ok":
false, "error": "<TypeName>", "message": "..."}``.  A ``register`` fact
is ``[relation, values]`` or ``[relation, values, [numerator,
denominator]]`` — probabilities are exact rationals on the wire (never
floats), defaulting to 1.  Queries travel as their complete content,
in the one wire form the process backend also sends down its pipe
(:func:`repro.serving.api.decode_query`): an h-query as ``{"k": ...,
"nvars": ..., "table": ...}``, a UCQ as ``{"ucq": [[[rel, [term,
...]], ...], ...]}`` — a list of disjuncts, each a list of
``[relation, terms]`` atoms, where a term is a variable name string or
``{"const": value}`` for a constant — and a bare CQ as ``{"cq":
[[rel, [term, ...]], ...]}``.

**Durability** (``journal_path=``): every effective ``register`` is
appended to a checksummed
:class:`~repro.serving.journal.RegistrationJournal` *before* it is
acknowledged, and :meth:`Gateway.start` replays the journal into the
catalog — a crashed-and-restarted gateway re-registers every instance
with the same facts and exact-rational probabilities, hence the same
``shard_key`` and the same prefix-stable ``placement_ring``: recovery
is bit-invisible in every answer.  Re-registering an existing name with
*identical* content is idempotent (the warm catalog entry is kept; only
a ``replicas`` raise is journaled); re-registering with *different*
content **replaces atomically** — the old TID's service registration is
released (unless another name still serves the same content) before the
new one lands, so replacement never leaks phantom catalog entries, and
journal compaction keeps only the latest record per name.  The journal
compacts itself once :data:`JOURNAL_COMPACT_DEAD` superseded records
accumulate, so a restart replays the live catalog plus fewer than that
many dead records, however often names were re-registered.

**Drain** (:meth:`Gateway.drain`): stop accepting connections, answer
new queries and registers with a typed ``GatewayDraining``, let
in-flight requests finish under their own deadlines for ``grace_ms``,
then close.  Returns ``True`` when the grace window emptied the gateway
— zero in-flight requests were cancelled.  Per-connection
``idle_timeout_s`` (slow-loris defense) and a ``max_connections`` cap
with a typed ``TooManyConnections`` rejection bound what drain ever has
to wait for.

**Idempotent retries**: a query carrying an ``idempotency_key`` is
remembered under ``(tenant, key)`` in a bounded LRU response journal.
A retry while the original is still in flight *joins* the same
execution (no duplicate submission — and for sampled routes, no second
draw-stream sweep, so the retried answer is the bit-identical float the
first attempt computed); a retry after completion replays the recorded
reply verbatim, answer or typed error.  Only *admitted* requests are
recorded: quota/overload/draining rejections are not, so a retry after
backpressure clears can succeed.

**Network chaos**: an optional
:class:`~repro.serving.faults.FaultInjector` drives the seeded
``conn_drop`` (abort mid-reply), ``partial_write`` (split frames) and
``slow_client`` (delayed replies) lanes, keyed per ``(connection,
reply index)`` — the gateway edge's analogue of the worker tier's
``worker_kill``/``straggler_latency`` lanes, replayable across runs
and backends.

``Gateway`` is the asyncio object (``await start()`` / ``await
stop()``); :class:`GatewayServer` wraps it in a background thread with
its own event loop for synchronous callers and tests, and adds
:meth:`GatewayServer.restart` — graceful (drain first; loses zero
accepted requests) or crash-equivalent (``graceful=False``; the journal
is the only survivor, which is the point).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future
from fractions import Fraction

from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.approximate import AccuracyBudget
from repro.serving.api import decode_query, decode_values
from repro.serving.faults import FaultInjector
from repro.serving.journal import JournalStats, RegistrationJournal
from repro.serving.service import ShardedService
from repro.serving.stats import Counters, GatewayStats, IdempotencyStats

#: register/query lines may carry whole instances; the default 64 KiB
#: readline limit is too small for that.
_LINE_LIMIT = 1 << 22

#: The gateway-wide bound on admitted, unanswered queries: past it a
#: query is rejected with ``GatewayOverloaded``.
MAX_INFLIGHT = 1024

#: Superseded journal records that trigger a compaction: a gateway that
#: re-registers a name keeps its journal, and its restart replay, to
#: the live records plus fewer than this many dead ones.
JOURNAL_COMPACT_DEAD = 64


class GatewayOverloaded(RuntimeError):
    """The gateway-wide in-flight bound is exhausted."""


class TenantQuotaExceeded(RuntimeError):
    """The requesting tenant's in-flight quota is exhausted."""


class GatewayDraining(RuntimeError):
    """The gateway is draining for shutdown/restart: it finishes what
    it already accepted but takes nothing new.  Retry against the
    restarted gateway (idempotency keys make that safe)."""


class LineTooLong(RuntimeError):
    """A request line exceeded the gateway's line limit.  The reply is
    the last one on this connection — framing is unrecoverable past an
    oversized line, so the gateway closes after answering."""


class TooManyConnections(RuntimeError):
    """The gateway is at its ``max_connections`` cap."""


class IdleTimeout(RuntimeError):
    """The connection sat idle past ``idle_timeout_s`` and was closed
    (slow-loris defense)."""


def _same_content(a, b) -> bool:
    """Whether two TIDs are the same *probabilistic* content: same
    facts (instance fingerprint) and the same exact-rational
    probability on every fact.  The service's placement identity is
    facts-only (probabilities never move a shard), but the gateway's
    replace-vs-idempotent decision must see probability changes — they
    change every answer."""
    fingerprint = a.instance.content_fingerprint()
    if fingerprint != b.instance.content_fingerprint():
        return False
    return all(
        a.probability_of(t) == b.probability_of(t) for t in fingerprint
    )


def _decode_budget(payload: dict) -> AccuracyBudget:
    allowed = {
        "epsilon",
        "min_samples",
        "max_samples",
        "seed",
        "adaptive",
        "interval",
        "delta",
    }
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown budget fields: {sorted(unknown)}")
    return AccuracyBudget(**payload)


class Gateway:
    """One asyncio JSON-lines gateway over a :class:`ShardedService`."""

    def __init__(
        self,
        service: ShardedService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_tenant_quota: int = 64,
        journal_path=None,
        journal_fsync: str = "always",
        max_connections: int | None = None,
        idle_timeout_s: float | None = None,
        idempotency_capacity: int = 1024,
        fault_injector: FaultInjector | None = None,
    ):
        if default_tenant_quota < 1:
            raise ValueError(
                f"default_tenant_quota must be positive, "
                f"got {default_tenant_quota}"
            )
        if max_connections is not None and max_connections < 1:
            raise ValueError(
                f"max_connections must be positive or None, "
                f"got {max_connections}"
            )
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be positive or None, "
                f"got {idle_timeout_s}"
            )
        if idempotency_capacity < 1:
            raise ValueError(
                f"idempotency_capacity must be positive, "
                f"got {idempotency_capacity}"
            )
        self.service = service
        self._host = host
        self._port = port
        self.default_tenant_quota = default_tenant_quota
        self.max_connections = max_connections
        self.idle_timeout_s = idle_timeout_s
        self.idempotency_capacity = idempotency_capacity
        self._fault_injector = fault_injector
        self._journal = (
            RegistrationJournal(
                journal_path,
                fsync=journal_fsync,
                auto_compact_dead=JOURNAL_COMPACT_DEAD,
            )
            if journal_path is not None
            else None
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._tids: dict[str, TupleIndependentDatabase] = {}
        self._replicas: dict[str, int] = {}
        self._inflight = 0
        self._tenant_inflight: dict[str, int] = {}
        self._busy = 0  #: handlers between reading a line and the reply
        self._idle: asyncio.Event | None = None
        self._draining = False
        self._replayed = False
        self._conn_counter = 0
        #: (tenant, key) -> completed reply body (dict) or the in-flight
        #: execution task (asyncio.Future); bounded LRU.
        self._idempotency: OrderedDict = OrderedDict()
        self._counts = Counters()  #: GatewayStats, keyed by field
        self._idem_counts = Counters()  #: IdempotencyStats

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; 0 requests an ephemeral
        one)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Replay the registration journal (first start only), then
        open the listener.  Replay happens *before* the first accept,
        so no client can observe a partially recovered catalog."""
        if self._journal is not None and not self._replayed:
            for record in self._journal.replay():
                self._apply_register(record)
                self._counts.add("replayed_instances")
            self._replayed = True
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=_LINE_LIMIT,
        )

    async def drain(self, grace_ms: float = 5000.0) -> bool:
        """Graceful shutdown ladder: close the listener, answer new
        queries/registers with typed ``GatewayDraining``, wait up to
        ``grace_ms`` for in-flight requests to finish under their own
        deadlines, then close every connection.  Returns ``True`` iff
        the gateway emptied within the grace window — i.e. zero
        in-flight requests were cancelled."""
        if grace_ms < 0:
            raise ValueError(f"grace_ms must be >= 0, got {grace_ms}")
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        clean = True
        if self._idle is not None:
            self._check_idle()
            # Short-circuit an already-idle gateway: ``wait_for(..., 0)``
            # times out even on a set event, and an expired grace budget
            # must not turn an empty drain into a dirty one.
            if not self._idle.is_set():
                try:
                    await asyncio.wait_for(
                        self._idle.wait(), grace_ms / 1e3
                    )
                except (TimeoutError, asyncio.TimeoutError):
                    clean = False
        await self.stop()
        return clean

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Open connections outlive the listener: cancel their handler
        # tasks so a stopped gateway leaves no task pending on the loop.
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        if self._journal is not None:
            self._journal.close()

    # -- bookkeeping ---------------------------------------------------

    def _check_idle(self) -> None:
        if self._idle is None:
            return
        if self._busy == 0 and self._inflight == 0:
            self._idle.set()
        else:
            self._idle.clear()

    def _idem_get(self, key: tuple):
        entry = self._idempotency.get(key)
        if entry is not None:
            self._idempotency.move_to_end(key)
        return entry

    def _idem_put(self, key: tuple, value) -> None:
        self._idempotency[key] = value
        self._idempotency.move_to_end(key)
        while len(self._idempotency) > self.idempotency_capacity:
            self._idempotency.popitem(last=False)
            self._idem_counts.add("evictions")

    def gateway_stats(self) -> GatewayStats:
        """This gateway's edge counters (see
        :class:`~repro.serving.stats.GatewayStats`)."""
        journal = (
            self._journal.stats()
            if self._journal is not None
            else JournalStats()
        )
        injected = (
            self._fault_injector.stats()
            if self._fault_injector is not None
            else {}
        )
        return GatewayStats(
            active_connections=len(self._connections),
            journal=journal,
            idempotency=IdempotencyStats(
                entries=len(self._idempotency),
                **self._idem_counts.snapshot(),
            ),
            injected_conn_drops=injected.get("conn_drops", 0),
            injected_partial_writes=injected.get("partial_writes", 0),
            injected_slow_client_events=injected.get(
                "slow_client_events", 0
            ),
            **self._counts.snapshot(),
        )

    # -- connection handling -------------------------------------------

    @staticmethod
    def _error_reply(error: BaseException, message_id=None) -> dict:
        return {
            "id": message_id,
            "ok": False,
            "error": type(error).__name__,
            "message": str(error),
        }

    async def _reject_connection(
        self, writer: asyncio.StreamWriter, error: BaseException
    ) -> None:
        """Best-effort typed rejection before closing a connection the
        gateway will not serve."""
        with contextlib.suppress(ConnectionError):
            writer.write(
                json.dumps(self._error_reply(error)).encode() + b"\n"
            )
            await writer.drain()
        writer.close()
        with contextlib.suppress(ConnectionError, asyncio.CancelledError):
            await writer.wait_closed()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            # Accepted in the window before the listener closed.
            self._counts.add("rejected_connections")
            await self._reject_connection(
                writer, GatewayDraining("gateway is draining")
            )
            return
        if (
            self.max_connections is not None
            and len(self._connections) >= self.max_connections
        ):
            self._counts.add("rejected_connections")
            await self._reject_connection(
                writer,
                TooManyConnections(
                    f"gateway at max_connections={self.max_connections}"
                ),
            )
            return
        conn_id = self._conn_counter
        self._conn_counter += 1
        self._counts.add("connections")
        reply_index = 0
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    if self.idle_timeout_s is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), self.idle_timeout_s
                        )
                    else:
                        line = await reader.readline()
                except (TimeoutError, asyncio.TimeoutError):
                    self._counts.add("idle_timeouts")
                    with contextlib.suppress(ConnectionError):
                        writer.write(
                            json.dumps(
                                self._error_reply(
                                    IdleTimeout(
                                        f"no request within "
                                        f"{self.idle_timeout_s}s"
                                    )
                                )
                            ).encode()
                            + b"\n"
                        )
                        await writer.drain()
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: answer typed, then close — framing
                    # cannot be trusted past an overrun.
                    self._counts.add("line_too_long")
                    with contextlib.suppress(ConnectionError):
                        writer.write(
                            json.dumps(
                                self._error_reply(
                                    LineTooLong(
                                        f"request line exceeded "
                                        f"{_LINE_LIMIT} bytes"
                                    )
                                )
                            ).encode()
                            + b"\n"
                        )
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._busy += 1
                self._check_idle()
                try:
                    reply = await self._serve_line(line)
                    delivered = await self._write_reply(
                        writer, reply, conn_id, reply_index
                    )
                finally:
                    self._busy -= 1
                    self._check_idle()
                reply_index += 1
                if not delivered:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-reply; nothing to clean up
        except asyncio.CancelledError:
            # Gateway stopping: end this handler *cleanly* rather than
            # propagating — 3.11's stream protocol calls
            # ``task.exception()`` on the done handler task, which would
            # re-raise the cancellation into the event loop's logger.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _write_reply(
        self,
        writer: asyncio.StreamWriter,
        reply: dict,
        conn_id: int,
        reply_index: int,
    ) -> bool:
        """Write one reply frame, applying the seeded network chaos
        lanes; returns ``False`` when the connection was (deliberately)
        destroyed mid-reply."""
        data = json.dumps(reply).encode() + b"\n"
        injector = self._fault_injector
        if injector is not None:
            delay_ms = injector.slow_client_ms_for(conn_id, reply_index)
            if delay_ms > 0:
                await asyncio.sleep(delay_ms / 1e3)
            if injector.should_drop_conn(conn_id, reply_index):
                # Half a frame, then a hard abort: the client sees a
                # torn reply and a dead connection — the retry path.
                writer.write(data[: max(1, len(data) // 2)])
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
                writer.transport.abort()
                return False
            if injector.should_split_write(conn_id, reply_index):
                half = max(1, len(data) // 2)
                writer.write(data[:half])
                await writer.drain()
                writer.write(data[half:])
                await writer.drain()
                return True
        writer.write(data)
        await writer.drain()
        return True

    async def _serve_line(self, line: bytes) -> dict:
        message_id = None
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("each line must be a JSON object")
            message_id = message.get("id")
            op = message.get("op")
            if op == "ping":
                return {"id": message_id, "ok": True, "pong": True}
            if op == "register":
                return await self._serve_register(message)
            if op == "query":
                return await self._serve_query(message)
            if op == "stats":
                return await self._serve_stats(message)
            raise ValueError(f"unknown op {op!r}")
        except asyncio.CancelledError:
            # The gateway is stopping and cancelled this handler: the
            # cancellation must terminate the handler, not become an
            # ``{"ok": false}`` reply that keeps the loop running.
            raise
        except BaseException as error:  # noqa: BLE001 - typed on the wire
            return self._error_reply(error, message_id)

    # -- register ------------------------------------------------------

    def _apply_register(self, record: dict) -> dict:
        """Apply one register record to the catalog — the single path
        shared by wire registers and journal replay, so recovery is the
        same code that served the original request.

        Returns the reply fields plus ``journal_record``: the canonical
        record to journal (``None`` when the register was an idempotent
        no-op — same name, same content, no new replicas)."""
        name = record.get("instance")
        if not isinstance(name, str) or not name:
            raise ValueError("instance must be a non-empty string name")
        replicas = record.get("replicas", 1)
        if not isinstance(replicas, int) or replicas < 1:
            raise ValueError(
                f"replicas must be a positive integer, got {replicas!r}"
            )
        instance = Instance()
        for relation_name, arity in record.get("relations", []):
            instance.declare(relation_name, arity)
        tid = TupleIndependentDatabase(instance)
        for fact in record["facts"]:
            if len(fact) == 2:
                (relation_name, values), probability = fact, None
            else:
                relation_name, values, probability = fact
            tuple_id = instance.add(relation_name, decode_values(values))
            if probability is not None:
                numerator, denominator = probability
                tid.set_probability(
                    tuple_id, Fraction(numerator, denominator)
                )
        old = self._tids.get(name)
        replaced = False
        changed = old is None
        if old is not None:
            if _same_content(old, tid):
                # Idempotent re-register: keep the warm catalog entry
                # (its cached derivations, segments and placements all
                # stay valid); only a replicas raise changes anything —
                # and the ring is prefix-stable, so existing copies
                # never move.
                tid = old
                changed = replicas > self._replicas.get(name, 1)
            else:
                # Atomic replacement: release the superseded service
                # registration first.  Placement identity is facts-only,
                # so skip the release when the facts are unchanged (a
                # probabilities-only replacement keeps the same
                # placement entry) or when another name still serves the
                # same facts — in both cases the registration is shared
                # and must survive.
                replaced = True
                changed = True
                old_fingerprint = old.instance.content_fingerprint()
                shared = (
                    old_fingerprint == instance.content_fingerprint()
                ) or any(
                    other_name != name
                    and other.instance.content_fingerprint()
                    == old_fingerprint
                    for other_name, other in self._tids.items()
                )
                if not shared:
                    self.service.unregister(old)
        effective_replicas = max(replicas, self._replicas.get(name, 1))
        if replaced:
            effective_replicas = replicas
        shard = self.service.register(tid, replicas=effective_replicas)
        self._tids[name] = tid
        self._replicas[name] = effective_replicas
        journal_record = None
        if changed:
            journal_record = {
                "instance": name,
                "relations": [
                    list(pair) for pair in record.get("relations", [])
                ],
                "facts": [list(fact) for fact in record["facts"]],
                "replicas": effective_replicas,
            }
        return {
            "instance": name,
            "shard": shard,
            "placement": list(self.service.placement_of(tid)),
            "tuples": len(tid),
            "replaced": replaced,
            "journal_record": journal_record,
        }

    async def _serve_register(self, message: dict) -> dict:
        if self._draining:
            self._counts.add("draining_rejections")
            raise GatewayDraining(
                "gateway is draining; register against the restarted "
                "gateway"
            )
        info = self._apply_register(message)
        journal_record = info.pop("journal_record")
        if journal_record is not None and self._journal is not None:
            # Journal *before* acknowledging: an acked register is a
            # durable register.
            self._journal.append(journal_record)
        return {"id": message["id"], "ok": True, **info}

    # -- query ---------------------------------------------------------

    async def _serve_query(self, message: dict) -> dict:
        message_id = message.get("id")
        tenant = message.get("tenant", "")
        key = message.get("idempotency_key")
        idem_key = None
        if key is not None:
            if not isinstance(key, str) or not key:
                raise ValueError(
                    "idempotency_key must be a non-empty string"
                )
            idem_key = (tenant, key)
            entry = self._idem_get(idem_key)
            if isinstance(entry, dict):
                # Completed: replay the recorded reply verbatim.
                self._idem_counts.add("hits")
                return {"id": message_id, **entry}
            if entry is not None:
                # In flight: join the same execution — no duplicate
                # submission, no duplicate sampling sweep.  Shielded so
                # one joiner's connection dying cannot cancel the
                # shared work.
                self._idem_counts.add("joins")
                body = await asyncio.shield(entry)
                return {"id": message_id, **body}
        if self._draining:
            self._counts.add("draining_rejections")
            raise GatewayDraining(
                "gateway is draining; retry against the restarted gateway"
            )
        name = message["instance"]
        tid = self._tids.get(name)
        if tid is None:
            raise KeyError(f"unknown instance {name!r} (register it first)")
        query = decode_query(message["query"])
        budget = (
            _decode_budget(message["budget"])
            if message.get("budget") is not None
            else None
        )
        if self._inflight >= MAX_INFLIGHT:
            self._counts.add("overloaded_rejections")
            raise GatewayOverloaded(
                f"gateway at its in-flight bound of {MAX_INFLIGHT}"
            )
        if self._tenant_inflight.get(tenant, 0) >= self.default_tenant_quota:
            self._counts.add("quota_rejections")
            raise TenantQuotaExceeded(
                f"tenant {tenant!r} at quota {self.default_tenant_quota}"
            )
        self._inflight += 1
        self._tenant_inflight[tenant] = (
            self._tenant_inflight.get(tenant, 0) + 1
        )
        self._check_idle()
        # Submit in this loop step, with the catalog read: a keyed
        # request's task starts later, when a replacing register may
        # have released this instance, and a submit from there would
        # re-add it to its shard.
        try:
            future = self.service.submit(
                query,
                tid,
                budget,
                deadline_ms=message.get("deadline_ms"),
                priority=message.get("priority", 0),
            )
        except Exception as error:  # noqa: BLE001 - typed on the wire
            future = Future()
            future.set_exception(error)
        execution = self._execute(future, message, idem_key)
        if idem_key is not None:
            task = asyncio.ensure_future(execution)
            self._idem_put(idem_key, task)
            body = await asyncio.shield(task)
        else:
            body = await execution
        return {"id": message_id, **body}

    async def _execute(
        self, future: Future, message: dict, idem_key: tuple | None
    ) -> dict:
        """Await one submitted request to its recorded outcome — a reply
        body (sans ``id``) for an answer *or* a typed error.  Runs as
        its own task for keyed requests so the outcome lands in the
        response journal even if the submitting connection dies."""
        try:
            try:
                response = await asyncio.wrap_future(future)
                body = {"ok": True, "response": response.to_payload()}
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 - typed wire
                body = {
                    "ok": False,
                    "error": type(error).__name__,
                    "message": str(error),
                }
        finally:
            self._inflight -= 1
            tenant = message.get("tenant", "")
            remaining = self._tenant_inflight.get(tenant, 1) - 1
            if remaining:
                self._tenant_inflight[tenant] = remaining
            else:
                self._tenant_inflight.pop(tenant, None)
            self._check_idle()
        self._counts.add("requests")
        if idem_key is not None:
            self._idem_put(idem_key, body)
        return body

    async def _serve_stats(self, message: dict) -> dict:
        # Off the loop: on the process backend each shard's stats are a
        # worker RPC, which waits behind the computations already queued
        # on that worker's pipe.  The gateway's own counters are
        # loop-owned state, so they are read back on the loop.
        stats = await asyncio.to_thread(self.service.stats)
        return {
            "id": message["id"],
            "ok": True,
            "stats": stats.to_payload(),
            "gateway": self.gateway_stats().to_payload(),
        }


class GatewayServer:
    """A :class:`Gateway` on a background thread with its own event loop
    — the synchronous wrapper for tests, benches and scripts.

    >>> from repro.serving import ShardedService
    >>> service = ShardedService(shards=1)
    >>> server = GatewayServer(service)
    >>> server.start()           # doctest: +SKIP
    >>> server.port              # doctest: +SKIP
    54321
    >>> server.restart()         # doctest: +SKIP
    >>> server.stop()            # doctest: +SKIP
    """

    def __init__(self, service: ShardedService, **gateway_kwargs):
        self._service = service
        self._gateway_kwargs = dict(gateway_kwargs)
        self.gateway = Gateway(service, **gateway_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._bound_port: int | None = None

    @property
    def port(self) -> int:
        if self._bound_port is not None:
            return self._bound_port
        return self.gateway.port

    def start(self, timeout: float = 10.0) -> "GatewayServer":
        if self._thread is not None:
            raise RuntimeError("gateway server already started")
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="pqe-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):  # pragma: no cover - startup
            raise RuntimeError("gateway server failed to start in time")
        self._bound_port = self.gateway.port
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.gateway.start())
            self._started.set()
            loop.run_forever()
            loop.run_until_complete(self.gateway.stop())
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    def drain(self, grace_ms: float = 5000.0) -> bool:
        """Drain the gateway from any thread (see
        :meth:`Gateway.drain`); returns the clean flag.  A never-started
        or already-stopped server is trivially drained."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.gateway.drain(grace_ms), loop
        )
        return future.result(timeout=grace_ms / 1e3 + 30.0)

    def stop(self) -> None:
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def restart(
        self, *, graceful: bool = True, grace_ms: float = 5000.0
    ) -> "GatewayServer":
        """Replace the running gateway with a fresh one on the same
        port, its catalog rebuilt from the registration journal.

        ``graceful=True`` drains first — the listener closes, in-flight
        requests finish under their deadlines, and *zero accepted
        requests are lost*.  ``graceful=False`` is the crash lane: the
        old gateway is torn down with its in-flight state abandoned,
        exactly as a SIGKILL would leave things, and the journal is the
        only thing recovery gets to read — which is the property the
        chaos suite exercises."""
        was_running = self._thread is not None
        if graceful and was_running:
            self.drain(grace_ms)
        self.stop()
        kwargs = dict(self._gateway_kwargs)
        if was_running and self._bound_port is not None:
            kwargs["port"] = self._bound_port
        self.gateway = Gateway(self._service, **kwargs)
        return self.start()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
