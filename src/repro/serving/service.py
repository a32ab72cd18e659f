"""The front end of the sharded PQE service.

:class:`ShardedService` turns :mod:`repro.pqe.engine` into a concurrent,
multi-tenant query service: registered instances are partitioned across
``N`` shards by a process-stable digest of their
:meth:`~repro.db.relation.Instance.content_fingerprint`, each shard owns
its compilation cache / workers / stats, and the ``submit`` /
``submit_batch`` API microbatches same-work requests into single
vectorized sweeps.  Routing follows the Figure-1 dichotomy per request:
safe monotone (H+) queries run *extensionally* — lifted plans over
columnar probability views, no lineage or circuit at all; the remaining
d-D(PTIME) queries compile through the shard cache and run batched tape
sweeps; hard queries fall back to exact enumeration when the instance
is small, and to the vectorized budget-adaptive Karp–Luby (UCQ) or
Monte-Carlo (non-monotone) sampling sweeps of
:mod:`repro.pqe.approximate` under a per-request
:class:`~repro.pqe.approximate.AccuracyBudget` otherwise — with
same-budget same-probability requests in a microbatch sharing one
sweep.  The routing decision table lives in ``docs/serving.md``.

Replication: ``register(..., replicas=n)`` places read-only copies of
an instance on ``n`` distinct shards along a deterministic rendezvous
ring (:func:`placement_ring`); each request for a replicated instance
is one submission to a healthy ring member chosen by the spread, and
fails over to a replica while the primary's breaker is open or its
worker is dark.  Because every replica computes the same
content-determined floats, spread and failover are bit-invisible in
the responses.  There is no request hedging: a backup attempt could
only repeat the same CPU-bound computation.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import Future

from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.queries.hqueries import HQuery
from repro.serving.api import AccuracyBudget, QueryRequest, QueryResponse
from repro.serving.faults import FaultInjector
from repro.serving.resilience import (
    CircuitBreaker,
    RetryPolicy,
    ServiceStopped,
    SupervisorPolicy,
)
from repro.serving.shard import Shard
from repro.serving.stats import (
    Counters,
    ReplicationStats,
    ServiceStats,
    percentile,
)


def placement_ring(
    shard_key: int, num_shards: int, replicas: int
) -> tuple[int, ...]:
    """The deterministic replica placement for an instance: its primary
    shard (``shard_key % num_shards`` — unchanged from unreplicated
    routing) followed by the remaining shards in rendezvous order, the
    first ``replicas - 1`` of which hold the copies.

    Rendezvous (highest-random-weight) ordering — rank every non-primary
    shard by ``blake2b(shard_key : shard_index)`` — gives two properties
    worth having: distinct instances spread their replicas across
    *different* shard subsets (no shard pair becomes the designated
    replica home), and the ring for ``replicas = k`` is a prefix of the
    ring for ``k + 1``, so raising an instance's replication never moves
    its existing copies.  Pure function of its arguments; both routing
    processes and restarted services agree on it.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    primary = shard_key % num_shards
    count = min(replicas, num_shards)
    if count == 1:
        return (primary,)

    def weight(index: int) -> bytes:
        payload = f"{shard_key:x}:{index:x}".encode("ascii")
        return hashlib.blake2b(payload, digest_size=8).digest()

    others = sorted(
        (index for index in range(num_shards) if index != primary),
        key=weight,
    )
    return (primary, *others[: count - 1])


class ShardedService:
    """A sharded, concurrent PQE query service.

    >>> from fractions import Fraction
    >>> from repro.db.generator import complete_tid
    >>> from repro.queries.hqueries import q9
    >>> with ShardedService(shards=2) as service:
    ...     tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
    ...     response = service.submit(q9(), tid).result()
    >>> response.engine
    'extensional'

    The service is a context manager; :meth:`close` drains the worker
    pools.

    ``backend`` selects the process model: ``"threads"`` (the default)
    keeps every shard in-process on a thread pool; ``"processes"`` gives
    every shard a dedicated worker process
    (:class:`~repro.serving.worker.ProcessShard`) fed through
    shared-memory probability columns — same interface, same floats, one
    core per shard instead of one GIL for all.  Leaving ``backend=None``
    reads the ``REPRO_SERVING_BACKEND`` environment variable (used by CI
    to run the whole serving suite against both backends), falling back
    to ``"threads"``.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        workers_per_shard: int = 2,
        default_budget: AccuracyBudget | None = None,
        max_queue_depth: int = 4096,
        retry: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        degrade_to_sampling: bool = True,
        breaker_failure_threshold: int = 5,
        breaker_reset_after_ms: float = 1000.0,
        backend: str | None = None,
        supervisor: SupervisorPolicy | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if backend is None:
            backend = os.environ.get("REPRO_SERVING_BACKEND") or "threads"
        if backend not in ("threads", "processes"):
            raise ValueError(
                f"backend must be 'threads' or 'processes', got {backend!r}"
            )
        self.backend = backend
        self._registry = None
        extra_kwargs: dict = {}
        if backend == "processes":
            from repro.serving.shm import SegmentRegistry
            from repro.serving.worker import ProcessShard

            shard_type = ProcessShard
            # One content-addressed registry for the whole service:
            # replicas of an instance share probability segments instead
            # of republishing per shard.  The service owns its lifecycle
            # (unlinked in stop()/close() after every shard is down).
            self._registry = SegmentRegistry()
            extra_kwargs = {
                "registry": self._registry,
                "supervisor": supervisor,
            }
        else:
            shard_type = Shard
        budget = (
            default_budget if default_budget is not None else AccuracyBudget()
        )
        self._state_lock = threading.Lock()
        self._placements: dict[int, tuple[int, ...]] = {}
        self._route_token = 0
        self._routing = Counters()  #: ReplicationStats spread/failovers
        self._shards = [
            shard_type(
                index,
                workers=workers_per_shard,
                default_budget=budget,
                max_queue_depth=max_queue_depth,
                breaker=CircuitBreaker(
                    failure_threshold=breaker_failure_threshold,
                    reset_after_ms=breaker_reset_after_ms,
                ),
                retry=retry,
                fault_injector=fault_injector,
                degrade_to_sampling=degrade_to_sampling,
                **extra_kwargs,
            )
            for index in range(shards)
        ]

    # ------------------------------------------------------------------
    # Routing and registration
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_of(
        self, instance: Instance | TupleIndependentDatabase
    ) -> int:
        """The shard index owning the given instance — stable across
        processes (:meth:`~repro.db.relation.Instance.shard_key`), so a
        restarted service re-routes every instance to the same shard and
        its warmed caches stay meaningful."""
        if isinstance(instance, TupleIndependentDatabase):
            instance = instance.instance
        return instance.shard_key() % len(self._shards)

    def register(
        self,
        instance: Instance | TupleIndependentDatabase,
        replicas: int = 1,
    ) -> int:
        """Pin an instance to its shard ahead of traffic; returns the
        primary shard index.  ``submit`` registers implicitly — this is
        for warm-up and for observability (``ShardStats.instances``).

        ``replicas >= 2`` additionally places read-only copies on the
        next ``replicas - 1`` shards of the instance's
        :func:`placement_ring` (capped at the shard count).  Replicated
        instances get spread routing and failover; an
        instance registered again with more replicas keeps its existing
        placements (the ring is prefix-stable) and gains the new ones.
        """
        if isinstance(instance, TupleIndependentDatabase):
            instance = instance.instance
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        key = instance.shard_key()
        ring = placement_ring(key, len(self._shards), replicas)
        fingerprint = instance.content_fingerprint()
        for index in ring:
            self._shards[index].register(fingerprint)
        with self._state_lock:
            existing = self._placements.get(key)
            if existing is None or len(ring) > len(existing):
                self._placements[key] = ring
        return ring[0]

    def unregister(
        self, instance: Instance | TupleIndependentDatabase
    ) -> None:
        """Drop an instance from the catalog: its placement entry and
        its fingerprint on every ring shard (idempotent).  In-flight
        requests for it complete normally — unregistration only stops
        the catalog from carrying the instance forward (the gateway's
        replace-on-re-register path, where leaving the old registration
        behind would leak a phantom ``ShardStats.instances`` entry per
        replacement, forever)."""
        if isinstance(instance, TupleIndependentDatabase):
            instance = instance.instance
        key = instance.shard_key()
        fingerprint = instance.content_fingerprint()
        with self._state_lock:
            ring = self._placements.pop(key, (key % len(self._shards),))
        for index in ring:
            self._shards[index].unregister(fingerprint)

    def placement_of(
        self, instance: Instance | TupleIndependentDatabase
    ) -> tuple[int, ...]:
        """The shard indexes holding this instance, primary first (a
        one-element tuple for unreplicated instances)."""
        if isinstance(instance, TupleIndependentDatabase):
            instance = instance.instance
        key = instance.shard_key()
        with self._state_lock:
            return self._placements.get(key, (key % len(self._shards),))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: HQuery,
        tid: TupleIndependentDatabase,
        budget: AccuracyBudget | None = None,
        *,
        deadline_ms: float | None = None,
        priority: int = 0,
    ) -> Future:
        """Enqueue one evaluation; returns a future resolving to a
        :class:`~repro.serving.api.QueryResponse` or raising a typed
        resilience error (see :meth:`Shard.submit
        <repro.serving.shard.Shard.submit>`).  Same-``(query,
        instance)`` requests in flight are microbatched into one
        compiled-tape sweep on the owning shard.  ``deadline_ms`` and
        ``priority`` opt the request into the resilience layer's
        deadline enforcement and shed ordering (see
        :class:`~repro.serving.api.QueryRequest`).

        Replicated instances (``register(..., replicas=n)``) route
        across their healthy ring members: load spreads
        deterministically, and an unhealthy primary (breaker open,
        worker dark, stopped) fails over to a replica instead of
        rejecting."""
        request = QueryRequest(
            query, tid, budget, deadline_ms=deadline_ms, priority=priority
        )
        return self._route(request)

    def _route(self, request: QueryRequest) -> Future:
        key = request.tid.instance.shard_key()
        primary = key % len(self._shards)
        with self._state_lock:
            ring = self._placements.get(key, (primary,))
            token = self._route_token
            self._route_token += 1
        if len(ring) == 1:
            return self._shards[primary].submit(request)
        healthy = [
            index for index in ring if self._shards[index].healthy()
        ]
        if not healthy:
            # Nobody left to fail over to: the primary's typed
            # rejection (breaker open / stopped) is the honest answer.
            return self._shards[primary].submit(request)
        chosen = healthy[token % len(healthy)]
        if chosen != primary:
            self._routing.add("spread" if primary in healthy else "failovers")
        return self._submit_direct(
            [chosen, *[i for i in healthy if i != chosen]], request
        )

    def _submit_direct(
        self, candidates: list[int], request: QueryRequest
    ) -> Future:
        """Submit to the first candidate shard that accepts (a shard may
        stop between the health check and the submit)."""
        last_error: BaseException | None = None
        for index in candidates:
            try:
                return self._shards[index].submit(request)
            except ServiceStopped as error:
                last_error = error
        assert last_error is not None
        raise last_error

    def submit_batch(
        self,
        query: HQuery,
        tids: list[TupleIndependentDatabase],
        budget: AccuracyBudget | None = None,
    ) -> list[QueryResponse]:
        """Evaluate one query over many TIDs, in input order.

        Requests fan out to their owning shards, group into microbatches
        per ``(query, instance fingerprint)``, and the call blocks until
        every response is in — the synchronous convenience over
        :meth:`submit` for sweep/update workloads.  Probabilities are
        bit-for-float identical to a single-threaded
        :func:`repro.pqe.engine.evaluate_batch` over the same TIDs.
        """
        futures = [self.submit(query, tid, budget) for tid in tids]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A service-wide snapshot; latency percentiles are computed over
        the union of the shards' windows."""
        shard_stats = tuple(shard.stats() for shard in self._shards)
        latencies: list[float] = []
        for shard in self._shards:
            latencies.extend(shard.latency_snapshot())
        with self._state_lock:
            rings = list(self._placements.values())
        return ServiceStats(
            shards=shard_stats,
            requests=sum(s.requests for s in shard_stats),
            batches=sum(s.batches for s in shard_stats),
            microbatched_requests=sum(
                s.microbatched_requests for s in shard_stats
            ),
            queue_depth=sum(s.queue_depth for s in shard_stats),
            compile_ms=sum(s.compile_ms for s in shard_stats),
            p50_ms=percentile(latencies, 0.50),
            p95_ms=percentile(latencies, 0.95),
            replication=ReplicationStats(
                replicated_instances=sum(1 for ring in rings if len(ring) > 1),
                replicas_placed=sum(len(ring) - 1 for ring in rings),
                **self._routing.snapshot(),
            ),
        )

    def close(self, wait: bool = True) -> None:
        """Shut every shard's worker pool down gracefully (idempotent);
        queued work drains first.  Later submits raise
        :class:`~repro.serving.resilience.ServiceStopped`."""
        for shard in self._shards:
            shard.close(wait=wait)
        if self._registry is not None:
            self._registry.unlink_all()

    def stop(self, wait: bool = True) -> None:
        """Stop serving now (idempotent): every still-queued request on
        every shard is resolved with a typed
        :class:`~repro.serving.resilience.ServiceStopped` — no caller
        blocks forever on a stopped service — and later submits raise
        it."""
        for shard in self._shards:
            shard.stop(wait=wait)
        if self._registry is not None:
            self._registry.unlink_all()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

