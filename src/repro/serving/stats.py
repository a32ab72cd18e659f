"""Observability for the sharded service: counters, latency windows and
snapshots.

The service answers "how is each shard doing" with one immutable
:class:`ServiceStats` — per-shard compilation-cache hit rates, compile
cost, queue depth, microbatch shape and p50/p95 latency — cheap enough to
poll from a monitoring loop without perturbing the workers.

**One way to count.**  Every count the shards, the service and the
gateway report lives in a :class:`Counters` store keyed by the snapshot
field it fills (or by a ``(field, label)`` pair for a labeled count),
and a snapshot section is built straight from that store's
:meth:`Counters.snapshot`.  A fault is counted once, where it fires: in
the :class:`~repro.serving.faults.FaultInjector`, keyed by shard.  The
journal, the worker supervisor and the circuit breaker keep their own
counts, which their own policies read.

**One snapshot protocol.**  Every ``*Stats`` type here inherits
:class:`Snapshot`: ``to_payload`` / ``from_payload`` (JSON-able dicts,
so the asyncio gateway can serve them over the wire, round-tripping
losslessly) and ``merged`` (field by field: sums by default, or the
rule a field declares — ``max``, the worst breaker state, ``all``,
``any``), so cross-shard aggregation keeps the in-process semantics no
matter which process a snapshot was taken in.
"""

from __future__ import annotations

import threading
import typing
from collections import Counter, deque
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import reduce

from repro.pqe.engine import CompilationCacheStats
from repro.pqe.extensional import ExtensionalPlanCacheStats


class Counters:
    """A thread-safe counter store: a :class:`collections.Counter` behind
    a lock.

    A key is the snapshot field a count fills, or a ``(field, label)``
    pair for a labeled count; values may be ints or floats.
    ``Counters(requests=0)`` seeds keys a snapshot must always carry.
    """

    def __init__(self, **initial):
        self._counts = Counter(initial)
        self._lock = threading.Lock()

    def add(self, key, amount=1) -> None:
        with self._lock:
            self._counts[key] += amount

    def update(self, **deltas) -> None:
        """Add several counts under one lock acquisition."""
        with self._lock:
            self._counts.update(deltas)

    def peak(self, key, value) -> None:
        """Raise ``key`` to ``value`` if that is higher (a high-water
        mark)."""
        with self._lock:
            if value > self._counts[key]:
                self._counts[key] = value

    def snapshot(self) -> dict:
        """A coherent copy of every count."""
        with self._lock:
            return dict(self._counts)


class LatencyWindow:
    """A bounded, thread-safe reservoir of recent latencies (ms).

    Percentiles are nearest-rank over the retained window — exact for
    the last ``size`` requests, which is what a p50/p95 dashboard wants;
    an unbounded record would grow forever under serving traffic.
    """

    def __init__(self, size: int = 4096):
        if size < 1:
            raise ValueError(f"window size must be positive, got {size}")
        self._window: deque[float] = deque(maxlen=size)
        self._lock = threading.Lock()

    def record(self, latency_ms: float) -> None:
        with self._lock:
            self._window.append(latency_ms)

    def snapshot(self) -> list[float]:
        with self._lock:
            return list(self._window)

    def percentile(self, q: float) -> float:
        """The nearest-rank ``q``-quantile (``0 < q <= 1``) of the window;
        0.0 when nothing has been recorded."""
        return percentile(self.snapshot(), q)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sample (0.0 for an empty one)."""
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, -(-len(ordered) * q // 1) - 1)  # ceil(n*q) - 1
    return ordered[int(rank)]


#: Breaker-state severity order for cross-shard aggregation: a service
#: snapshot reports the *worst* shard breaker.
_BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}

#: How :meth:`Snapshot.merged` combines one field, by the rule name its
#: ``field(metadata={"merge": ...})`` declares (``"sum"`` if none).
_MERGE_RULES = {
    "sum": lambda a, b: a + b,
    "max": max,
    "worst_breaker": lambda a, b: max(
        a, b, key=lambda state: _BREAKER_SEVERITY.get(state, 0)
    ),
    "all": lambda a, b: a and b,
    "any": lambda a, b: a or b,
}


def _merged_by(rule: str, default):
    """A snapshot field that :meth:`Snapshot.merged` combines by
    ``rule`` instead of summing."""
    return field(default=default, metadata={"merge": rule})


def _as_lists(value):
    """``value`` with every tuple turned into a list (as JSON has it)."""
    if isinstance(value, (tuple, list)):
        return [_as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value


def _rebuild(hint, value):
    """One payload field back as the type its annotation names."""
    if isinstance(hint, type) and issubclass(hint, Snapshot):
        return hint.from_payload(value)
    if is_dataclass(hint):
        return hint(**value)
    if typing.get_origin(hint) is tuple:
        item_hint = typing.get_args(hint)[0]
        return tuple(_rebuild(item_hint, item) for item in value)
    return value


class Snapshot:
    """The payload and merge protocol every serving ``*Stats`` dataclass
    inherits."""

    def to_payload(self) -> dict:
        """This snapshot as a JSON-able dict (nested snapshots as dicts,
        tuples as lists)."""
        return _as_lists(asdict(self))

    @classmethod
    def from_payload(cls, payload: dict):
        """Rebuild a snapshot serialized by :meth:`to_payload` —
        ``cls.from_payload(s.to_payload()) == s``.  Nested snapshot
        fields are rebuilt from the type annotations."""
        hints = typing.get_type_hints(cls)
        return cls(
            **{
                name: _rebuild(hints[name], value)
                for name, value in payload.items()
            }
        )

    def merged(self, other):
        """Aggregate two snapshots field by field: sums, unless a field
        declares another rule (``max``, ``worst_breaker``, ``all``,
        ``any``) in its metadata."""
        return type(self)(
            **{
                f.name: _MERGE_RULES[f.metadata.get("merge", "sum")](
                    getattr(self, f.name), getattr(other, f.name)
                )
                for f in fields(self)
            }
        )


def _merge_all(cls, snapshots):
    """``cls()`` merged with each of ``snapshots`` in turn."""
    return reduce(cls.merged, snapshots, cls())


@dataclass(frozen=True)
class SamplingStats(Snapshot):
    """The sampling route's counters: how the hard-query traffic of a
    shard (or the whole service) was served by the vectorized
    budget-adaptive sampler.

    ``requests`` counts sampled requests, ``sweeps`` the shared sampling
    sweeps that served them (requests in one microbatch with equal
    budgets and probability maps share a sweep, so ``sweeps <=
    requests``), ``waves``/``samples`` the adaptive waves run and worlds
    drawn across all sweeps, and ``max_half_width`` the worst achieved
    half-width any sweep reported — the service-level view of whether
    budgets are being met.
    """

    requests: int = 0
    sweeps: int = 0
    waves: int = 0
    samples: int = 0
    max_half_width: float = _merged_by("max", 0.0)


@dataclass(frozen=True)
class ResilienceStats(Snapshot):
    """The resilience layer's counters for one shard (or merged across
    the service): shed and deadline-failed requests, degraded answers,
    retries and terminal worker failures, circuit-breaker state and
    activity, and the faults the optional injector fired on this shard
    (one per affected request attempt).

    ``deadline_exceeded`` counts requests resolved late because the
    caller's own budget ran out."""

    shed: int = 0
    deadline_exceeded: int = 0
    degraded: int = 0
    retries: int = 0
    failures: int = 0
    breaker_state: str = _merged_by("worst_breaker", "closed")
    breaker_rejected: int = 0
    breaker_trips: int = 0
    injected_errors: int = 0
    injected_latency_events: int = 0
    injected_kills: int = 0
    injected_stragglers: int = 0


@dataclass(frozen=True)
class SupervisorStats(Snapshot):
    """The worker supervisor's counters for one shard (or merged across
    the service).  On the ``threads`` backend there is no process to
    supervise, so the defaults — alive, never restarted — hold.

    ``restarts`` counts respawns (injected crashes and unexpected
    deaths alike), ``replayed_instances`` the instance registrations
    replayed into fresh workers, ``respawn_ms`` total wall-clock spent
    respawning, ``worker_alive`` whether the (every) worker process is
    currently alive, and ``gave_up`` whether a supervisor exhausted
    ``max_restarts`` and left its shard dark.
    """

    restarts: int = 0
    replayed_instances: int = 0
    respawn_ms: float = 0.0
    worker_alive: bool = _merged_by("all", True)
    gave_up: bool = _merged_by("any", False)


@dataclass(frozen=True)
class ReplicationStats(Snapshot):
    """Placement and routing counters for replicated instances.

    ``replicated_instances`` / ``replicas_placed`` describe the current
    placement table (instances registered with ``replicas >= 2`` and the
    extra copies placed for them); ``spread`` counts requests served off
    the primary shard while the primary was healthy (load spreading),
    ``failovers`` requests routed to a replica *because* the primary was
    unhealthy (breaker open, worker dead, or stopped)."""

    replicated_instances: int = 0
    replicas_placed: int = 0
    spread: int = 0
    failovers: int = 0


@dataclass(frozen=True)
class HedgeStats(Snapshot):
    """Hedged-request counters, kept at zero.

    The service no longer hedges: a replicated request is one submission
    to one replica, so nothing launches a backup.  The section stays in
    the ``stats`` payload because readers of that payload still read it
    (the repo benchmark's ``service.hedges_per_request`` and
    ``service.backup_win_ratio`` read ``launched`` and
    ``backup_wins``, and its traced run fails on a missing key).  Every
    field reads 0."""

    launched: int = 0
    primary_wins: int = 0
    backup_wins: int = 0
    cancelled: int = 0
    failed_backups: int = 0


@dataclass(frozen=True)
class IdempotencyStats(Snapshot):
    """The gateway's idempotent-retry journal counters.

    ``hits`` are retries answered verbatim from a recorded response,
    ``joins`` retries that attached to a still-in-flight execution of
    the same ``(tenant, key)`` (no duplicate submission — for sampled
    routes, no second draw-stream sweep), ``entries`` the keys
    currently retained, ``evictions`` entries dropped by the LRU
    bound."""

    hits: int = 0
    joins: int = 0
    entries: int = 0
    evictions: int = 0


@dataclass(frozen=True)
class JournalStats(Snapshot):
    """Counters for one :class:`~repro.serving.journal.RegistrationJournal`
    lifetime, nested into :class:`GatewayStats`.

    ``appended``/``replayed`` count records written and records applied
    by the last :meth:`~repro.serving.journal.RegistrationJournal.replay`;
    ``live`` is the number of distinct instance names currently
    recorded, ``dead`` the superseded records compaction would drop;
    ``compactions`` the rewrites performed, ``torn_records`` /
    ``torn_bytes`` what tail truncation discarded across replays."""

    appended: int = 0
    replayed: int = 0
    live: int = 0
    dead: int = 0
    compactions: int = 0
    torn_records: int = 0
    torn_bytes: int = 0


@dataclass(frozen=True)
class GatewayStats(Snapshot):
    """One gateway's edge counters, payload-round-trippable like
    :class:`ServiceStats` and surfaced by the wire ``stats`` op.

    Connection counters track the listener (``connections`` accepted
    over the gateway's lifetime, ``active_connections`` now,
    ``rejected_connections`` turned away at the ``max_connections``
    cap, ``idle_timeouts`` closed by the per-connection read timeout,
    ``line_too_long`` closed after a typed oversized-line reply).
    Request counters split the typed admission rejections
    (``draining`` / ``overloaded`` / ``quota``) from ``requests``
    actually submitted.  ``replayed_instances`` is what journal replay
    re-registered at start; ``journal`` and ``idempotency`` nest the
    durability and retry-journal counters; the ``injected_*`` counters
    record the network chaos lanes the gateway's injector fired."""

    connections: int = 0
    active_connections: int = 0
    rejected_connections: int = 0
    idle_timeouts: int = 0
    line_too_long: int = 0
    requests: int = 0
    draining_rejections: int = 0
    overloaded_rejections: int = 0
    quota_rejections: int = 0
    replayed_instances: int = 0
    journal: JournalStats = field(default_factory=JournalStats)
    idempotency: IdempotencyStats = field(
        default_factory=IdempotencyStats
    )
    injected_conn_drops: int = 0
    injected_partial_writes: int = 0
    injected_slow_client_events: int = 0


@dataclass(frozen=True)
class ShardStats(Snapshot):
    """One shard's snapshot (all counters since construction, latencies
    over the shard's bounded window).  Each section is a coherent copy
    of its own counter store."""

    shard: int
    instances: int  #: distinct registered instance fingerprints
    requests: int
    batches: int  #: microbatch sweeps run (>= 1 request each)
    max_batch_size: int
    microbatched_requests: int  #: requests served in sweeps of size >= 2
    queue_depth: int  #: requests enqueued but not yet drained
    engines: dict[str, int]  #: requests answered per engine label
    cache: CompilationCacheStats  #: this shard's own compilation cache
    plans: ExtensionalPlanCacheStats  #: this shard's extensional plans
    sampling: SamplingStats  #: this shard's sampled hard-query traffic
    compile_ms: float  #: total wall-clock spent compiling on this shard
    p50_ms: float
    p95_ms: float
    #: this shard's resilience counters (shed / deadlines / degradation /
    #: breaker); defaulted so hand-built snapshots stay cheap
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: per-route EWMA latency predictions (ms), keyed by route label —
    #: what the shed and degradation policies consult
    route_ewma_ms: dict[str, float] = field(default_factory=dict)
    #: worker-supervision counters (trivial on the threads backend)
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cache accesses (0.0 before the first access)."""
        accesses = self.cache.hits + self.cache.misses
        return self.cache.hits / accesses if accesses else 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Plan-cache hits over accesses (0.0 before the first access)."""
        accesses = self.plans.hits + self.plans.misses
        return self.plans.hits / accesses if accesses else 0.0


@dataclass(frozen=True)
class ServiceStats(Snapshot):
    """The whole service: per-shard snapshots plus cross-shard
    aggregates (latency percentiles are computed over the union of the
    shards' windows, not averaged per shard).

    The derived aggregates (``supervision`` / ``sampling`` /
    ``resilience`` / ``engines``) are properties, not payload fields:
    the receiving side recomputes them from the shard snapshots, so a
    payload keeps the exact worst-breaker and max-half-width semantics
    of an in-process snapshot."""

    shards: tuple[ShardStats, ...] = field(default_factory=tuple)
    requests: int = 0
    batches: int = 0
    microbatched_requests: int = 0
    queue_depth: int = 0
    compile_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    #: service-level routing counters — these live at the service (the
    #: shards cannot see placement), so unlike the derived aggregates
    #: they are real serialized fields
    replication: ReplicationStats = field(default_factory=ReplicationStats)
    #: always zero (see :class:`HedgeStats`); kept for payload readers
    hedging: HedgeStats = field(default_factory=HedgeStats)

    @property
    def supervision(self) -> SupervisorStats:
        """Service-wide supervision counters (per-shard snapshots
        merged: sums, alive only if all workers alive)."""
        return _merge_all(SupervisorStats, (s.supervisor for s in self.shards))

    @property
    def sampling(self) -> SamplingStats:
        """Service-wide sampling-route counters (per-shard snapshots
        merged: sums, worst achieved half-width)."""
        return _merge_all(SamplingStats, (s.sampling for s in self.shards))

    @property
    def resilience(self) -> ResilienceStats:
        """Service-wide resilience counters (per-shard snapshots merged:
        sums, worst breaker state)."""
        return _merge_all(ResilienceStats, (s.resilience for s in self.shards))

    @property
    def cache_hit_rate(self) -> float:
        """Service-wide hits over cache accesses."""
        hits = sum(s.cache.hits for s in self.shards)
        accesses = hits + sum(s.cache.misses for s in self.shards)
        return hits / accesses if accesses else 0.0

    @property
    def engines(self) -> dict[str, int]:
        """Service-wide requests answered per engine label."""
        merged: Counter[str] = Counter()
        for shard in self.shards:
            merged.update(shard.engines)
        return dict(merged)
