"""A sharded, concurrent serving layer over the PQE engines.

The production face of the repo (see ``docs/serving.md``): registered
instances partition across shards by a process-stable content digest;
each shard owns its compilation cache, worker pool and stats; the
``submit`` / ``submit_batch`` front end microbatches same-work requests
into single vectorized tape sweeps, and hard queries degrade to exact
brute force or to the vectorized budget-adaptive sampling engine
(:mod:`repro.pqe.approximate`) under per-request accuracy budgets —
concurrent same-work hard requests share one sampling sweep the way
d-D requests share one tape sweep.

The resilience layer (:mod:`repro.serving.resilience`,
:mod:`repro.serving.faults`) adds per-request deadlines and priorities,
bounded queues with priority-aware load shedding, per-shard circuit
breakers, deterministic retry backoff, graceful degradation of
deadline-pressed exact routes to deadline-derived sampling budgets
(``degraded=True`` responses with honest error bars), and seeded,
replayable fault injection for chaos testing.

Backends: ``ShardedService(backend="threads")`` (default) serves from
in-process thread pools; ``backend="processes"`` gives every shard a
dedicated worker process fed through shared-memory probability columns
(:mod:`repro.serving.worker`, :mod:`repro.serving.shm`) — same
interface, bit-for-float identical answers, one core per shard.  The
asyncio JSON-lines gateway (:mod:`repro.serving.gateway`) fronts either
backend with per-tenant quotas and backpressure, and the durable edge
(:mod:`repro.serving.journal`) adds a checksummed registration journal
with crash recovery, graceful drain, and idempotent retries.
"""

from repro.serving.api import (
    AccuracyBudget,
    QueryRequest,
    QueryResponse,
)
from repro.serving.faults import (
    FaultInjector,
    TransientFaultError,
    WorkerCrashError,
)
from repro.serving.gateway import (
    Gateway,
    GatewayDraining,
    GatewayOverloaded,
    GatewayServer,
    IdleTimeout,
    LineTooLong,
    TenantQuotaExceeded,
    TooManyConnections,
)
from repro.serving.journal import (
    JournalCorrupt,
    JournalStats,
    RegistrationJournal,
)
from repro.serving.resilience import (
    CircuitBreaker,
    CircuitBreakerOpen,
    Deadline,
    DeadlineExceeded,
    LatencyEwma,
    RetryPolicy,
    ServiceStopped,
    ShardOverloaded,
    SupervisorPolicy,
    degraded_budget,
)
from repro.serving.service import ShardedService, placement_ring
from repro.serving.shard import Shard
from repro.serving.shm import SegmentRegistry
from repro.serving.worker import ProcessShard
from repro.serving.stats import (
    GatewayStats,
    HedgeStats,
    IdempotencyStats,
    LatencyWindow,
    ReplicationStats,
    ResilienceStats,
    SamplingStats,
    ServiceStats,
    ShardStats,
    SupervisorStats,
    percentile,
)

__all__ = [
    "AccuracyBudget",
    "CircuitBreaker",
    "CircuitBreakerOpen",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjector",
    "Gateway",
    "GatewayDraining",
    "GatewayOverloaded",
    "GatewayServer",
    "GatewayStats",
    "HedgeStats",
    "IdempotencyStats",
    "IdleTimeout",
    "JournalCorrupt",
    "JournalStats",
    "LatencyEwma",
    "LatencyWindow",
    "LineTooLong",
    "RegistrationJournal",
    "ProcessShard",
    "QueryRequest",
    "QueryResponse",
    "ReplicationStats",
    "ResilienceStats",
    "RetryPolicy",
    "SamplingStats",
    "SegmentRegistry",
    "ServiceStats",
    "ServiceStopped",
    "Shard",
    "SupervisorPolicy",
    "SupervisorStats",
    "TenantQuotaExceeded",
    "TooManyConnections",
    "ShardOverloaded",
    "ShardStats",
    "ShardedService",
    "TransientFaultError",
    "WorkerCrashError",
    "degraded_budget",
    "placement_ring",
    "percentile",
]
