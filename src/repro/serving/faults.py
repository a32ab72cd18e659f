"""Deterministic fault injection for the serving layer.

Chaos testing is only useful if a failure found once can be found
again: :class:`FaultInjector` draws every fault decision from the PR-5
:class:`~repro.db.tid.DrawStream` counter addressing, keyed by
``(shard, request index, attempt)`` — so a fault schedule is a pure
function of the seed and the admission order, replayable across runs
and wave schedules.  Rates are exact
:class:`~fractions.Fraction` thresholds compared against integer draws
(``draw < numerator`` out of ``denominator``), never float
comparisons, so ``error_rate=0.1`` means *exactly* 1-in-10 in
expectation on every platform.

Five fault kinds, each on its own stream lane per shard:

- **worker errors** (``should_fail``): the worker raises
  :class:`TransientFaultError` mid-compute for the doomed request —
  exercising microbatch isolation, retries, and the circuit breaker.
  ``broken_requests`` marks ``(shard, index)`` pairs that fail on
  *every* attempt — permanent faults that must be failed typed rather
  than retried forever.
- **added latency** (``latency_ms_for``): the worker sleeps before
  serving — exercising deadline checks and degradation.
- **queue pressure** (``phantom_depth``): admission sees phantom extra
  queue depth — exercising the shed policy without needing real
  concurrent load.
- **worker kills** (``should_kill``): the shard's worker is crashed
  (SIGKILL on the process backend, simulated on threads) before serving
  the doomed attempt, raising :class:`WorkerCrashError` — exercising
  supervision, respawn-and-replay, and replica failover.
- **straggler latency** (``straggler_ms_for``): a *long* added delay on
  its own lane, scheduled independently of the added-latency lane — a
  heavy latency tail on top of the common one.

Three further lanes exercise the **network edge** (the asyncio gateway)
rather than the worker tier, keyed per ``(connection, request index,
attempt)`` the same way the worker lanes key per shard:

- **connection drops** (``should_drop_conn``): the gateway aborts the
  connection mid-reply — half the frame written, then a hard close —
  exercising client retries and the idempotent-response journal.
- **partial writes** (``should_split_write``): the reply frame is
  written in two separately-drained chunks — exercising client-side
  line reassembly without changing any outcome.
- **slow client** (``slow_client_ms_for``): a delay before the reply is
  written — exercising idle-timeout and drain interplay.

The injector is wired through :class:`~repro.serving.shard.Shard` /
:class:`~repro.serving.service.ShardedService` and
:class:`~repro.serving.gateway.Gateway` as an optional hook; a
``None`` injector costs nothing on the hot path.

Every fault is counted once, where it fires: the injector keeps one
:class:`~repro.serving.stats.Counters` store keyed by ``(kind, shard or
connection)``, one count per affected request attempt (a microbatch of
eight requests all delayed by the latency lane counts eight latency
events, though the worker sleeps once).  :meth:`FaultInjector.stats`
sums each kind over every key; :meth:`FaultInjector.fired` is one
shard's share, which that shard reports as its ``injected_*``
:class:`~repro.serving.stats.ResilienceStats` fields.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from repro.db.tid import DrawStream
from repro.serving.stats import Counters

__all__ = ["FaultInjector", "TransientFaultError", "WorkerCrashError"]

#: Lane block for fault streams, far from the samplers' lanes 0/1 and
#: the retry-jitter lane.  Each (kind, shard) pair gets its own lane.
_FAULT_LANE_BASE = 9001
#: The fault kinds, in stream-lane order; each name is also the key
#: :meth:`FaultInjector.stats` reports that kind's fired count under.
_KINDS = (
    "errors",
    "latency_events",
    "pressure_events",
    "kills",
    "straggler_events",
    "conn_drops",
    "partial_writes",
    "slow_client_events",
)
#: The worker-tier kinds a shard reports, by their
#: :class:`~repro.serving.stats.ResilienceStats` field.
_SHARD_FIELDS = {
    "injected_errors": "errors",
    "injected_latency_events": "latency_events",
    "injected_kills": "kills",
    "injected_stragglers": "straggler_events",
}
#: Draws are addressed by ``index * 32 + attempt`` so a retried request
#: re-rolls its fault independently of its first attempt.
_ATTEMPT_STRIDE = 32


def _as_rate(value, name: str) -> Fraction:
    """An exact probability in [0, 1].  Floats go through ``str`` so
    ``0.1`` means the decimal one-tenth, not its binary approximation."""
    rate = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    if not 0 <= rate <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return rate


class TransientFaultError(RuntimeError):
    """An injected worker failure, classified transient: the retry
    policy may re-attempt it (and will succeed unless the request is in
    ``broken_requests`` or re-rolls unlucky)."""


class WorkerCrashError(TransientFaultError):
    """An injected worker crash: the worker died under this attempt.
    Subclasses :class:`TransientFaultError` because with supervision the
    crash *is* transient — the retry lands on the respawned worker (or a
    replica) and succeeds."""


class FaultInjector:
    """Seeded, replayable fault schedules for chaos tests and benches.

    All decisions are pure functions of ``(seed, shard, index,
    attempt)``; the injector keeps only *observability* state (counts
    of faults actually fired, per shard or connection), so sharing one
    injector across shards and threads is safe and does not perturb the
    schedule.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        error_rate=0,
        latency_rate=0,
        latency_ms: float = 0.0,
        pressure_rate=0,
        pressure_depth: int = 0,
        broken_requests=(),
        worker_kill_rate=0,
        straggler_rate=0,
        straggler_ms: float = 0.0,
        conn_drop_rate=0,
        partial_write_rate=0,
        slow_client_rate=0,
        slow_client_ms: float = 0.0,
    ):
        self.seed = seed
        self.error_rate = _as_rate(error_rate, "error_rate")
        self.latency_rate = _as_rate(latency_rate, "latency_rate")
        if latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {latency_ms}")
        self.latency_ms = latency_ms
        self.pressure_rate = _as_rate(pressure_rate, "pressure_rate")
        if pressure_depth < 0:
            raise ValueError(
                f"pressure_depth must be >= 0, got {pressure_depth}"
            )
        self.pressure_depth = pressure_depth
        self.broken_requests = frozenset(broken_requests)
        self.worker_kill_rate = _as_rate(worker_kill_rate, "worker_kill_rate")
        self.straggler_rate = _as_rate(straggler_rate, "straggler_rate")
        if straggler_ms < 0:
            raise ValueError(f"straggler_ms must be >= 0, got {straggler_ms}")
        self.straggler_ms = straggler_ms
        self.conn_drop_rate = _as_rate(conn_drop_rate, "conn_drop_rate")
        self.partial_write_rate = _as_rate(
            partial_write_rate, "partial_write_rate"
        )
        self.slow_client_rate = _as_rate(
            slow_client_rate, "slow_client_rate"
        )
        if slow_client_ms < 0:
            raise ValueError(
                f"slow_client_ms must be >= 0, got {slow_client_ms}"
            )
        self.slow_client_ms = slow_client_ms
        self._lock = threading.Lock()
        self._streams: dict[tuple[str, int], DrawStream] = {}
        #: fired faults, keyed ``(kind, shard or connection)``
        self._fired = Counters()

    def _fires(
        self, kind: str, shard: int, rate: Fraction, index: int, attempt: int
    ) -> bool:
        """Whether ``kind`` fires for this attempt, counting it if so."""
        if rate == 0:
            return False
        if rate < 1:
            with self._lock:
                stream = self._streams.get((kind, shard))
                if stream is None:
                    lane = _FAULT_LANE_BASE + _KINDS.index(kind) * 997 + shard
                    stream = DrawStream(self.seed, lane)
                    self._streams[(kind, shard)] = stream
            counter = index * _ATTEMPT_STRIDE + (attempt % _ATTEMPT_STRIDE)
            if stream.draw(rate.denominator, counter) >= rate.numerator:
                return False
        self._fired.add((kind, shard))
        return True

    def should_fail(self, shard: int, index: int, attempt: int = 0) -> bool:
        """Whether request ``index`` on ``shard`` fails this ``attempt``."""
        if (shard, index) in self.broken_requests:
            self._fired.add(("errors", shard))
            return True
        return self._fires("errors", shard, self.error_rate, index, attempt)

    def latency_ms_for(
        self, shard: int, index: int, attempt: int = 0
    ) -> float:
        """Extra latency (ms) to inject before serving this attempt."""
        if self.latency_ms > 0 and self._fires(
            "latency_events", shard, self.latency_rate, index, attempt
        ):
            return self.latency_ms
        return 0.0

    def should_kill(self, shard: int, index: int, attempt: int = 0) -> bool:
        """Whether to crash ``shard``'s worker under this attempt."""
        return self._fires(
            "kills", shard, self.worker_kill_rate, index, attempt
        )

    def straggler_ms_for(
        self, shard: int, index: int, attempt: int = 0
    ) -> float:
        """Straggler delay (ms) to inject before serving this attempt."""
        if self.straggler_ms > 0 and self._fires(
            "straggler_events", shard, self.straggler_rate, index, attempt
        ):
            return self.straggler_ms
        return 0.0

    def should_drop_conn(
        self, conn: int, index: int, attempt: int = 0
    ) -> bool:
        """Whether the gateway should abort connection ``conn`` mid-way
        through the reply to its ``index``-th request.  Like the worker
        lanes, a retried request (new attempt, or the same key resent on
        a new connection) re-rolls independently."""
        return self._fires(
            "conn_drops", conn, self.conn_drop_rate, index, attempt
        )

    def should_split_write(
        self, conn: int, index: int, attempt: int = 0
    ) -> bool:
        """Whether to write this reply frame in two drained chunks."""
        return self._fires(
            "partial_writes", conn, self.partial_write_rate, index, attempt
        )

    def slow_client_ms_for(
        self, conn: int, index: int, attempt: int = 0
    ) -> float:
        """Delay (ms) to inject before writing this reply."""
        if self.slow_client_ms > 0 and self._fires(
            "slow_client_events", conn, self.slow_client_rate, index, attempt
        ):
            return self.slow_client_ms
        return 0.0

    def phantom_depth(self, shard: int, index: int) -> int:
        """Phantom queue depth admission control should add for this
        request (attempt-independent: admission happens once)."""
        if self.pressure_depth > 0 and self._fires(
            "pressure_events", shard, self.pressure_rate, index, 0
        ):
            return self.pressure_depth
        return 0

    def stats(self) -> dict[str, int]:
        """Fired faults per kind, summed over shards and connections
        (observability only)."""
        totals = dict.fromkeys(_KINDS, 0)
        for (kind, _), count in self._fired.snapshot().items():
            totals[kind] += count
        return totals

    def fired(self, shard: int) -> dict[str, int]:
        """The worker-tier faults fired on ``shard``, as that shard's
        ``injected_*`` :class:`~repro.serving.stats.ResilienceStats`
        fields."""
        counts = self._fired.snapshot()
        return {
            name: counts.get((kind, shard), 0)
            for name, kind in _SHARD_FIELDS.items()
        }
