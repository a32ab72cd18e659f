"""Resilience primitives for the sharded service.

Everything a shard needs to stay answerable under overload and faults:
typed rejection errors (:class:`ServiceStopped`, :class:`ShardOverloaded`,
:class:`CircuitBreakerOpen`), a per-shard :class:`CircuitBreaker`
(closed / open / half-open on consecutive worker failures), a
deterministic jittered-backoff :class:`RetryPolicy` for transient
errors, per-route :class:`LatencyEwma` predictors, and
:func:`degraded_budget` — the bridge from "remaining deadline" to an
:class:`~repro.pqe.approximate.AccuracyBudget` for the sampling
fallback.  The degradation ladder and the policies here are documented
in ``docs/serving.md``.

Determinism is load-bearing: retry jitter draws from the PR-5
:class:`~repro.db.tid.DrawStream` counter addressing (not ``random``),
and degraded budgets quantize their sample caps to powers of two so
that small timing differences between runs collapse onto the same
budget — same seed + same budget ⇒ bit-identical degraded answers,
which is what the ``degraded_identical`` bench flag gates.

:class:`Deadline` / :class:`DeadlineExceeded` live in
:mod:`repro.core.deadline` (so the evaluation engines can check them
without importing the serving layer) and are re-exported here as the
serving-facing names.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.deadline import Deadline, DeadlineExceeded
from repro.db.tid import DrawStream
from repro.pqe.approximate import AccuracyBudget

__all__ = [
    "CircuitBreaker",
    "CircuitBreakerOpen",
    "DEFAULT_SAMPLES_PER_MS",
    "Deadline",
    "DeadlineExceeded",
    "HedgePolicy",
    "LatencyEwma",
    "RetryPolicy",
    "ServiceStopped",
    "ShardOverloaded",
    "SupervisorPolicy",
    "degraded_budget",
]

#: DrawStream lane for retry-backoff jitter.  Lanes 0/1 are the world /
#: clause draw lanes of the samplers (see :mod:`repro.db.tid`); the
#: serving layer keeps far away from them.
RETRY_JITTER_LANE = 7001

#: DrawStream lane for hedge-delay jitter — its own lane so hedging and
#: retries never share a draw schedule.
HEDGE_JITTER_LANE = 7002

#: EWMA standard deviations above a route's mean latency that the hedge
#: delay waits (:meth:`LatencyEwma.quantile_ms`): a primary slower than
#: mean + 3 sigma gets a backup.
HEDGE_QUANTILE_Z = 3.0

#: Conservative prior for the sampling route's throughput, used by
#: :func:`degraded_budget` before the shard has observed any sampling
#: traffic of its own.
DEFAULT_SAMPLES_PER_MS = 100.0

#: Floor on a degraded budget's sample cap: below this the estimate is
#: noise, so rather than serve garbage the shard lets the deadline
#: check fail the request.
MIN_DEGRADED_SAMPLES = 16


class ServiceStopped(RuntimeError):
    """The shard (or service) was stopped; this request will never be
    served.  Subclasses :class:`RuntimeError` so pre-resilience callers
    that caught the executor's bare ``RuntimeError`` keep working."""


class ShardOverloaded(RuntimeError):
    """Admission control shed this request: the shard's queue could not
    absorb it within its deadline (or at all).  Retrying elsewhere or
    later is the caller's decision — the error carries no partial answer."""


class CircuitBreakerOpen(RuntimeError):
    """The shard's circuit breaker is open after consecutive worker
    failures; requests are rejected immediately until the reset timeout
    admits half-open probes."""


class CircuitBreaker:
    """A per-shard breaker over consecutive worker failures.

    States: **closed** (normal; ``failure_threshold`` *consecutive*
    failures trip it), **open** (reject everything for
    ``reset_after_ms``), **half_open** (admit up to ``half_open_probes``
    probe requests; any failure re-trips, ``half_open_probes`` successes
    close).  All transitions are under one lock; ``clock`` is injectable
    so tests drive the reset timeout by hand.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_ms: float = 1000.0,
        half_open_probes: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if reset_after_ms <= 0:
            raise ValueError(
                f"reset_after_ms must be positive, got {reset_after_ms}"
            )
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be positive, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.reset_after_ms = reset_after_ms
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (
            self._state == "open"
            and (self._clock() - self._opened_at) * 1e3 >= self.reset_after_ms
        ):
            self._state = "half_open"
            self._probes_in_flight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """Whether to admit a request right now (counts half-open probes)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half_open":
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == "half_open":
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._state = "closed"
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == "half_open":
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def trip(self) -> None:
        """Force the breaker open immediately (supervisor escalation).

        Used when an out-of-band signal — a worker death, a supervisor
        giving up on respawns — proves the shard unhealthy without the
        request path having to accumulate ``failure_threshold``
        consecutive failures first.
        """
        with self._lock:
            self._trip()

    def _trip(self) -> None:
        # Caller holds the lock.
        self._state = "open"
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._trips += 1


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic jittered exponential backoff for transient errors.

    ``attempts`` bounds total tries (first attempt included).
    ``delay_ms(token, attempt)`` is a pure function: the jitter draw is
    addressed by ``(token, attempt)`` on a seeded
    :class:`~repro.db.tid.DrawStream` counter, so a replay of the same
    request indices produces the same backoff schedule — retries stay
    inside the deterministic-fault-schedule story of
    :mod:`repro.serving.faults`.
    """

    attempts: int = 2
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    max_delay_ms: float = 50.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be positive, got {self.attempts}")
        if self.base_delay_ms < 0:
            raise ValueError(
                f"base_delay_ms must be non-negative, got {self.base_delay_ms}"
            )
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be at least 1, got {self.multiplier}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_ms(self, token: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of the
        request identified by ``token`` — deterministic in both."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        backoff = min(
            self.max_delay_ms,
            self.base_delay_ms * self.multiplier ** (attempt - 1),
        )
        if self.jitter == 0 or backoff == 0:
            return backoff
        stream = DrawStream(self.seed, RETRY_JITTER_LANE)
        counter = token * 32 + (attempt & 31)
        draw = stream.draw(1 << 20, counter)
        # Jitter pulls the delay down into [backoff*(1-jitter), backoff]:
        # full-magnitude retries never exceed the deterministic envelope.
        return backoff * (1.0 - self.jitter * (draw / float(1 << 20)))


class LatencyEwma:
    """A thread-safe exponentially-weighted moving average of per-route
    service latencies (ms) — the shard's one-number prediction of "how
    long would this route take right now" for shed and degradation
    decisions.  ``value()`` is 0.0 until the first observation;
    ``samples`` lets policies refuse to predict from nothing.

    Alongside the mean it tracks an EWMA of squared deviations, so
    :meth:`quantile_ms` can answer "how long would a *slow* request on
    this route take" (mean + z·stddev) — the hedge-delay question: fire
    the backup only once the primary has outlived a high quantile of its
    route's history.
    """

    def __init__(self, alpha: float = 0.2):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._value = 0.0
        self._variance = 0.0
        self._samples = 0

    def observe(self, latency_ms: float) -> None:
        with self._lock:
            if self._samples == 0:
                self._value = latency_ms
                self._variance = 0.0
            else:
                deviation = latency_ms - self._value
                self._value += self.alpha * deviation
                self._variance += self.alpha * (
                    deviation * deviation - self._variance
                )
            self._samples += 1

    def value(self) -> float:
        with self._lock:
            return self._value

    def quantile_ms(self, z: float = 2.0) -> float:
        """Mean + ``z`` EWMA standard deviations — an upper-quantile
        latency estimate (0.0 before any observation)."""
        with self._lock:
            if self._samples == 0:
                return 0.0
            return self._value + z * math.sqrt(max(self._variance, 0.0))

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples


@dataclass(frozen=True)
class HedgePolicy:
    """When and how to hedge a replicated request with a backup.

    The service fires at most ``max_backups`` backup requests (0
    disables hedging) after a *deterministic* delay: the primary route's
    :meth:`LatencyEwma.quantile_ms` at :data:`HEDGE_QUANTILE_Z`
    deviations, clamped to ``[min_delay_ms, max_delay_ms]``
    (``initial_delay_ms`` stands in before the route has history), then
    jittered downward on a seeded :class:`~repro.db.tid.DrawStream` lane
    exactly like :meth:`RetryPolicy.delay_ms` — a replay of the same
    admission tokens produces the same hedge schedule.
    """

    max_backups: int = 1
    initial_delay_ms: float = 10.0
    min_delay_ms: float = 1.0
    max_delay_ms: float = 100.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_backups < 0:
            raise ValueError(
                f"max_backups must be non-negative, got {self.max_backups}"
            )
        if self.min_delay_ms < 0 or self.max_delay_ms < self.min_delay_ms:
            raise ValueError(
                f"need 0 <= min_delay_ms <= max_delay_ms, got "
                f"{self.min_delay_ms}..{self.max_delay_ms}"
            )
        if self.initial_delay_ms < 0:
            raise ValueError(
                f"initial_delay_ms must be non-negative, got "
                f"{self.initial_delay_ms}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def enabled(self) -> bool:
        return self.max_backups > 0

    def delay_ms(self, token: int, quantile_ms: float) -> float:
        """Hedge delay for admission ``token`` given the primary route's
        latency quantile — a pure function of both."""
        base = quantile_ms if quantile_ms > 0 else self.initial_delay_ms
        base = min(max(base, self.min_delay_ms), self.max_delay_ms)
        if self.jitter == 0 or base == 0:
            return base
        stream = DrawStream(self.seed, HEDGE_JITTER_LANE)
        counter = token * 32
        draw = stream.draw(1 << 20, counter)
        # Like RetryPolicy: jitter pulls the delay down into
        # [base*(1-jitter), base], never above the envelope.
        return base * (1.0 - self.jitter * (draw / float(1 << 20)))


@dataclass(frozen=True)
class SupervisorPolicy:
    """Restart policy for a supervised worker process.

    On worker death the supervisor resolves in-flight futures typed,
    trips the shard's breaker (the *failover* signal: while open,
    replicated instances route to replicas), waits a deterministic
    exponential backoff, then respawns and replays instance
    registrations.  After ``max_restarts`` respawns the supervisor gives
    up: the worker stays dead, the shard reports unhealthy, and requests
    fail typed.
    """

    max_restarts: int = 16
    base_delay_ms: float = 5.0
    multiplier: float = 2.0
    max_delay_ms: float = 200.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if self.base_delay_ms < 0:
            raise ValueError(
                f"base_delay_ms must be non-negative, got {self.base_delay_ms}"
            )
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be at least 1, got {self.multiplier}"
            )
        if self.max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be non-negative, got {self.max_delay_ms}"
            )

    def delay_ms(self, restart: int) -> float:
        """Backoff before restart number ``restart`` (1-based)."""
        if restart < 1:
            raise ValueError(f"restart must be >= 1, got {restart}")
        return min(
            self.max_delay_ms,
            self.base_delay_ms * self.multiplier ** (restart - 1),
        )


def degraded_budget(
    base: AccuracyBudget,
    remaining_ms: float,
    samples_per_ms: float = 0.0,
) -> AccuracyBudget | None:
    """The sampling budget affordable in ``remaining_ms``, or ``None``
    when even a floor-sized estimate will not fit.

    The cap is the observed sampling throughput times the remaining
    deadline (falling back to :data:`DEFAULT_SAMPLES_PER_MS` before any
    observation), clamped to the base budget's cap and **quantized down
    to a power of two**: runs whose clocks differ slightly land on the
    same cap, so the degraded estimate — fully determined by
    ``(seed, budget)`` — is bit-identical across them.  The budget keeps
    the base's seed and epsilon, forces the Wilson interval (never
    degenerate at 0 or n hits, so a degraded answer always carries a
    nonzero ``half_width``), and stays adaptive: if the sampler reaches
    the target half-width early it stops before the cap.
    """
    if remaining_ms <= 0:
        return None
    rate = samples_per_ms if samples_per_ms > 0 else DEFAULT_SAMPLES_PER_MS
    affordable = min(base.max_samples, int(remaining_ms * rate))
    if affordable < MIN_DEGRADED_SAMPLES:
        return None
    cap = 1 << (affordable.bit_length() - 1)
    return AccuracyBudget(
        epsilon=base.epsilon,
        min_samples=min(base.min_samples, cap),
        max_samples=cap,
        seed=base.seed,
        adaptive=True,
        interval="wilson",
        delta=base.delta,
    )
