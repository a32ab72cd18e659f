"""One shard of the sharded PQE service.

A shard owns everything a request needs after routing: its *own*
:class:`~repro.pqe.engine.CompilationCache` (so cache churn is isolated
per shard and two shards never serve each other's circuits) and its own
:class:`~repro.pqe.extensional.ExtensionalPlanCache` (safe monotone
queries are served by lifted plans, never by circuits), a small
thread-pool of workers, a pending queue that microbatches same-work
requests, and its stats.  Instance-derived state (variable orders,
tabular side machines, shared OBDD managers) lives on the
:class:`~repro.db.relation.Instance` objects themselves via
``cached_derivation``; since an instance is routed to exactly one shard,
those arenas are shard-local too.

Routing: a drain's group takes one route,
:func:`~repro.pqe.engine.route_of` (the Figure-1 dichotomy rule that
:func:`~repro.pqe.engine.evaluate` also follows), and
:func:`compute` is the one function that computes a served
probability on any route.

Microbatching: every ``submit`` appends to the pending queue and
schedules a drain on the shard's executor.  A drain takes the queue
head and *all* pending requests sharing its ``(query, instance
fingerprint)`` work key and serves them together: members whose
probability maps agree (equal
:meth:`~repro.db.tid.TupleIndependentDatabase.probability_digest`)
share **one** evaluation whose float is fanned out to every twin, and
an exact route computes all of the group's distinct maps in one call —
one plan or circuit probe and, on the intensional route, one
:meth:`~repro.circuits.evaluator.EvaluationTape.evaluate_vectors` sweep
of the compiled tape.  Hard large groups take the sampling analogue:
one vectorized budget-adaptive sweep per distinct ``(budget,
probability map)``, sharing the instance's cached lineage structure.
Because every kernel is per-element IEEE arithmetic and every sweep is
deterministic per budget seed, batch composition never changes any
individual float: a microbatched answer is bit-for-float identical to
a single-threaded :func:`~repro.pqe.engine.evaluate_batch`.

Resilience: requests may carry a deadline and a priority.  Admission
control bounds the queue and sheds the newest lowest-priority request
when the queue (or the per-shard circuit breaker) cannot absorb more;
deadlines are checked cooperatively at admission, at dequeue, and
inside each computation (at entry, after compilation, between
enumerations and between sampling waves) under the latest deadline of
the members sharing it; an exact route predicted (per-route latency
EWMAs) to miss a request's deadline is downgraded to the sampling route
under a deadline-derived budget (``degraded=True`` responses, nonzero
``half_width``).  A group whose computation raises is retried
member-by-member, so one poisoned request fails alone; transient faults
additionally get a deterministic jittered-backoff retry.  Every
rejection is a *typed* error set on the future — a submitted request
always resolves.  The full degradation ladder and the policies live in
``docs/serving.md``.

Backends: this class is the **policy front end** shared by both serving
backends.  Everything above — queueing, microbatch fusion, admission,
deadlines, degradation, retries, breaker, fault injection, stats — runs
here, in the submitting process, for *both* backends; the computation
sits behind one hook, :meth:`Shard._compute`.  The thread backend (this
class) calls :func:`compute` in-process on the shard's worker pool; the
process backend (:class:`~repro.serving.worker.ProcessShard`) overrides
the hook with one RPC to a dedicated worker process, which calls the
same :func:`compute`.  Identical policy code plus identical compute is
what makes the two backends bit-for-float identical and fault-replay
equivalent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.deadline import Deadline, DeadlineExceeded
from repro.pqe.approximate import sampling_plan
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.dichotomy import classify_query
from repro.pqe.engine import ROUTES, CompilationCache, route_of
from repro.pqe.extensional import ExtensionalPlanCache
from repro.pqe.lift import evaluate_plan_batch
from repro.serving.api import AccuracyBudget, QueryRequest, QueryResponse
from repro.serving.faults import (
    FaultInjector,
    TransientFaultError,
    WorkerCrashError,
)
from repro.serving.resilience import (
    HEDGE_QUANTILE_Z,
    CircuitBreaker,
    CircuitBreakerOpen,
    LatencyEwma,
    RetryPolicy,
    ServiceStopped,
    ShardOverloaded,
    degraded_budget,
)
from repro.serving.stats import (
    Counters,
    LatencyWindow,
    ResilienceStats,
    SamplingStats,
    ShardStats,
)


def compute(cache, plan_cache, route, query, tids, budget, deadline):
    """The one computation behind every served probability.

    Runs ``route`` (one of :data:`~repro.pqe.engine.ROUTES`) for
    ``query`` over ``tids`` — one TID per distinct probability map of a
    microbatch group, all sharing instance content — against a shard's
    compilation and plan caches.  The thread backend calls it
    in-process (:meth:`Shard._compute`); the process backend's worker
    calls it on its rehydrated TIDs, so both backends run the same
    arithmetic.

    Returns ``(values, engine, cache_hit, compile_ms)``: one float per
    TID on the exact routes (the sampling route takes exactly one TID
    and returns its :class:`~repro.pqe.approximate.Estimate`), the
    engine label, whether a cached plan or circuit was reused, and the
    compile time (0.0 unless this call compiled).  ``deadline`` is
    checked cooperatively: at entry, after compilation, between
    enumerations and between sampling waves.
    """
    if deadline is not None:
        deadline.check("computation admission")
    if route in ("extensional", "lifted"):
        plan, hit = plan_cache.get_or_build(query)
        return evaluate_plan_batch(plan, tids), route, hit, 0.0
    if route == "intensional":
        instance = tids[0].instance
        compiled, hit = cache.get_or_compile(
            query, instance, instance.content_fingerprint()
        )
        if deadline is not None:
            deadline.check("post-compilation")
        tape = compiled.tape
        values = tape.evaluate_vectors(
            [tape.probability_vector(tid.probability_floats()) for tid in tids]
        )
        return values, route, hit, 0.0 if hit else compiled.compile_ms
    if route == "brute_force":
        values = []
        for tid in tids:
            if values and deadline is not None:
                deadline.check("between enumerations")
            values.append(float(probability_by_world_enumeration(query, tid)))
        return values, route, False, 0.0
    if route == "sampling":
        (tid,) = tids
        plan = sampling_plan(query, tid)
        return plan.run(budget, deadline=deadline), plan.engine, False, 0.0
    raise ValueError(f"unknown route {route!r}")


@dataclass
class _Pending:
    """A queued request: the work key groups microbatchable neighbors.

    ``deadline`` is materialized once at admission; ``attempt`` counts
    serve attempts (for retry bounding and fault re-rolls); ``counted``
    keeps retries from double-counting into the request counters;
    ``budget_override`` carries the deadline-derived budget of a
    degraded request into the sampling route.
    """

    request: QueryRequest
    future: Future
    enqueued: float
    deadline: Deadline | None = None
    index: int = 0
    attempt: int = 0
    counted: bool = False
    budget_override: AccuracyBudget | None = None
    key: tuple = field(init=False)

    def __post_init__(self) -> None:
        self.key = (
            self.request.query,
            self.request.tid.instance.content_fingerprint(),
        )


class Shard:
    """One shard: compilation cache, workers, microbatch queue, stats."""

    def __init__(
        self,
        shard_id: int,
        *,
        workers: int = 2,
        default_budget: AccuracyBudget | None = None,
        max_queue_depth: int = 4096,
        breaker: CircuitBreaker | None = None,
        retry: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        degrade_to_sampling: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be positive, got {max_queue_depth}"
            )
        self.shard_id = shard_id
        self.cache = CompilationCache()
        self.plan_cache = ExtensionalPlanCache()
        self.default_budget = (
            default_budget if default_budget is not None else AccuracyBudget()
        )
        self.max_queue_depth = max_queue_depth
        self.degrade_to_sampling = degrade_to_sampling
        self._breaker = breaker
        self._retry = retry if retry is not None else RetryPolicy()
        self._fault_injector = fault_injector
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"pqe-shard-{shard_id}"
        )
        self._lock = threading.Lock()
        self._pending: deque[_Pending] = deque()
        self._latencies = LatencyWindow()
        self._instances: set[tuple] = set()
        self._stopped = False
        self._admitted = 0
        # One counter store per ShardStats section, keyed by field.
        self._counts = Counters(
            requests=0,
            batches=0,
            max_batch_size=0,
            microbatched_requests=0,
            compile_ms=0.0,
        )
        self._engines = Counters()
        self._sampling = Counters()
        self._resilience = Counters()
        self._route_ewma = {route: LatencyEwma() for route in ROUTES}
        self._service_ewma = LatencyEwma()
        self._sampling_rate = LatencyEwma()  # samples per ms

    # ------------------------------------------------------------------
    # Front-end
    # ------------------------------------------------------------------

    def register(self, fingerprint: tuple) -> None:
        """Record an instance fingerprint as resident on this shard."""
        with self._lock:
            self._instances.add(fingerprint)

    def unregister(self, fingerprint: tuple) -> None:
        """Forget a resident instance fingerprint (idempotent).  Only
        the catalog entry is dropped — cached circuits and plans age out
        of their LRUs, and on the process backend the content-addressed
        segment registry reclaims the instance's shared-memory columns
        once unpinned (the same stale-on-new-digest path probability
        updates already take)."""
        with self._lock:
            self._instances.discard(fingerprint)

    def submit(
        self, request: QueryRequest, deadline: Deadline | None = None
    ) -> Future:
        """Enqueue one request; the returned future resolves to a
        :class:`~repro.serving.api.QueryResponse` or raises a typed
        error (the engine's own, or
        :class:`~repro.serving.resilience.ShardOverloaded` /
        :class:`~repro.serving.resilience.CircuitBreakerOpen` /
        :class:`~repro.core.deadline.DeadlineExceeded` from the
        resilience layer).  Only submitting against a stopped shard
        raises *here* — an admitted request's outcome always travels
        through its future.

        ``deadline`` lets a caller hand in a pre-built
        :class:`~repro.core.deadline.Deadline` instead of the request's
        relative ``deadline_ms`` — the hedging layer keeps the handle so
        it can :meth:`~repro.core.deadline.Deadline.retire` the losing
        attempt cooperatively.
        """
        if deadline is None:
            deadline = (
                Deadline(request.deadline_ms)
                if request.deadline_ms is not None
                else None
            )
        pending = _Pending(
            request, Future(), time.perf_counter(), deadline=deadline
        )
        rejection: BaseException | None = None
        victim: _Pending | None = None
        with self._lock:
            if self._stopped:
                raise ServiceStopped(
                    f"shard {self.shard_id} is stopped"
                )
            pending.index = self._admitted
            self._admitted += 1
            self._instances.add(pending.key[1])
            if self._breaker is not None and not self._breaker.allow():
                self._resilience.add("breaker_rejected")
                rejection = CircuitBreakerOpen(
                    f"shard {self.shard_id} circuit breaker is "
                    f"{self._breaker.state}"
                )
            else:
                rejection, victim = self._admit(pending)
        if victim is not None:
            self._shed_reject(
                victim,
                f"shard {self.shard_id} shed this request for a "
                f"higher-priority arrival",
            )
        if rejection is not None:
            self._reject(pending, rejection)
            return pending.future
        if victim is None:
            # A victim swap reuses the drain its victim already
            # scheduled; only a plain append needs a new one.
            try:
                self._executor.submit(self._drain)
            except RuntimeError:
                # Closed executor: take the request back out so the queue
                # depth does not report a phantom entry forever.  (If a
                # still-running drain already claimed it, it will be
                # served despite the error.)
                with self._lock:
                    try:
                        self._pending.remove(pending)
                    except ValueError:
                        pass
                raise
        return pending.future

    def _admit(
        self, pending: _Pending
    ) -> tuple[BaseException | None, _Pending | None]:
        """Admission control (caller holds the lock): append the request,
        or shed — the newest strictly-lower-priority queued request if
        one exists (the incoming request takes its place), otherwise the
        incoming request itself.  Sheds on a full queue, and predictively
        when the queued depth times the observed per-request service
        latency already exceeds the incoming deadline."""
        phantom = (
            self._fault_injector.phantom_depth(self.shard_id, pending.index)
            if self._fault_injector is not None
            else 0
        )
        depth = len(self._pending) + phantom
        shed = depth >= self.max_queue_depth
        if (
            not shed
            and pending.deadline is not None
            and self._service_ewma.samples > 0
            and (depth + 1) * self._service_ewma.value()
            > pending.deadline.remaining_ms()
        ):
            shed = True
        if not shed:
            self._pending.append(pending)
            return None, None
        self._resilience.add("shed")
        for queued in reversed(self._pending):
            if queued.request.priority < pending.request.priority:
                self._pending.remove(queued)
                self._pending.append(pending)
                return None, queued
        return (
            ShardOverloaded(
                f"shard {self.shard_id} shed this request (queue depth "
                f"{depth} >= {self.max_queue_depth} or deadline "
                f"unmeetable at the observed service rate)"
            ),
            None,
        )

    def _reject(self, pending: _Pending, error: BaseException) -> None:
        """Resolve a never-served request with a typed error.  The future
        is claimed first so a racing ``cancel()`` cannot leave it in an
        unresolvable state; if the caller cancelled first, there is
        nobody to notify and the rejection is dropped."""
        if pending.future.set_running_or_notify_cancel():
            pending.future.set_exception(error)

    def _shed_reject(self, pending: _Pending, message: str) -> None:
        self._reject(pending, ShardOverloaded(message))

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def healthy(self) -> bool:
        """Whether this shard can be expected to serve right now: not
        stopped and breaker not open.  The process backend additionally
        requires a live (or still-supervisable) worker.  Replica routing
        and hedging consult this to skip dark shards."""
        with self._lock:
            if self._stopped:
                return False
        if self._breaker is not None and self._breaker.state == "open":
            return False
        return True

    def accepting(self) -> bool:
        """Healthy *and* with admission headroom — a shard worth
        hedging onto (a backup fired at a full queue would just be
        shed)."""
        return self.healthy() and self.queue_depth() < self.max_queue_depth

    def route_for(self, request: QueryRequest) -> str:
        """The route this request takes:
        :func:`~repro.pqe.engine.route_of`.  :meth:`_process`
        dispatches on it, and the hedge-delay policy keys its latency
        quantile on it."""
        return route_of(
            request.query, classify_query(request.query), len(request.tid)
        )

    def route_quantile_ms(self, route: str) -> float:
        """The hedge-delay input: ``route``'s latency EWMA mean plus
        :data:`~repro.serving.resilience.HEDGE_QUANTILE_Z` deviations
        (0.0 before any observation)."""
        if route not in self._route_ewma:
            raise ValueError(
                f"unknown route {route!r}; expected one of {ROUTES}"
            )
        return self._route_ewma[route].quantile_ms(HEDGE_QUANTILE_Z)

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down gracefully (idempotent): pending
        drains finish when ``wait`` is true.  For a fast shutdown that
        *resolves* the queue instead of serving it, use :meth:`stop`."""
        self._executor.shutdown(wait=wait)

    def stop(self, wait: bool = True) -> None:
        """Stop serving now (idempotent): still-queued requests are
        resolved with a typed
        :class:`~repro.serving.resilience.ServiceStopped` — never
        abandoned, so no caller blocks forever on a stopped shard — and
        subsequent :meth:`submit` calls raise it directly.  In-flight
        microbatches finish (``wait=True`` joins them)."""
        with self._lock:
            self._stopped = True
            abandoned = list(self._pending)
            self._pending.clear()
        for pending in abandoned:
            self._reject(
                pending, ServiceStopped(f"shard {self.shard_id} stopped")
            )
        self._executor.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        """Serve one microbatch: the queue head plus every pending
        request sharing its work key.  Each ``submit`` schedules one
        drain, and each drain serves at least the head, so every request
        is served by *some* drain even when groups collapse."""
        with self._lock:
            if not self._pending:
                return
            head = self._pending.popleft()
            group = [head]
            kept: deque[_Pending] = deque()
            while self._pending:
                other = self._pending.popleft()
                if other.key == head.key:
                    group.append(other)
                else:
                    kept.append(other)
            self._pending = kept
        # Claim every request before computing: a bare Future stays
        # cancellable until claimed, and resolving a cancelled future
        # raises InvalidStateError — which would poison the rest of the
        # group.  A claimed (RUNNING) future can no longer be cancelled.
        group = [
            pending
            for pending in group
            if pending.future.set_running_or_notify_cancel()
        ]
        if group:
            self._serve(group)

    def _serve(self, group: list[_Pending]) -> None:
        """Serve a claimed group, isolating failures.

        A raising sweep poisons nobody: the unresolved survivors are
        retried member-by-member (each as its own group), so a request
        that fails deterministically fails *alone* with its own error
        while its microbatch peers still get answers.  A lone transient
        failure goes through the jittered-backoff retry policy before
        being failed typed; terminal failures feed the circuit breaker.
        """
        try:
            self._process(group)
        except BaseException as error:  # noqa: BLE001 - futures carry it
            survivors = [p for p in group if not p.future.done()]
            if len(survivors) > 1:
                self._resilience.add("retries", len(survivors))
                for pending in survivors:
                    pending.attempt += 1
                    self._serve([pending])
            elif survivors:
                self._fail_or_retry(survivors[0], error)

    def _fail_or_retry(
        self, pending: _Pending, error: BaseException
    ) -> None:
        """One member failed on its own: back off and retry a transient
        fault while attempts remain, else fail it typed and tell the
        breaker."""
        if (
            isinstance(error, TransientFaultError)
            and pending.attempt + 1 < self._retry.attempts
        ):
            self._resilience.add("retries")
            delay_ms = self._retry.delay_ms(
                pending.index, pending.attempt + 1
            )
            if delay_ms > 0:
                time.sleep(delay_ms / 1e3)
            pending.attempt += 1
            self._serve([pending])
            return
        self._resilience.add("failures")
        if self._breaker is not None:
            self._breaker.record_failure()
        pending.future.set_exception(error)

    def _resolve_deadline(
        self, pending: _Pending, error: DeadlineExceeded | None = None
    ) -> None:
        """Resolve one request as late (typed), counting it: as
        ``hedge_retired`` when a hedge retired it (another attempt
        already answered the caller), else as ``deadline_exceeded`` (the
        caller's own budget ran out).  Neither is shard ill-health, so
        neither feeds the breaker."""
        retired = pending.deadline is not None and pending.deadline.retired
        self._resilience.add(
            "hedge_retired" if retired else "deadline_exceeded"
        )
        if error is None:
            error = DeadlineExceeded(
                f"deadline exceeded before shard {self.shard_id} could "
                f"serve the request"
            )
        if pending.future.done():  # pragma: no cover - defensive
            return
        pending.future.set_exception(error)

    def _drop_expired(self, group: list[_Pending]) -> list[_Pending]:
        """Split out members whose deadline already passed at dequeue,
        resolving each with :class:`DeadlineExceeded`; returns the
        still-live rest.  Later checks run inside the computation, under
        the latest member deadline (:meth:`_serve_route`)."""
        ready = []
        for pending in group:
            if pending.deadline is not None and pending.deadline.expired():
                self._resolve_deadline(pending)
            else:
                ready.append(pending)
        return ready

    def _inject(self, group: list[_Pending]) -> None:
        """Apply the optional fault injector to this serve attempt:
        crash the worker if any member is scheduled to kill it (raising
        :class:`WorkerCrashError` — transient, so the retry lands on the
        respawned worker), sleep the worst injected latency / straggler
        delay of the group, then raise :class:`TransientFaultError` if
        any member is scheduled to fail this attempt (the group-split
        retry in :meth:`_serve` then isolates the doomed member).  The
        injector counts every fault it fires, per member attempt; the
        shard reads those counts back in :meth:`stats`."""
        injector = self._fault_injector
        killers = [
            pending
            for pending in group
            if injector.should_kill(
                self.shard_id, pending.index, pending.attempt
            )
        ]
        if killers:
            # The crash-and-respawn is synchronous: by the time the
            # transient retry re-serves this group, a fresh worker with
            # replayed registrations is in place — so the outcome is a
            # pure function of the seeded schedule on both backends.
            self._crash_worker()
            raise WorkerCrashError(
                f"injected worker crash on shard {self.shard_id} "
                f"(request indices "
                f"{[pending.index for pending in killers]}, attempt "
                f"{killers[0].attempt})"
            )
        delay_ms = max(
            max(
                injector.latency_ms_for(self.shard_id, p.index, p.attempt),
                injector.straggler_ms_for(self.shard_id, p.index, p.attempt),
            )
            for p in group
        )
        if delay_ms > 0:
            time.sleep(delay_ms / 1e3)
        doomed = [
            pending
            for pending in group
            if injector.should_fail(
                self.shard_id, pending.index, pending.attempt
            )
        ]
        if doomed:
            raise TransientFaultError(
                f"injected worker fault on shard {self.shard_id} "
                f"(request indices "
                f"{[pending.index for pending in doomed]}, attempt "
                f"{doomed[0].attempt})"
            )

    def _crash_worker(self) -> None:
        """Crash the compute backend under an injected ``worker_kill``
        fault.  The thread backend has no process to kill — the raised
        :class:`WorkerCrashError` *is* the whole crash — so this base
        hook is a no-op; :class:`~repro.serving.worker.ProcessShard`
        overrides it to SIGKILL its worker and synchronously respawn it
        through the supervisor, keeping both backends' observable
        behavior identical."""

    # ------------------------------------------------------------------
    # Route compute — the backend boundary
    # ------------------------------------------------------------------
    #
    # Everything above `_compute` is policy; `_compute` is the only place
    # a probability is actually computed.  The process backend overrides
    # exactly this hook with an RPC into its worker process; the policy
    # code never notices which backend it is running on.

    def _compute(self, route, query, tids, budget, deadline):
        """Run :func:`compute` against this shard's caches."""
        return compute(
            self.cache, self.plan_cache, route, query, tids, budget, deadline
        )

    def _observe_route(self, route: str, elapsed_ms: float) -> None:
        self._route_ewma[route].observe(elapsed_ms)
        self._service_ewma.observe(elapsed_ms)

    def observe_route_latency(self, route: str, latency_ms: float) -> None:
        """Warm-start one route's latency prediction (benches and tests;
        production traffic feeds the EWMAs itself).  Only the per-route
        predictor is touched — the service-wide EWMA behind predictive
        shedding still learns from real traffic only."""
        if route not in self._route_ewma:
            raise ValueError(
                f"unknown route {route!r}; expected one of {ROUTES}"
            )
        self._route_ewma[route].observe(latency_ms)

    def _process(self, group: list[_Pending]) -> None:
        group = self._drop_expired(group)
        if not group:
            return
        size = len(group)
        # Counters first: a client unblocked by its future may read
        # stats() immediately and must already see itself counted.  The
        # ``counted`` flag keeps retried members from counting twice.
        fresh = sum(1 for pending in group if not pending.counted)
        self._counts.update(
            requests=fresh,
            batches=1,
            microbatched_requests=fresh if size > 1 else 0,
        )
        self._counts.peak("max_batch_size", size)
        for pending in group:
            pending.counted = True
        if self._fault_injector is not None:
            self._inject(group)
        # A group shares its query and instance content, so every member
        # takes the same route.
        route = self.route_for(group[0].request)
        degraded = self._split_degraded(group, route)
        if degraded:
            self._serve_route("sampling", degraded, size, degraded=True)
        rest = [pending for pending in group if pending not in degraded]
        if rest:
            self._serve_route(route, rest, size)

    def _split_degraded(
        self, group: list[_Pending], route: str
    ) -> list[_Pending]:
        """The members to downgrade to the sampling route: deadline'd
        requests whose exact route's latency EWMA predicts a miss, when
        a deadline-derived budget is still affordable.  Members without
        a deadline, routes with no observations yet, and groups already
        bound for sampling are never degraded — prediction from nothing
        would be guessing."""
        ewma = self._route_ewma[route]
        if (
            not self.degrade_to_sampling
            or route == "sampling"
            or ewma.samples == 0
        ):
            return []
        degraded = []
        for pending in group:
            if pending.deadline is None:
                continue
            remaining_ms = pending.deadline.remaining_ms()
            if ewma.value() <= remaining_ms:
                continue
            base = pending.request.budget or self.default_budget
            rate = (
                self._sampling_rate.value()
                if self._sampling_rate.samples > 0
                else 0.0
            )
            override = degraded_budget(base, remaining_ms, rate)
            if override is not None:
                pending.budget_override = override
                degraded.append(pending)
        return degraded

    def _serve_route(
        self,
        route: str,
        group: list[_Pending],
        batch_size: int,
        degraded: bool = False,
    ) -> None:
        """Serve ``group`` on ``route``, sharing identical work.

        Members share instance content by construction, so members with
        equal :meth:`~repro.db.tid.TupleIndependentDatabase.
        probability_digest` share one computation whose answer goes to
        each of them — on the sampling route only when their budgets
        agree too (a degraded member carries its deadline-derived
        ``budget_override``, quantized so near-identical deadlines
        share).  An exact route computes all of the group's distinct
        maps in one call; a sampling sweep adapts to its ``(budget,
        map)``, so each one runs alone.  Because the shared float is
        exactly the float each member would have computed alone, the
        sharing is invisible in the responses.

        Each computation runs under the *latest* member deadline (none
        if any member has none): it is abandoned — every member
        resolved late, typed — only once nobody could use its result.
        """
        query = group[0].request.query
        sampling = route == "sampling"
        shares: dict[tuple, list[_Pending]] = {}
        for pending in group:
            key = (pending.request.tid.probability_digest(),)
            if sampling:
                key += (self._budget_of(pending),)
            shares.setdefault(key, []).append(pending)
        calls = (
            [[share] for share in shares.values()]
            if sampling
            else [list(shares.values())]
        )
        for call in calls:
            members = [pending for share in call for pending in share]
            deadlines = [pending.deadline for pending in members]
            deadline = (
                None
                if any(d is None for d in deadlines)
                else Deadline.latest(deadlines)
            )
            budget = self._budget_of(members[0]) if sampling else None
            started = time.perf_counter()
            try:
                values, engine, hit, compile_ms = self._compute(
                    route,
                    query,
                    [share[0].request.tid for share in call],
                    budget,
                    deadline,
                )
            except DeadlineExceeded as error:
                for pending in members:
                    self._resolve_deadline(pending, error)
                continue
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self._observe_route(route, elapsed_ms)
            extra = {}
            if sampling:
                estimate = values
                self._sampling.update(
                    requests=len(members),
                    sweeps=1,
                    waves=estimate.waves,
                    samples=estimate.samples,
                )
                self._sampling.peak("max_half_width", estimate.half_width)
                if degraded:
                    self._resilience.add("degraded", len(members))
                if estimate.samples and elapsed_ms > 0:
                    self._sampling_rate.observe(estimate.samples / elapsed_ms)
                # The unbiased Karp-Luby estimate W * fraction can land
                # outside [0, 1] when the union-bound weight W exceeds 1;
                # a *served* probability is clamped (never further from
                # the truth, which is a probability).  The half-width is
                # reported unclamped.
                values = [min(1.0, max(0.0, estimate.value))]
                extra = {
                    "half_width": estimate.half_width,
                    "samples": estimate.samples,
                    "waves": estimate.waves,
                    "degraded": degraded,
                }
            elif compile_ms:
                self._counts.add("compile_ms", compile_ms)
            for share, value in zip(call, values):
                for pending in share:
                    self._finish(
                        pending,
                        value,
                        engine,
                        cache_hit=hit,
                        batch_size=batch_size,
                        **extra,
                    )

    def _budget_of(self, pending: _Pending) -> AccuracyBudget:
        return (
            pending.budget_override
            or pending.request.budget
            or self.default_budget
        )

    def _finish(
        self,
        pending: _Pending,
        probability: float,
        engine: str,
        *,
        cache_hit: bool = False,
        batch_size: int = 1,
        half_width: float = 0.0,
        samples: int = 0,
        waves: int = 0,
        degraded: bool = False,
    ) -> None:
        latency_ms = (time.perf_counter() - pending.enqueued) * 1e3
        self._latencies.record(latency_ms)
        self._engines.add(engine)
        if self._breaker is not None:
            self._breaker.record_success()
        pending.future.set_result(
            QueryResponse(
                probability,
                engine,
                self.shard_id,
                cache_hit=cache_hit,
                batch_size=batch_size,
                half_width=half_width,
                samples=samples,
                waves=waves,
                latency_ms=latency_ms,
                degraded=degraded,
            )
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> ShardStats:
        breaker = self._breaker
        injected = (
            self._fault_injector.fired(self.shard_id)
            if self._fault_injector is not None
            else {}
        )
        with self._lock:
            instances = len(self._instances)
            queue_depth = len(self._pending)
        return ShardStats(
            shard=self.shard_id,
            instances=instances,
            queue_depth=queue_depth,
            engines=self._engines.snapshot(),
            cache=self.cache.stats(),
            plans=self.plan_cache.stats(),
            sampling=SamplingStats(**self._sampling.snapshot()),
            p50_ms=self._latencies.percentile(0.50),
            p95_ms=self._latencies.percentile(0.95),
            resilience=ResilienceStats(
                **self._resilience.snapshot(),
                **injected,
                breaker_state=(
                    breaker.state if breaker is not None else "closed"
                ),
                breaker_trips=breaker.trips if breaker is not None else 0,
            ),
            route_ewma_ms={
                route: ewma.value()
                for route, ewma in self._route_ewma.items()
            },
            **self._counts.snapshot(),
        )

    def latency_snapshot(self) -> list[float]:
        """The raw latency window (for service-wide percentiles)."""
        return self._latencies.snapshot()
