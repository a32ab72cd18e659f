"""Tests for the serving resilience layer: deadlines, admission control,
circuit breaking, retries, degradation, and deterministic fault
injection (:mod:`repro.serving.resilience`, :mod:`repro.serving.faults`,
plus the shard/service wiring)."""

from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.db.generator import complete_tid
from repro.pqe.approximate import AccuracyBudget, Z_95, sampling_plan
from repro.pqe.engine import evaluate
from repro.queries.hqueries import HQuery, q9
from repro.serving import ShardedService
from repro.serving.api import QueryRequest
from repro.serving.faults import FaultInjector, TransientFaultError
from repro.serving.resilience import (
    CircuitBreaker,
    LatencyEwma,
    RetryPolicy,
    ServiceStopped,
    ShardOverloaded,
    degraded_budget,
)
from repro.serving.shard import Shard, _Pending
from repro.serving.stats import (
    Counters,
    GatewayStats,
    HedgeStats,
    IdempotencyStats,
    JournalStats,
    ReplicationStats,
    ResilienceStats,
    SamplingStats,
    SupervisorStats,
)

pytestmark = pytest.mark.filterwarnings("error")


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


class FakeClock:
    """A hand-driven monotonic clock for deadline/breaker tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_remaining_and_expiry_follow_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(100.0)
        assert not deadline.expired()
        deadline.check("nowhere")  # no raise
        clock.advance(0.0999)
        assert not deadline.expired()
        clock.advance(0.001)
        assert deadline.expired()
        assert deadline.remaining_ms() < 0

    def test_check_raises_typed_with_context(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded, match="sampling wave"):
            deadline.check("sampling wave")
        # DeadlineExceeded is a TimeoutError: generic timeout handling
        # upstack catches it without knowing this module.
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_latest_picks_the_least_restrictive(self):
        clock = FakeClock()
        short = Deadline(10.0, clock=clock)
        long = Deadline(50.0, clock=clock)
        assert Deadline.latest([short, long]) is long
        assert Deadline.latest([long, short]) is long
        with pytest.raises(ValueError):
            Deadline.latest([])

    @pytest.mark.parametrize(
        "bad", [0, -1, float("nan"), float("inf"), -0.5]
    )
    def test_rejects_non_positive_or_non_finite(self, bad):
        with pytest.raises(ValueError):
            Deadline(bad)

    def test_wave_loop_honors_deadline(self):
        # An already-expired deadline stops the sampler at admission —
        # typed, before drawing anything.
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        clock.advance(1.0)
        plan = sampling_plan(query, tid)
        with pytest.raises(DeadlineExceeded):
            plan.run(AccuracyBudget(), deadline=deadline)

    def test_completed_run_is_untouched_by_its_deadline(self):
        # A run that finishes under a generous deadline is bit-identical
        # to the deadline-free run: checks sit between waves only.
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(
            min_samples=64, max_samples=256, seed=11
        )
        free = sampling_plan(query, tid).run(budget)
        timed = sampling_plan(query, tid).run(
            budget, deadline=Deadline(60_000.0)
        )
        assert timed == free

    def test_engine_evaluate_checks_deadline_at_entry(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        with pytest.raises(DeadlineExceeded):
            evaluate(q9(), tid, deadline=deadline)


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_probes_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_after_ms=100.0,
            half_open_probes=2,
            clock=clock,
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(0.099)
        assert not breaker.allow()
        clock.advance(0.002)
        assert breaker.state == "half_open"
        # Exactly half_open_probes admissions, no more.
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_re_trips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_ms=50.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_ms=0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        policy = RetryPolicy(
            attempts=4, base_delay_ms=2.0, multiplier=3.0,
            max_delay_ms=10.0, jitter=0.5, seed=9,
        )
        for token in (0, 1, 17):
            for attempt in (1, 2, 3):
                first = policy.delay_ms(token, attempt)
                again = policy.delay_ms(token, attempt)
                assert first == again  # pure function of (token, attempt)
                ceiling = min(10.0, 2.0 * 3.0 ** (attempt - 1))
                assert ceiling * 0.5 <= first <= ceiling
        # Distinct tokens jitter independently.
        assert policy.delay_ms(0, 1) != policy.delay_ms(1, 1)

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            attempts=3, base_delay_ms=1.0, multiplier=2.0,
            max_delay_ms=100.0, jitter=0.0,
        )
        assert policy.delay_ms(5, 1) == 1.0
        assert policy.delay_ms(5, 2) == 2.0
        assert policy.delay_ms(5, 3) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_ms(0, 0)


class TestAccuracyBudgetValidation:
    @pytest.mark.parametrize(
        "bad", [0.0, -0.1, 1.0, float("nan"), float("inf")]
    )
    def test_epsilon_rejected(self, bad):
        with pytest.raises(ValueError, match="epsilon"):
            AccuracyBudget(epsilon=bad)

    @pytest.mark.parametrize(
        "bad", [0.0, -0.05, 1.0, 1.5, float("nan")]
    )
    def test_delta_rejected(self, bad):
        with pytest.raises(ValueError, match="delta"):
            AccuracyBudget(delta=bad)

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError, match="min_samples"):
            AccuracyBudget(min_samples=0)
        with pytest.raises(ValueError, match="min_samples"):
            AccuracyBudget(min_samples=-5)
        with pytest.raises(ValueError, match="max_samples"):
            AccuracyBudget(min_samples=10, max_samples=9)

    def test_default_delta_reproduces_z95_exactly(self):
        assert AccuracyBudget().z() == Z_95
        # Tighter confidence buys more samples; the quantile matches the
        # textbook value.
        assert AccuracyBudget(delta=0.01).z() == pytest.approx(
            2.5758293, abs=1e-6
        )
        assert (
            AccuracyBudget(delta=0.01, max_samples=10**9).samples()
            > AccuracyBudget(max_samples=10**9).samples()
        )


class TestLatencyEwma:
    def test_first_observation_seeds_then_smooths(self):
        ewma = LatencyEwma(alpha=0.5)
        assert ewma.value() == 0.0
        assert ewma.samples == 0
        ewma.observe(10.0)
        assert ewma.value() == 10.0
        ewma.observe(20.0)
        assert ewma.value() == 15.0
        assert ewma.samples == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyEwma(alpha=0.0)
        with pytest.raises(ValueError):
            LatencyEwma(alpha=1.5)


class TestDegradedBudget:
    def test_cap_is_power_of_two_within_affordable(self):
        base = AccuracyBudget(seed=5)
        budget = degraded_budget(base, 100.0, samples_per_ms=100.0)
        assert budget is not None
        assert budget.max_samples == 8192  # floor pow2 of 10_000
        assert budget.max_samples & (budget.max_samples - 1) == 0
        assert budget.interval == "wilson"
        assert budget.seed == base.seed
        assert budget.min_samples <= budget.max_samples

    def test_quantization_absorbs_clock_jitter(self):
        # Remaining deadlines within one power-of-two band produce the
        # *same* budget — the determinism the degraded_identical bench
        # flag rests on.
        base = AccuracyBudget(seed=5)
        a = degraded_budget(base, 100.0, samples_per_ms=100.0)
        b = degraded_budget(base, 141.0, samples_per_ms=100.0)
        assert a == b

    def test_unaffordable_returns_none(self):
        base = AccuracyBudget()
        assert degraded_budget(base, 0.0) is None
        assert degraded_budget(base, -5.0) is None
        assert degraded_budget(base, 0.05, samples_per_ms=100.0) is None

    def test_never_exceeds_base_cap(self):
        base = AccuracyBudget(max_samples=1000)
        budget = degraded_budget(base, 10_000.0, samples_per_ms=100.0)
        assert budget.max_samples == 512  # floor pow2 of min(1000, 1e6)


class TestFaultInjector:
    def test_schedule_is_replayable(self):
        kwargs = dict(
            error_rate=0.25,
            latency_rate=0.5,
            latency_ms=3.0,
            pressure_rate=0.125,
            pressure_depth=4,
        )
        a = FaultInjector(seed=42, **kwargs)
        b = FaultInjector(seed=42, **kwargs)
        schedule_a = [
            (
                a.should_fail(s, i),
                a.latency_ms_for(s, i),
                a.phantom_depth(s, i),
            )
            for s in range(2)
            for i in range(64)
        ]
        schedule_b = [
            (
                b.should_fail(s, i),
                b.latency_ms_for(s, i),
                b.phantom_depth(s, i),
            )
            for s in range(2)
            for i in range(64)
        ]
        assert schedule_a == schedule_b
        assert any(hit for hit, _, _ in schedule_a)
        assert FaultInjector(seed=43, error_rate=0.25) is not None

    def test_attempts_re_roll_independently(self):
        injector = FaultInjector(seed=7, error_rate=0.5)
        rolls = {
            attempt: injector.should_fail(0, 3, attempt)
            for attempt in range(8)
        }
        assert len(set(rolls.values())) == 2  # not all equal at rate 1/2

    def test_broken_requests_fail_every_attempt(self):
        injector = FaultInjector(seed=0, broken_requests={(1, 5)})
        assert all(injector.should_fail(1, 5, attempt=a) for a in range(4))
        assert not injector.should_fail(0, 5)
        assert not injector.should_fail(1, 4)

    def test_zero_rates_never_fire_and_stats_count(self):
        injector = FaultInjector(seed=1)
        assert not injector.should_fail(0, 0)
        assert injector.latency_ms_for(0, 0) == 0.0
        assert injector.phantom_depth(0, 0) == 0
        assert not injector.should_kill(0, 0)
        assert injector.straggler_ms_for(0, 0) == 0.0
        assert not injector.should_drop_conn(0, 0)
        assert not injector.should_split_write(0, 0)
        assert injector.slow_client_ms_for(0, 0) == 0.0
        assert injector.stats() == {
            "errors": 0,
            "latency_events": 0,
            "pressure_events": 0,
            "kills": 0,
            "straggler_events": 0,
            "conn_drops": 0,
            "partial_writes": 0,
            "slow_client_events": 0,
        }

    def test_fired_counts_per_shard(self):
        injector = FaultInjector(
            seed=0, latency_rate=1, latency_ms=1.0, broken_requests={(1, 0)}
        )
        for shard, index in ((0, 0), (0, 1), (1, 0)):
            assert injector.latency_ms_for(shard, index) == 1.0
        assert injector.should_fail(1, 0)
        assert injector.fired(0) == {
            "injected_errors": 0,
            "injected_latency_events": 2,
            "injected_kills": 0,
            "injected_stragglers": 0,
        }
        assert injector.fired(1)["injected_errors"] == 1
        assert injector.fired(2) == dict.fromkeys(injector.fired(0), 0)
        assert injector.stats()["latency_events"] == 3
        assert injector.stats()["errors"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(latency_rate=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(latency_ms=-1.0)
        with pytest.raises(ValueError):
            FaultInjector(pressure_depth=-1)


class TestRequestValidation:
    def test_deadline_ms_must_be_positive_finite_or_none(self):
        tid = complete_tid(3, 2, 2)
        QueryRequest(q9(), tid)  # None is fine
        QueryRequest(q9(), tid, deadline_ms=25.0)
        for bad in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline_ms"):
                QueryRequest(q9(), tid, deadline_ms=bad)

    def test_priority_must_be_int(self):
        tid = complete_tid(3, 2, 2)
        with pytest.raises(ValueError, match="priority"):
            QueryRequest(q9(), tid, priority=1.5)


class TestAdmissionControl:
    def _slow_shard(self, **kwargs) -> Shard:
        # One worker, every serve attempt slowed 300 ms: the queue
        # backs up deterministically while the worker sleeps.
        return Shard(
            0,
            workers=1,
            fault_injector=FaultInjector(
                seed=0, latency_rate=1, latency_ms=300.0
            ),
            **kwargs,
        )

    def _occupy_worker(self, shard: Shard, tid) -> Future:
        future = shard.submit(QueryRequest(q9(), tid))
        for _ in range(200):
            if shard.queue_depth() == 0:
                break
            time.sleep(0.005)
        else:  # pragma: no cover - diagnostic
            raise AssertionError("drain never claimed the first request")
        return future

    def test_full_queue_sheds_the_newcomer_typed(self):
        shard = self._slow_shard(max_queue_depth=1)
        tids = [
            complete_tid(3, 2 + i, 2, prob=Fraction(1, 2))
            for i in range(3)
        ]
        first = self._occupy_worker(shard, tids[0])
        second = shard.submit(QueryRequest(q9(), tids[1]))
        third = shard.submit(QueryRequest(q9(), tids[2]))
        with pytest.raises(ShardOverloaded):
            third.result(timeout=10)
        # The two admitted requests are both served normally.
        assert first.result(timeout=10).engine == "extensional"
        assert second.result(timeout=10).engine == "extensional"
        stats = shard.stats()
        assert stats.resilience.shed == 1
        shard.close()

    def test_priority_evicts_newest_lower_priority_victim(self):
        shard = self._slow_shard(max_queue_depth=1)
        tids = [
            complete_tid(3, 2 + i, 2, prob=Fraction(1, 2))
            for i in range(3)
        ]
        self._occupy_worker(shard, tids[0])
        victim = shard.submit(QueryRequest(q9(), tids[1], priority=0))
        vip = shard.submit(QueryRequest(q9(), tids[2], priority=5))
        with pytest.raises(ShardOverloaded):
            victim.result(timeout=10)
        response = vip.result(timeout=10)
        assert response.engine == "extensional"
        assert shard.stats().resilience.shed == 1
        shard.close()

    def test_expired_deadline_resolves_typed_at_dequeue(self):
        shard = self._slow_shard()
        busy = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        late = complete_tid(3, 3, 2, prob=Fraction(1, 2))
        self._occupy_worker(shard, busy)
        # Queued behind a 300 ms sleep with a 30 ms deadline: expired by
        # dequeue, resolved typed without being served.
        future = shard.submit(
            QueryRequest(q9(), late, deadline_ms=30.0)
        )
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=10)
        stats = shard.stats()
        assert stats.resilience.deadline_exceeded == 1
        assert stats.engines.get("extensional", 0) <= 1  # late one unserved
        shard.close()


class TestStop:
    def test_stop_resolves_queued_futures_typed(self):
        shard = Shard(
            0,
            workers=1,
            fault_injector=FaultInjector(
                seed=0, latency_rate=1, latency_ms=300.0
            ),
        )
        tids = [
            complete_tid(3, 2 + i, 2, prob=Fraction(1, 2))
            for i in range(4)
        ]
        in_flight = shard.submit(QueryRequest(q9(), tids[0]))
        for _ in range(200):
            if shard.queue_depth() == 0:
                break
            time.sleep(0.005)
        queued = [
            shard.submit(QueryRequest(q9(), tid)) for tid in tids[1:]
        ]
        shard.stop(wait=True)
        # The in-flight microbatch finishes; the queued rest resolve
        # typed — nobody blocks forever on a stopped shard.
        assert in_flight.result(timeout=10).engine == "extensional"
        for future in queued:
            with pytest.raises(ServiceStopped):
                future.result(timeout=10)

    def test_submit_after_stop_raises_service_stopped(self):
        shard = Shard(0, workers=1)
        shard.stop()
        tid = complete_tid(3, 2, 2)
        with pytest.raises(ServiceStopped):
            shard.submit(QueryRequest(q9(), tid))
        # ServiceStopped subclasses RuntimeError: pre-resilience callers
        # that caught the executor's bare RuntimeError keep working.
        assert issubclass(ServiceStopped, RuntimeError)
        shard.stop()  # idempotent

    def test_submit_after_close_raises_service_stopped(self):
        # A closed shard rejects typed, as a stopped one does, instead
        # of leaking the executor's bare "cannot schedule" RuntimeError;
        # replicated routing, which catches only ServiceStopped, relies
        # on it.
        tid = complete_tid(3, 2, 2)
        shard = Shard(0, workers=1)
        shard.close()
        with pytest.raises(ServiceStopped):
            shard.submit(QueryRequest(q9(), tid))
        assert shard.queue_depth() == 0
        for replicas in (1, 2):
            service = ShardedService(shards=2)
            service.register(tid, replicas=replicas)
            service.submit(q9(), tid).result(timeout=30)
            service.close()
            with pytest.raises(ServiceStopped):
                service.submit(q9(), tid)

    def test_service_stop_covers_every_shard(self):
        service = ShardedService(shards=2, workers_per_shard=1)
        tid = complete_tid(3, 2, 2)
        service.stop()
        with pytest.raises(ServiceStopped):
            service.submit(q9(), tid)

    def test_empty_submit_batch(self):
        with ShardedService(shards=2) as service:
            assert service.submit_batch(q9(), []) == []


class TestMicrobatchIsolation:
    def test_broken_member_fails_alone(self):
        # A fused group with one permanently-broken member: the sweep
        # raises, the group is retried member-by-member, and only the
        # broken request fails — typed — while its peers get answers.
        injector = FaultInjector(seed=0, broken_requests={(0, 1)})
        shard = Shard(
            0,
            workers=1,
            fault_injector=injector,
            retry=RetryPolicy(attempts=2, base_delay_ms=0.1),
        )
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        group = [
            _Pending(QueryRequest(q9(), tid), Future(), time.perf_counter())
            for _ in range(3)
        ]
        for index, pending in enumerate(group):
            pending.index = index
        shard._serve(group)
        expected = float(
            evaluate(q9(), tid, method="extensional").probability
        )
        assert group[0].future.result(timeout=0).probability == expected
        assert group[2].future.result(timeout=0).probability == expected
        with pytest.raises(TransientFaultError):
            group[1].future.result(timeout=0)
        stats = shard.stats()
        assert stats.resilience.retries >= 3  # group split + solo retry
        assert stats.resilience.failures == 1
        assert stats.requests == 3  # counted once despite retries
        shard.close()

    def test_transient_single_fault_is_retried_to_success(self):
        # Request index 0 fails on attempt 0 only (broken set is empty;
        # error_rate targets attempt draws) — the retry policy recovers
        # it and the caller sees a normal response.
        class OneShotInjector(FaultInjector):
            def should_fail(self, shard, index, attempt=0):
                return attempt == 0

        shard = Shard(
            0,
            workers=1,
            fault_injector=OneShotInjector(seed=0),
            retry=RetryPolicy(attempts=2, base_delay_ms=0.1),
        )
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        future = shard.submit(QueryRequest(q9(), tid))
        assert future.result(timeout=10).engine == "extensional"
        stats = shard.stats()
        assert stats.resilience.retries == 1
        assert stats.resilience.failures == 0
        shard.close()


class TestDegradation:
    def _degraded_response(self, seed: int):
        shard = Shard(0, workers=1)
        # Teach the shard that brute force is hopeless (10 s per
        # request); a 5 s deadline then can't be met exactly and the
        # request downgrades to sampling.
        shard.observe_route_latency("brute_force", 10_000.0)
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 3))  # small => brute
        future = shard.submit(
            QueryRequest(
                query,
                tid,
                budget=AccuracyBudget(seed=seed),
                deadline_ms=5_000.0,
            )
        )
        response = future.result(timeout=30)
        stats = shard.stats()
        shard.close()
        return response, stats

    def test_predicted_miss_downgrades_to_sampling(self):
        response, stats = self._degraded_response(seed=7)
        assert response.degraded
        assert response.engine == "karp_luby"
        assert response.half_width > 0.0  # Wilson: never degenerate
        assert response.samples > 0
        assert stats.resilience.degraded == 1
        assert stats.engines.get("brute_force", 0) == 0

    def test_degraded_answers_are_deterministic(self):
        # Same seed + same (quantized) budget => bit-identical degraded
        # answers across independent shards and runs.
        first, _ = self._degraded_response(seed=7)
        second, _ = self._degraded_response(seed=7)
        assert first.probability == second.probability
        assert first.half_width == second.half_width
        assert first.samples == second.samples

    def test_no_deadline_never_degrades(self):
        shard = Shard(0, workers=1)
        shard.observe_route_latency("brute_force", 10_000.0)
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 3))
        response = shard.submit(QueryRequest(query, tid)).result(timeout=30)
        assert not response.degraded
        assert response.engine == "brute_force"
        shard.close()

    def test_degradation_can_be_disabled(self):
        shard = Shard(0, workers=1, degrade_to_sampling=False)
        shard.observe_route_latency("brute_force", 10_000.0)
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 3))
        response = shard.submit(
            QueryRequest(query, tid, deadline_ms=5_000.0)
        ).result(timeout=30)
        assert not response.degraded
        assert response.engine == "brute_force"
        shard.close()


class TestResilienceStats:
    def test_merged_sums_and_takes_worst_breaker(self):
        a = ResilienceStats(shed=1, retries=2, breaker_state="closed")
        b = ResilienceStats(shed=3, failures=1, breaker_state="open")
        merged = a.merged(b)
        assert merged.shed == 4
        assert merged.retries == 2
        assert merged.failures == 1
        assert merged.breaker_state == "open"

    def test_service_stats_expose_resilience(self):
        with ShardedService(shards=2) as service:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            service.submit(q9(), tid).result(timeout=10)
            stats = service.stats()
            assert stats.resilience.shed == 0
            assert stats.resilience.breaker_state == "closed"
            shard = stats.shards[service.shard_of(tid)]
            assert shard.route_ewma_ms["extensional"] > 0.0

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_shard_counts_each_injected_latency_event(self, backend):
        # Eight requests, every attempt delayed: the shard sleeps once
        # per microbatch, but reports one injected latency event per
        # delayed request attempt — the injector's own count.
        injector = FaultInjector(seed=3, latency_rate=1, latency_ms=20.0)
        service = ShardedService(
            shards=1,
            workers_per_shard=1,
            fault_injector=injector,
            backend=backend,
        )
        try:
            tid = complete_tid(3, 2, 2)
            futures = [service.submit(q9(), tid) for _ in range(8)]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
        finally:
            service.stop(wait=True)
        assert stats.batches < stats.requests
        assert (
            stats.resilience.injected_latency_events
            == injector.stats()["latency_events"]
            == 8
        )


#: One non-default instance of every serving snapshot type.
SNAPSHOTS = [
    SamplingStats(
        requests=5, sweeps=2, waves=7, samples=4096, max_half_width=0.015
    ),
    ResilienceStats(
        shed=1,
        deadline_exceeded=2,
        degraded=3,
        retries=4,
        failures=5,
        breaker_state="half_open",
        breaker_rejected=6,
        breaker_trips=7,
        injected_errors=8,
        injected_latency_events=9,
        injected_kills=10,
        injected_stragglers=11,
    ),
    SupervisorStats(
        restarts=2,
        replayed_instances=3,
        respawn_ms=12.5,
        worker_alive=False,
        gave_up=True,
    ),
    ReplicationStats(
        replicated_instances=1, replicas_placed=2, spread=3, failovers=4
    ),
    HedgeStats(
        launched=5,
        primary_wins=2,
        backup_wins=3,
        cancelled=4,
        failed_backups=1,
    ),
    IdempotencyStats(hits=1, joins=2, entries=3, evictions=4),
    JournalStats(
        appended=5,
        replayed=4,
        live=3,
        dead=2,
        compactions=1,
        torn_records=1,
        torn_bytes=17,
    ),
    GatewayStats(
        connections=9,
        active_connections=2,
        rejected_connections=1,
        idle_timeouts=3,
        line_too_long=1,
        requests=40,
        draining_rejections=2,
        overloaded_rejections=4,
        quota_rejections=5,
        replayed_instances=6,
        journal=JournalStats(appended=3, live=2, dead=1, torn_bytes=9),
        idempotency=IdempotencyStats(hits=4, joins=1, entries=2),
        injected_conn_drops=1,
        injected_partial_writes=2,
        injected_slow_client_events=3,
    ),
]


class TestSnapshotProtocol:
    @pytest.mark.parametrize(
        "snapshot", SNAPSHOTS, ids=lambda snapshot: type(snapshot).__name__
    )
    def test_payload_round_trips_through_json(self, snapshot):
        for f in fields(snapshot):
            default = (
                f.default if f.default is not MISSING else f.default_factory()
            )
            assert getattr(snapshot, f.name) != default, f.name
        payload = snapshot.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert type(snapshot).from_payload(payload) == snapshot

    def test_merge_rules(self):
        # Sums by default; the half-width takes the worst (max), worker
        # liveness needs every worker (all), giving up is sticky (any).
        a = SamplingStats(requests=1, samples=10, max_half_width=0.02)
        b = SamplingStats(requests=2, samples=5, max_half_width=0.01)
        assert a.merged(b) == SamplingStats(
            requests=3, samples=15, max_half_width=0.02
        )
        alive = SupervisorStats(restarts=1, respawn_ms=2.0)
        dark = SupervisorStats(restarts=2, worker_alive=False, gave_up=True)
        assert alive.merged(dark) == SupervisorStats(
            restarts=3, respawn_ms=2.0, worker_alive=False, gave_up=True
        )
        assert alive.merged(alive) == SupervisorStats(
            restarts=2, respawn_ms=4.0
        )

    def test_counters_add_update_peak_snapshot(self):
        counts = Counters(requests=0)
        counts.add("requests")
        counts.update(requests=2, batches=1)
        counts.add(("errors", 3), 2)
        counts.peak("max_batch_size", 4)
        counts.peak("max_batch_size", 2)
        assert counts.snapshot() == {
            "requests": 3,
            "batches": 1,
            ("errors", 3): 2,
            "max_batch_size": 4,
        }

        # More threads than cores and a short switch interval: a lost
        # read-modify-write update would show as a short total.
        def hammer():
            for _ in range(2000):
                counts.add("requests")
                counts.update(batches=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        snapshot = counts.snapshot()
        assert snapshot["requests"] == 3 + 8 * 2000
        assert snapshot["batches"] == 1 + 8 * 2000
