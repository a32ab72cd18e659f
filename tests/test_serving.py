"""Tests for the sharded concurrent serving layer (:mod:`repro.serving`)."""

from __future__ import annotations

import dataclasses
import json
import random
import threading
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.dichotomy import classify_query
from repro.pqe.engine import (
    BRUTE_FORCE_LIMIT,
    CompilationCache,
    evaluate,
    evaluate_batch,
    route_of,
)
from repro.queries.cq import Atom, ConjunctiveQuery
from repro.queries.hqueries import HQuery, q9
from repro.queries.ucq import UnionOfCQs
from repro.serving import AccuracyBudget, ShardedService
from repro.serving.api import QueryRequest, QueryResponse

pytestmark = pytest.mark.filterwarnings("error")


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def hard_non_monotone(k: int = 3) -> HQuery:
    """A non-monotone query outside d-D(PTIME) (``e(phi) != 0``)."""
    rng = random.Random(0xA11CE)
    while True:
        phi = BooleanFunction.random(k + 1, rng)
        if phi.euler_characteristic() != 0 and not phi.is_monotone():
            return HQuery(k, phi)


def distinct_tids(count: int, prob=Fraction(1, 2)):
    """TIDs over pairwise-distinct instance contents (distinct sizes)."""
    return [
        complete_tid(3, 2 + i, 2, prob=prob) for i in range(count)
    ]


def tids_covering_all_shards(service: ShardedService, prob=Fraction(1, 2)):
    """Distinct-content TIDs such that every shard owns at least one."""
    tids, covered, size = [], set(), 0
    while len(covered) < service.num_shards:
        size += 1
        if size > 64:
            raise AssertionError("shard digest failed to spread instances")
        tid = complete_tid(3, 1 + size, 2, prob=prob)
        index = service.shard_of(tid)
        if index not in covered:
            covered.add(index)
            tids.append(tid)
    return tids


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        with ShardedService(shards=4) as service:
            tid = complete_tid(3, 2, 2)
            first = service.shard_of(tid)
            assert 0 <= first < 4
            assert service.shard_of(tid) == first
            assert service.shard_of(tid.instance) == first

    def test_identical_content_routes_identically(self):
        # Two separately-built instances with the same facts share the
        # shard: routing depends on content, not object identity (and,
        # via Instance.shard_key, not on the process hash seed either).
        with ShardedService(shards=8) as service:
            a = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            b = complete_tid(3, 2, 2, prob=Fraction(1, 3))
            assert a.instance.shard_key() == b.instance.shard_key()
            assert service.shard_of(a) == service.shard_of(b)

    def test_register_pins_instance_and_reports_shard(self):
        with ShardedService(shards=4) as service:
            tid = complete_tid(3, 2, 2)
            index = service.register(tid)
            assert index == service.shard_of(tid)
            assert service.stats().shards[index].instances == 1

    def test_unregister_releases_every_ring_placement(self):
        # The gateway's replace-on-re-register path: unregistering
        # drops the placement entry and the fingerprint on every ring
        # shard, is idempotent, and does not break serving the same
        # content again later (it re-registers implicitly on submit).
        with ShardedService(shards=4) as service:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            service.register(tid, replicas=2)
            assert (
                sum(s.instances for s in service.stats().shards) == 2
            )
            service.unregister(tid)
            assert (
                sum(s.instances for s in service.stats().shards) == 0
            )
            service.unregister(tid)  # idempotent
            reference = evaluate_batch(q9(), [tid])
            response = service.submit(q9(), tid).result()
            assert response.probability == reference.probabilities[0]


class TestServingParity:
    def test_single_submit_matches_evaluate_batch(self):
        with ShardedService(shards=2) as service:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            response = service.submit(q9(), tid).result()
            reference = evaluate_batch(q9(), [tid])
            assert response.probability == reference.probabilities[0]
            assert response.engine == "extensional"
            assert response.shard == service.shard_of(tid)
            assert response.latency_ms >= 0.0

    def test_256_same_instance_requests_bit_for_float(self):
        # The acceptance workload: >= 4 shards, >= 256 same-instance
        # requests, probabilities identical to single-threaded
        # evaluate_batch, and cache hits showing up on the owning shard.
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        requests = [tid] * 256
        reference = evaluate_batch(q9(), requests)
        with ShardedService(shards=4, workers_per_shard=2) as service:
            first = service.submit_batch(q9(), requests)
            second = service.submit_batch(q9(), requests)
            stats = service.stats()
        for responses in (first, second):
            assert [r.probability for r in responses] == (
                reference.probabilities
            )
        owner = stats.shards[
            [s.requests for s in stats.shards].index(512)
        ]
        # Safe monotone queries are served extensionally: the owning
        # shard builds the lifted plan exactly once and never compiles.
        assert owner.plans.misses == 1
        assert owner.plans.hits >= 1
        assert owner.plan_hit_rate > 0.5
        assert owner.cache.misses == 0
        assert stats.requests == 512
        assert stats.engines == {"extensional": 512}

    def test_multi_shard_sweep_matches_and_all_shards_hit(self):
        with ShardedService(shards=4, workers_per_shard=1) as service:
            tids = tids_covering_all_shards(service)
            requests = [tid for tid in tids for _ in range(16)]
            reference = evaluate_batch(q9(), requests)
            first = service.submit_batch(q9(), requests)
            second = service.submit_batch(q9(), requests)
            stats = service.stats()
        assert [r.probability for r in first] == reference.probabilities
        assert [r.probability for r in second] == reference.probabilities
        for shard in stats.shards:
            assert shard.requests >= 32
            # Extensional route: one plan build per shard, then hits —
            # and no compilation anywhere.
            assert shard.plans.misses == 1
            assert shard.plans.hits >= 1
            assert shard.compile_ms == 0.0
            assert shard.p95_ms >= shard.p50_ms >= 0.0

    def test_microbatching_groups_same_work_requests(self):
        # One worker per shard: while the first drain compiles, the rest
        # of the wave queues up and later drains serve whole groups.
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        with ShardedService(shards=1, workers_per_shard=1) as service:
            futures = [service.submit(q9(), tid) for _ in range(128)]
            responses = [future.result() for future in futures]
            stats = service.stats()
        shard = stats.shards[0]
        assert shard.requests == 128
        assert shard.batches < 128  # at least one group formed
        assert shard.max_batch_size > 1
        assert shard.microbatched_requests > 0
        assert {r.probability for r in responses} == {
            responses[0].probability
        }
        assert max(r.batch_size for r in responses) == shard.max_batch_size

    def test_cancelled_future_does_not_poison_its_microbatch(self):
        # A client cancelling one queued request must not corrupt the
        # answers of the other requests microbatched with it: drains
        # claim futures before computing, so set_result never races a
        # cancel into InvalidStateError.
        from concurrent.futures import CancelledError

        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        reference = evaluate_batch(q9(), [tid]).probabilities[0]
        with ShardedService(shards=1, workers_per_shard=1) as service:
            futures = [service.submit(q9(), tid) for _ in range(64)]
            cancelled = [
                future for future in futures[1:] if future.cancel()
            ]
            for future in futures:
                if future in cancelled:
                    with pytest.raises(CancelledError):
                        future.result(timeout=60)
                else:
                    assert future.result(timeout=60).probability == (
                        reference
                    )
            # Cancelled entries leave the queue when their scheduled
            # drain claims them; with the fast extensional route that
            # can lag the last served result, so wait for quiescence.
            import time

            deadline = time.monotonic() + 30
            while (
                service.stats().queue_depth > 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            stats = service.stats()
        # Cancelled requests were dropped at claim time, never served.
        assert stats.requests == 64 - len(cancelled)
        assert stats.queue_depth == 0

    def test_responses_keep_input_order(self):
        with ShardedService(shards=4) as service:
            tids = distinct_tids(5)
            requests = [tids[i % len(tids)] for i in range(40)]
            responses = service.submit_batch(q9(), requests)
            reference = evaluate_batch(q9(), requests)
        assert [r.probability for r in responses] == reference.probabilities


def nonmonotone_dd_query(k: int = 3) -> HQuery:
    """A zero-Euler but non-monotone query: d-D(PTIME), yet outside the
    extensional engine's reach — the compiled route's territory."""
    rng = random.Random(0xD1CE)
    while True:
        phi = BooleanFunction.random(k + 1, rng)
        if phi.euler_characteristic() == 0 and not phi.is_monotone():
            return HQuery(k, phi)


class TestEngineRouting:
    def test_safe_monotone_routes_extensionally_without_compiling(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        with ShardedService(shards=2) as service:
            response = service.submit(q9(), tid).result()
            stats = service.stats()
        assert response.engine == "extensional"
        exact = evaluate(q9(), tid, method="extensional")
        assert response.probability == pytest.approx(
            float(exact.probability), abs=1e-12
        )
        assert all(s.cache.misses == 0 for s in stats.shards)
        assert sum(s.plans.misses for s in stats.shards) == 1

    def test_non_monotone_dd_still_compiles_and_microbatches(self):
        query = nonmonotone_dd_query()
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        requests = [tid] * 64
        reference = evaluate_batch(query, requests)
        with ShardedService(shards=2, workers_per_shard=1) as service:
            responses = service.submit_batch(query, requests)
            stats = service.stats()
        assert [r.probability for r in responses] == reference.probabilities
        assert stats.engines == {"intensional": 64}
        assert sum(s.cache.misses for s in stats.shards) == 1
        assert sum(s.plans.misses for s in stats.shards) == 0

    def test_extensional_microbatch_bit_for_float_vs_direct(self):
        # Distinct probability maps over one instance, interleaved:
        # microbatched extensional answers must equal the direct
        # evaluate_batch floats, float for float.
        rng = random.Random(17)
        tids = []
        for _ in range(24):
            tid = complete_tid(3, 3, 2, prob=Fraction(1, 2))
            for t in tid.instance.tuple_ids():
                tid.set_probability(t, Fraction(rng.randrange(0, 9), 8))
            tids.append(tid)
        reference = evaluate_batch(q9(), tids)
        assert reference.engine == "extensional"
        with ShardedService(shards=2, workers_per_shard=2) as service:
            responses = service.submit_batch(q9(), tids)
        assert [r.probability for r in responses] == reference.probabilities


def safe_ucq_workload():
    """The safe non-h UCQ ``R(x),S(x,y) ∨ T(z)`` over a small TID."""
    query = UnionOfCQs((
        ConjunctiveQuery((Atom("R", ("x",)), Atom("S", ("x", "y")))),
        ConjunctiveQuery((Atom("T", ("z",)),)),
    ))
    instance = Instance()
    tid = TupleIndependentDatabase(instance)
    facts = [
        ("R", (0,)), ("R", (1,)), ("S", (0, 1)), ("S", (1, 1)), ("T", (2,))
    ]
    for i, (relation, values) in enumerate(facts):
        tid.set_probability(instance.add(relation, values), Fraction(i + 1, 7))
    return query, tid


class TestRouteTable:
    """One routing rule: for one query per Figure-1 row, ``route_of``,
    the shard's ``route_for`` (which keys the degradation EWMA),
    auto-mode ``evaluate`` and the served response all name the same
    route."""

    @staticmethod
    def rows():
        hard = hard_full_disjunction(3)
        small = complete_tid(3, 1, 1, prob=Fraction(1, 3))
        large = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        assert len(small) <= BRUTE_FORCE_LIMIT < len(large)
        return [
            (q9(), complete_tid(3, 2, 2, prob=Fraction(1, 3)), "extensional"),
            (*safe_ucq_workload(), "lifted"),
            (
                nonmonotone_dd_query(),
                complete_tid(3, 2, 2, prob=Fraction(1, 2)),
                "intensional",
            ),
            (hard, small, "brute_force"),
            (hard, large, "sampling"),
        ]

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_every_figure1_row_names_one_route(self, backend):
        budget = AccuracyBudget(epsilon=0.2, seed=7)
        with ShardedService(shards=1, backend=backend) as service:
            shard = service._shards[0]
            for query, tid, route in self.rows():
                engines = (
                    {"karp_luby", "monte_carlo"}
                    if route == "sampling"
                    else {route}
                )
                classification = classify_query(query)
                assert route_of(query, classification, len(tid)) == route
                request = QueryRequest(query, tid, budget)
                assert shard.route_for(request) == route
                assert evaluate(query, tid, budget=budget).engine in engines
                served = service.submit(query, tid, budget).result()
                assert served.engine in engines


class TestHardRoutes:
    def test_small_hard_instance_routes_to_brute_force(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 3))
        assert len(tid) <= BRUTE_FORCE_LIMIT
        with ShardedService(shards=2) as service:
            response = service.submit(query, tid).result()
        assert response.engine == "brute_force"
        assert response.probability == float(
            probability_by_world_enumeration(query, tid)
        )
        assert response.half_width == 0.0

    def test_large_hard_ucq_routes_to_karp_luby(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        assert len(tid) > BRUTE_FORCE_LIMIT
        budget = AccuracyBudget(epsilon=0.1, seed=11)
        with ShardedService(shards=2) as service:
            response = service.submit(query, tid, budget).result()
            replay = service.submit(query, tid, budget).result()
        assert response.engine == "karp_luby"
        # The budget-adaptive sampler never draws beyond the fixed-count
        # worst case, and reports how many waves it took.
        assert 0 < response.samples <= budget.samples()
        assert response.waves >= 1
        assert response.half_width > 0.0
        assert 0.0 <= response.probability <= 1.0
        # Same seed, same sample path: shard answers are reproducible.
        assert replay.probability == response.probability
        assert replay.half_width == response.half_width
        assert replay.samples == response.samples

    def test_large_hard_non_monotone_routes_to_monte_carlo(self):
        query = hard_non_monotone(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        assert len(tid) > BRUTE_FORCE_LIMIT
        with ShardedService(shards=2) as service:
            response = service.submit(query, tid).result()
        assert response.engine == "monte_carlo"
        assert 0.0 <= response.probability <= 1.0
        assert response.samples > 0

    def test_default_budget_applies_when_request_has_none(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(
            epsilon=0.2, min_samples=10, max_samples=77, seed=3
        )
        with ShardedService(shards=1, default_budget=budget) as service:
            response = service.submit(query, tid).result()
        assert 0 < response.samples <= budget.samples() <= 77


class TestSamplingRoute:
    """The grouped vectorized sampling sweeps and their observability."""

    def test_microbatched_hard_requests_share_one_sweep(self):
        import time
        from concurrent.futures import Future

        from repro.serving.api import QueryRequest
        from repro.serving.shard import Shard, _Pending

        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(epsilon=0.1, seed=21)
        shard = Shard(0)
        try:
            group = [
                _Pending(
                    QueryRequest(query, tid, budget),
                    Future(),
                    time.perf_counter(),
                )
                for _ in range(5)
            ]
            for pending in group:
                pending.future.set_running_or_notify_cancel()
            shard._process(group)
            responses = [pending.future.result() for pending in group]
        finally:
            shard.close()
        # One shared sweep served all five same-budget same-map requests.
        stats = shard.stats()
        assert stats.sampling.requests == 5
        assert stats.sampling.sweeps == 1
        assert stats.sampling.waves >= 1
        assert stats.sampling.samples == responses[0].samples
        assert len({r.probability for r in responses}) == 1
        assert all(r.engine == "karp_luby" for r in responses)

    def test_distinct_budgets_get_distinct_sweeps(self):
        import time
        from concurrent.futures import Future

        from repro.serving.api import QueryRequest
        from repro.serving.shard import Shard, _Pending

        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        shard = Shard(0)
        try:
            group = []
            for seed in (1, 1, 2):
                pending = _Pending(
                    QueryRequest(
                        query, tid, AccuracyBudget(epsilon=0.1, seed=seed)
                    ),
                    Future(),
                    time.perf_counter(),
                )
                pending.future.set_running_or_notify_cancel()
                group.append(pending)
            shard._process(group)
            responses = [pending.future.result() for pending in group]
        finally:
            shard.close()
        stats = shard.stats()
        assert stats.sampling.requests == 3
        assert stats.sampling.sweeps == 2
        assert responses[0].probability == responses[1].probability

    def test_sampling_stats_aggregate_service_wide(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(epsilon=0.1, seed=5)
        with ShardedService(shards=2) as service:
            for _ in range(3):
                service.submit(query, tid, budget).result()
            stats = service.stats()
        assert stats.sampling.requests == 3
        assert 1 <= stats.sampling.sweeps <= 3
        assert stats.sampling.samples > 0
        assert stats.sampling.max_half_width > 0.0
        assert stats.engines.get("karp_luby") == 3

    def test_exact_routes_leave_sampling_stats_empty(self):
        with ShardedService(shards=1) as service:
            tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
            service.submit(q9(), tid).result()
            stats = service.stats()
        assert stats.sampling.requests == 0
        assert stats.sampling.sweeps == 0


class TestAccuracyBudget:
    def test_sample_arithmetic(self):
        assert AccuracyBudget(epsilon=0.049).samples() == 400
        assert AccuracyBudget(epsilon=0.5, min_samples=100).samples() == 100
        assert (
            AccuracyBudget(epsilon=0.001, max_samples=5000).samples() == 5000
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            AccuracyBudget(epsilon=0.0)
        with pytest.raises(ValueError):
            AccuracyBudget(min_samples=0)
        with pytest.raises(ValueError):
            AccuracyBudget(min_samples=10, max_samples=5)


class TestQueryResponsePayload:
    def test_payload_round_trips_through_json_in_field_order(self):
        # Every field away from its default, so a dropped or misnamed
        # key cannot round-trip by accident.
        response = QueryResponse(
            0.3125,
            "monte_carlo",
            3,
            cache_hit=True,
            batch_size=4,
            half_width=0.0125,
            samples=4096,
            waves=3,
            latency_ms=1.75,
            degraded=True,
        )
        payload = response.to_payload()
        assert list(payload) == [
            field.name for field in dataclasses.fields(QueryResponse)
        ]
        rebuilt = QueryResponse.from_payload(json.loads(json.dumps(payload)))
        assert rebuilt == response


class TestShardIsolation:
    def test_shards_never_share_compiled_circuits(self):
        # Distinct fingerprints on distinct shards: each shard's cache
        # holds only its own instances' keys, with no overlap.
        with ShardedService(shards=4, workers_per_shard=1) as service:
            tids = tids_covering_all_shards(service)
            service.submit_batch(q9(), tids * 4)
            owners = {
                service.shard_of(tid): tid.instance.content_fingerprint()
                for tid in tids
            }
            for index, shard in enumerate(service._shards):
                keys = shard.cache.keys()
                fingerprints = {key[1] for key in keys}
                for fingerprint in fingerprints:
                    assert fingerprint == owners[index]
            all_keys = [
                key
                for shard in service._shards
                for key in shard.cache.keys()
            ]
        assert len(all_keys) == len(set(all_keys))

    def test_per_shard_caches_are_independent_objects(self):
        # The same (query, instance) compiled through two caches yields
        # two distinct frozen circuits: no hidden module-global sharing.
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        first_cache = CompilationCache()
        second_cache = CompilationCache()
        first, hit_a = first_cache.get_or_compile(q9(), tid.instance)
        second, hit_b = second_cache.get_or_compile(q9(), tid.instance)
        assert not hit_a and not hit_b
        assert first is not second
        assert first.probability(tid) == second.probability(tid)
        assert first_cache.stats().misses == 1
        assert second_cache.stats().misses == 1

    def test_concurrent_submits_from_many_threads(self):
        # Hammer one service from several client threads; every answer
        # must match the single-threaded reference and the counters must
        # add up.
        tids = distinct_tids(4)
        reference = {
            id(tid): evaluate_batch(q9(), [tid]).probabilities[0]
            for tid in tids
        }
        errors: list[BaseException] = []
        with ShardedService(shards=4, workers_per_shard=2) as service:
            barrier = threading.Barrier(6)

            def client():
                try:
                    barrier.wait()
                    for round_number in range(8):
                        futures = [
                            service.submit(q9(), tid) for tid in tids
                        ]
                        for tid, future in zip(tids, futures):
                            response = future.result(timeout=60)
                            assert (
                                response.probability == reference[id(tid)]
                            )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert not errors
        assert stats.requests == 6 * 8 * len(tids)
        assert stats.queue_depth == 0
        # One lifted plan per busy shard (keyed by the query, not the
        # instance), no compilations at all.
        for shard in stats.shards:
            if shard.requests:
                assert shard.plans.misses == 1
            assert shard.cache.misses == 0
        assert stats.engines == {"extensional": stats.requests}


class TestLifecycle:
    def test_close_is_idempotent_and_context_manager_closes(self):
        service = ShardedService(shards=1)
        tid = complete_tid(3, 2, 2)
        service.submit(q9(), tid).result()
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(q9(), tid)
        # The rejected request must not linger as a phantom queue entry.
        assert service.stats().queue_depth == 0

    def test_stats_on_idle_service(self):
        with ShardedService(shards=3) as service:
            stats = service.stats()
        assert stats.requests == 0
        assert stats.p50_ms == 0.0
        assert stats.cache_hit_rate == 0.0
        assert len(stats.shards) == 3


class TestServingAgainstExactEngine:
    def test_served_floats_track_exact_probabilities(self):
        # The serving layer runs the float backend; its answers must
        # stay within float error of the exact engine's Fractions.
        with ShardedService(shards=4) as service:
            for tid in distinct_tids(4, prob=Fraction(1, 3)):
                served = service.submit(q9(), tid).result()
                exact = evaluate(q9(), tid, method="intensional")
                assert served.probability == pytest.approx(
                    float(exact.probability), abs=1e-9
                )
