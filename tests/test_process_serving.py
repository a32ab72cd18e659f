"""Tests for the multiprocess serving backend (:mod:`repro.serving.worker`,
:mod:`repro.serving.shm`).

The contract: ``ShardedService(backend="processes")`` is the *same
service* as the thread backend — bit-for-float identical answers on
every route, identical seeded fault replay, merge-safe stats — plus a
clean shared-memory lifecycle: segments are content-addressed, stale
versions are reclaimed as soon as their last reader resolves, and a
stopped service leaves nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import contextlib
import glob
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import complete_tid
from repro.pqe.engine import BRUTE_FORCE_LIMIT, evaluate_batch
from repro.queries.hqueries import HQuery, q9
from repro.serving import (
    AccuracyBudget,
    CircuitBreakerOpen,
    FaultInjector,
    ProcessShard,
    ServiceStopped,
    ShardedService,
)
from repro.serving.resilience import RetryPolicy
from repro.serving.shm import SegmentRegistry, read_columns, segment_prefix

pytestmark = pytest.mark.filterwarnings("error")


def hard_full_disjunction(k: int) -> HQuery:
    phi = BooleanFunction.bottom(k + 1)
    for i in range(k + 1):
        phi = phi | BooleanFunction.variable(i, k + 1)
    return HQuery(k, phi)


def nonmonotone_dd_query(k: int = 3) -> HQuery:
    """Zero-Euler but non-monotone: the compiled (intensional) route."""
    rng = random.Random(0xD1CE)
    while True:
        phi = BooleanFunction.random(k + 1, rng)
        if phi.euler_characteristic() == 0 and not phi.is_monotone():
            return HQuery(k, phi)


def shm_entries() -> set[str]:
    """The /dev/shm entries this process's registries have published."""
    return {
        os.path.basename(path)
        for path in glob.glob(f"/dev/shm/{segment_prefix()}*")
    }


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process.  A zombie is not: it has exited
    and only waits for its new parent to reap it."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def descendants(pid: int) -> list[int]:
    """Every process below ``pid`` in the process tree, from the
    parent pid each ``/proc/<pid>/stat`` records."""
    children: dict[int, list[int]] = {}
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as handle:
                parent = int(handle.read().rpartition(")")[2].split()[1])
        except (FileNotFoundError, ProcessLookupError):
            continue
        children.setdefault(parent, []).append(int(path.split("/")[2]))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def is_resource_tracker(pid: int) -> bool:
    """Whether ``pid`` runs a ``multiprocessing`` resource tracker."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"resource_tracker" in handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False


def owner_segments(pid: int) -> list[str]:
    """The /dev/shm segments process ``pid`` published (its prefix)."""
    return glob.glob(f"/dev/shm/pqe{pid:x}*")


def wait_until(done, timeout: float = 5.0) -> None:
    """Poll ``done()`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not done():
        time.sleep(0.05)


@contextlib.contextmanager
def sigkilled_owner(tmp_path, script: str):
    """Run ``script`` as a serving owner process that prints its worker
    pids on one line, then blocks on stdin.  Yields ``(owner, pids,
    errors)``; whatever the test leaves running is SIGKILLed after it,
    along with any pid the test appends to ``pids``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    errors = tmp_path / "owner.err"
    pids: list[int] = []
    with errors.open("w") as stderr, subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
        env=env,
        cwd=str(root),
    ) as owner:
        try:
            pids.extend(int(pid) for pid in owner.stdout.readline().split())
            yield owner, pids, errors
        finally:
            owner.kill()
            for pid in pids:
                if running(pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            for path in owner_segments(owner.pid):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)


def run_backend(backend: str, workload):
    """Run ``workload(service)`` against one backend; returns its value.

    Asserts the backend leaves no shared-memory segments behind — the
    thread backend trivially, the process backend by lifecycle.
    """
    service = ShardedService(shards=2, workers_per_shard=2, backend=backend)
    try:
        return workload(service)
    finally:
        service.stop(wait=True)
        assert not shm_entries()


class TestBackendSelection:
    def test_explicit_backend_argument(self):
        with ShardedService(shards=1, backend="threads") as service:
            assert service.backend == "threads"
            assert not isinstance(service._shards[0], ProcessShard)
        service = ShardedService(shards=1, backend="processes")
        try:
            assert service.backend == "processes"
            assert isinstance(service._shards[0], ProcessShard)
        finally:
            service.stop()

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_BACKEND", "processes")
        service = ShardedService(shards=1)
        try:
            assert service.backend == "processes"
        finally:
            service.stop()
        monkeypatch.delenv("REPRO_SERVING_BACKEND")
        with ShardedService(shards=1) as service:
            assert service.backend == "threads"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            ShardedService(shards=1, backend="fibers")


class TestBackendParity:
    """Every route bit-for-float identical across backends."""

    def test_extensional_spread_identical(self):
        tids = [
            complete_tid(3, 2 + i, 2, prob=Fraction(1, 2 + i))
            for i in range(4)
        ]
        requests = [tids[i % len(tids)] for i in range(48)]
        reference = evaluate_batch(q9(), requests)

        def workload(service):
            return [
                r.probability
                for r in service.submit_batch(q9(), requests)
            ]

        threads = run_backend("threads", workload)
        processes = run_backend("processes", workload)
        assert threads == processes == reference.probabilities

    def test_extensional_mixed_probability_maps_identical(self):
        # Distinct probability maps over one instance content: each map
        # publishes its own content-addressed segment, and the fan-out
        # must keep every float identical to the direct engine.
        rng = random.Random(17)
        tids = []
        for _ in range(12):
            tid = complete_tid(3, 3, 2, prob=Fraction(1, 2))
            for t in tid.instance.tuple_ids():
                tid.set_probability(t, Fraction(rng.randrange(0, 9), 8))
            tids.append(tid)
        reference = evaluate_batch(q9(), tids)

        def workload(service):
            return [
                r.probability for r in service.submit_batch(q9(), tids)
            ]

        assert run_backend("threads", workload) == reference.probabilities
        assert run_backend("processes", workload) == (
            reference.probabilities
        )

    def test_intensional_route_identical(self):
        query = nonmonotone_dd_query()
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        requests = [tid] * 32
        reference = evaluate_batch(query, requests)

        def workload(service):
            responses = service.submit_batch(query, requests)
            assert {r.engine for r in responses} == {"intensional"}
            return [r.probability for r in responses]

        threads = run_backend("threads", workload)
        processes = run_backend("processes", workload)
        assert threads == processes == reference.probabilities

    def test_brute_force_route_identical(self):
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 1, 1, prob=Fraction(1, 3))
        assert len(tid) <= BRUTE_FORCE_LIMIT

        def workload(service):
            response = service.submit(query, tid).result()
            assert response.engine == "brute_force"
            return response.probability

        assert run_backend("threads", workload) == run_backend(
            "processes", workload
        )

    def test_seeded_sampling_identical_including_error_bars(self):
        # The strongest parity statement: the worker's rebuilt sampling
        # plan walks the *same seeded sample path*, so the estimate, the
        # half-width, the sample count and the wave count all match.
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(epsilon=0.1, seed=11)

        def workload(service):
            response = service.submit(query, tid, budget).result()
            return (
                response.engine,
                response.probability,
                response.half_width,
                response.samples,
                response.waves,
            )

        threads = run_backend("threads", workload)
        processes = run_backend("processes", workload)
        assert threads == processes
        assert threads[0] == "karp_luby"

    def test_overflow_probabilities_identical(self):
        # Rationals too wide for the int64 shm columns ride the pickled
        # overflow side channel; exactness must survive the trip.
        wide = Fraction(2**70 + 1, 2**71 + 3)
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        for i, t in enumerate(tid.instance.tuple_ids()):
            if i % 3 == 0:
                tid.set_probability(t, wide)
        reference = evaluate_batch(q9(), [tid])

        def workload(service):
            return service.submit(q9(), tid).result().probability

        threads = run_backend("threads", workload)
        processes = run_backend("processes", workload)
        assert threads == processes == reference.probabilities[0]

    def test_seeded_fault_replay_identical_across_backends(self):
        # The fault injector lives in the parent-side policy front end
        # for both backends, so a seeded chaos schedule sheds / fails /
        # answers the same request indices whichever backend computes.
        def run(backend):
            service = ShardedService(
                shards=2,
                workers_per_shard=1,  # single drain => stable order
                retry=RetryPolicy(attempts=1),
                fault_injector=FaultInjector(
                    seed=9, error_rate=Fraction(1, 4)
                ),
                backend=backend,
            )
            try:
                hard = hard_full_disjunction(3)
                outcomes = []
                for i in range(24):
                    tid = complete_tid(
                        3, 2 + i % 3, 2, prob=Fraction(1, 2)
                    )
                    future = service.submit(
                        q9() if i % 2 == 0 else hard, tid
                    )
                    error = future.exception(timeout=120)
                    if error is None:
                        outcomes.append(
                            ("ok", future.result().probability)
                        )
                    else:
                        outcomes.append((type(error).__name__, None))
                return outcomes
            finally:
                service.stop(wait=True)

        threads = run("threads")
        processes = run("processes")
        assert threads == processes
        assert any(kind == "TransientFaultError" for kind, _ in threads)
        assert any(kind == "ok" for kind, _ in threads)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_deadline_passed_before_compute_is_typed(self, backend):
        # An injected 80 ms stall between dequeue and the sampling
        # sweep outlives the 40 ms deadline.  Both backends answer with
        # a typed DeadlineExceeded, which is the caller's budget running
        # out rather than a shard failure: the process backend must not
        # send the negative remaining time to its worker.
        from repro.core.deadline import DeadlineExceeded

        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        assert len(tid) > BRUTE_FORCE_LIMIT
        service = ShardedService(
            shards=1,
            fault_injector=FaultInjector(
                seed=1, latency_rate=1, latency_ms=80
            ),
            degrade_to_sampling=False,
            backend=backend,
        )
        try:
            future = service.submit(query, tid, deadline_ms=40)
            error = future.exception(timeout=60)
            stats = service.stats()
        finally:
            service.stop(wait=True)
        assert isinstance(error, DeadlineExceeded)
        assert stats.resilience.failures == 0
        assert stats.resilience.deadline_exceeded == 1


class TestProcessStats:
    def test_compile_cache_counters_identical_across_backends(self):
        # One compile-cache lookup per intensional group on either
        # backend: four sequential requests are one miss and three hits.
        query = nonmonotone_dd_query()
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))

        def run(backend):
            service = ShardedService(
                shards=1, workers_per_shard=1, backend=backend
            )
            try:
                for _ in range(4):
                    assert service.submit(query, tid).result().engine == (
                        "intensional"
                    )
                return service.stats().shards[0].cache
            finally:
                service.stop(wait=True)

        threads = run("threads")
        assert (threads.hits, threads.misses) == (3, 1)
        assert run("processes") == threads

    def test_worker_cache_counters_merge_into_snapshot(self):
        query = nonmonotone_dd_query()
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 2))
        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        try:
            service.submit_batch(query, [tid] * 16)
            stats = service.stats()
        finally:
            service.stop(wait=True)
        shard = stats.shards[0]
        # The worker compiled exactly once; the merged snapshot shows
        # the worker-side cache, not the parent's (empty) one.
        assert shard.cache.misses == 1
        assert stats.engines == {"intensional": 16}
        assert shard.requests == 16

    def test_stats_payload_round_trip(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        service = ShardedService(shards=2, backend="processes")
        try:
            service.submit(q9(), tid).result()
            stats = service.stats()
        finally:
            service.stop(wait=True)
        payload = stats.to_payload()
        rebuilt = type(stats).from_payload(payload)
        assert rebuilt == stats
        assert rebuilt.engines == stats.engines
        assert rebuilt.resilience == stats.resilience
        # The payload is honestly JSON-able.
        import json

        assert json.loads(json.dumps(payload)) == payload

    def test_stats_still_answer_after_worker_death(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        try:
            service.submit(q9(), tid).result()
            # Poll the killed client itself: the supervisor swaps in a
            # live respawned one after a short backoff.
            client = service._shards[0]._client
            os.kill(client._process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while client.alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = service.stats()  # falls back to the parent snapshot
            assert stats.requests == 1
        finally:
            service.stop(wait=True)


class TestShmLifecycle:
    def test_read_columns_round_trips_registry_segment(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        from repro.db.columnar import probability_columns

        columns = probability_columns(tid)
        registry = SegmentRegistry()
        try:
            lease = registry.acquire(
                tid.instance.shard_key(), tid.probability_digest(), columns
            )
            assert lease.fresh
            attached = read_columns(lease.name, lease.count, lease.overflow)
            assert attached.fractions() == columns.fractions()
            # Re-acquiring the same content pins the same segment.
            again = registry.acquire(
                tid.instance.shard_key(), tid.probability_digest(), columns
            )
            assert not again.fresh
            assert again.name == lease.name
            registry.release(lease)
            registry.release(again)
            assert len(registry) == 1  # published, unpinned, not stale
        finally:
            registry.unlink_all()
        assert not shm_entries()

    def test_reacquire_during_reclaim_republishes_cleanly(self, monkeypatch):
        # Releasing the last lease on a stale segment reclaims it.  A
        # request that re-acquires the same digest meanwhile (the
        # probabilities flipped back) must republish the name, never
        # collide with the segment being unlinked.
        import threading

        import repro.serving.shm as shm_module
        from repro.db.columnar import probability_columns

        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        shard_key = tid.instance.shard_key()
        old_digest = tid.probability_digest()
        old_columns = probability_columns(tid)
        tid.set_probability(tid.instance.tuple_ids()[0], Fraction(1, 7))
        new_digest = tid.probability_digest()
        new_columns = probability_columns(tid)
        registry = SegmentRegistry()
        real_unlink = shm_module._unlink
        racers: list[threading.Thread] = []
        outcome: dict = {}

        def reacquire():
            try:
                outcome["lease"] = registry.acquire(
                    shard_key, old_digest, old_columns
                )
            except FileExistsError as error:
                outcome["error"] = error

        def racing_unlink(shm):
            # The competing acquire runs while this reclaim is in
            # flight, with time to reach publication, before the unlink
            # completes.
            if not racers:
                racers.append(threading.Thread(target=reacquire))
                racers[0].start()
                racers[0].join(timeout=0.25)
            real_unlink(shm)

        try:
            old = registry.acquire(shard_key, old_digest, old_columns)
            new = registry.acquire(shard_key, new_digest, new_columns)
            monkeypatch.setattr(shm_module, "_unlink", racing_unlink)
            registry.release(old)  # last pin on the stale segment
            assert racers
            racers[0].join(timeout=10)
            assert not racers[0].is_alive()
            assert "error" not in outcome, outcome.get("error")
            lease = outcome["lease"]
            assert lease.fresh
            attached = read_columns(lease.name, lease.count, lease.overflow)
            assert attached.fractions() == old_columns.fractions()
            registry.release(lease)
            registry.release(new)
        finally:
            registry.unlink_all()
        assert not shm_entries()

    def test_probability_version_bump_reclaims_stale_segment(self):
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        try:
            shard = service._shards[0]
            first = service.submit(q9(), tid).result()
            old_names = set(shard.segment_names())
            assert len(old_names) == 1
            # Bump the probability map: new digest, new segment; the
            # superseded one is unlinked once its last lease resolves.
            tuple_id = tid.instance.tuple_ids()[0]
            tid.set_probability(tuple_id, Fraction(1, 7))
            second = service.submit(q9(), tid).result()
            new_names = set(shard.segment_names())
            assert len(new_names) == 1
            assert new_names.isdisjoint(old_names)
            assert shm_entries() == new_names
            assert first.probability != second.probability
            reference = evaluate_batch(q9(), [tid])
            assert second.probability == reference.probabilities[0]
        finally:
            service.stop(wait=True)
        assert not shm_entries()

    def test_worker_forgets_reclaimed_probability_maps(self):
        # Each new map supersedes the last one's segment; once the
        # registry reclaims it, the worker must drop the TID it built
        # from it (and every memo on that TID) instead of keeping every
        # map it was ever sent.
        query = nonmonotone_dd_query()
        tuple_ids = complete_tid(3, 2, 2).instance.tuple_ids()

        def weighted(version):
            tid = complete_tid(3, 2, 2)
            for i, tuple_id in enumerate(tuple_ids):
                tid.set_probability(
                    tuple_id, Fraction(1 + (i + version) % 7, 9 + version)
                )
            return tid

        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        try:
            shard = service._shards[0]
            for version in list(range(20)) + [0, 1] * 3:
                tid = weighted(version)
                served = service.submit(query, tid).result(timeout=60)
                reference = evaluate_batch(query, [tid])
                assert served.probability == reference.probabilities[0]
            assert shard.worker_tid_count() <= 2
        finally:
            service.stop(wait=True)
        assert not shm_entries()

    def test_stop_unlinks_every_segment(self):
        tids = [
            complete_tid(3, 2 + i, 2, prob=Fraction(1, 2)) for i in range(3)
        ]
        service = ShardedService(shards=2, backend="processes")
        service.submit_batch(q9(), tids)
        live = {
            name
            for shard in service._shards
            for name in shard.segment_names()
        }
        assert live  # traffic actually published segments
        assert live <= shm_entries()
        service.stop(wait=True)
        assert not shm_entries()

    def test_no_leaks_after_faulted_workload(self):
        # Chaos-style traffic (injected faults, retries, deadlines) over
        # the process backend: whatever path each request takes, stop()
        # leaves /dev/shm clean.
        service = ShardedService(
            shards=2,
            workers_per_shard=2,
            retry=RetryPolicy(attempts=2, base_delay_ms=0.5),
            fault_injector=FaultInjector(
                seed=3,
                error_rate=Fraction(1, 6),
                latency_rate=Fraction(1, 5),
                latency_ms=2.0,
            ),
            backend="processes",
        )
        hard = hard_full_disjunction(3)
        budget = AccuracyBudget(
            epsilon=0.3, min_samples=32, max_samples=64, seed=5
        )
        futures = []
        for i in range(8):
            safe = complete_tid(3, 2 + i % 3, 2, prob=Fraction(1, 2))
            large = complete_tid(3, 3, 3, prob=Fraction(1, 3))
            futures.append(service.submit(q9(), safe))
            futures.append(
                service.submit(hard, large, budget, deadline_ms=10_000.0)
            )
        for future in futures:
            future.exception(timeout=120)  # resolve; typed errors fine
        service.stop(wait=True)
        assert not shm_entries()


class TestProcessStopSemantics:
    def test_killed_worker_fails_requests_typed_never_raw_pipe(self):
        # Since the supervisor landed, an externally killed worker is
        # respawned: a request racing the death either resolves with the
        # (bit-identical) answer from the fresh worker or fails with the
        # *typed* ServiceStopped — never a raw pipe error, never a hang.
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 2))
        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        try:
            reference = service.submit(q9(), tid).result()  # warm
            os.kill(service._shards[0]._client._process.pid, signal.SIGKILL)
            future = service.submit(q9(), tid)
            error = future.exception(timeout=60)
            if error is None:
                assert future.result().probability == reference.probability
            else:
                assert isinstance(error, ServiceStopped)
            # The supervisor brings the shard back: a later request is
            # served by the respawned worker (the death trips the
            # breaker, so poll through its open window).
            deadline = time.monotonic() + 30
            again = None
            while time.monotonic() < deadline:
                try:
                    again = service.submit(q9(), tid).result(timeout=60)
                    break
                except (CircuitBreakerOpen, ServiceStopped):
                    time.sleep(0.05)
            assert again is not None
            assert again.probability == reference.probability
            assert service._shards[0].stats().supervisor.restarts >= 1
        finally:
            service.stop(wait=True)
        assert not shm_entries()

    def test_stop_resolves_all_inflight_futures(self):
        # Submit a burst, then stop immediately: every future resolves
        # (answer or typed ServiceStopped), none hangs on a dead pipe.
        query = hard_full_disjunction(3)
        tid = complete_tid(3, 3, 3, prob=Fraction(1, 3))
        budget = AccuracyBudget(
            epsilon=0.05, min_samples=256, max_samples=4096, seed=7
        )
        service = ShardedService(
            shards=1, workers_per_shard=1, backend="processes"
        )
        futures = [service.submit(query, tid, budget) for _ in range(16)]
        service.stop(wait=True)
        for future in futures:
            error = future.exception(timeout=60)
            assert error is None or isinstance(error, ServiceStopped), (
                repr(error)
            )
        with pytest.raises(ServiceStopped):
            service.submit(q9(), complete_tid(3, 2, 2))
        assert not shm_entries()

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states in /proc"
    )
    def test_workers_exit_when_parent_is_sigkilled(self, tmp_path):
        # The owner of a 2-shard process service dies without running
        # any cleanup.  Each worker must see its pipe's EOF and exit: no
        # worker may still hold an inherited parent-side end open.  The
        # whole tree runs one resource tracker, the owner's, started
        # before the first fork; once the workers are gone it unlinks
        # the segments the owner never did.
        script = (
            "import sys\n"
            "from repro.db.generator import complete_tid\n"
            "from repro.queries.hqueries import q9\n"
            "from repro.serving import ShardedService\n"
            "from repro.serving.api import QueryRequest\n"
            "service = ShardedService(shards=2, backend='processes')\n"
            "for shard in service._shards:\n"
            "    shard.submit(QueryRequest(q9(), complete_tid(3, 2, 2)))"
            ".result()\n"
            "print(*(s._client._process.pid for s in service._shards),"
            " flush=True)\n"
            "sys.stdin.read()\n"
        )
        with sigkilled_owner(tmp_path, script) as (owner, pids, errors):
            assert len(pids) == 2, errors.read_text()
            trackers = [
                pid for pid in descendants(owner.pid)
                if is_resource_tracker(pid)
            ]
            assert len(trackers) == 1, trackers
            assert owner_segments(owner.pid)
            pids.extend(trackers)
            owner.kill()
            owner.wait(timeout=30)
            wait_until(
                lambda: not any(running(pid) for pid in pids)
                and not owner_segments(owner.pid)
            )
            assert not [pid for pid in pids if running(pid)]
            assert not owner_segments(owner.pid)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states in /proc"
    )
    def test_sigkilled_parent_leaks_no_segment_after_a_respawn(
        self, tmp_path
    ):
        # A respawned worker is forked after the owner's tracker exists,
        # so it shares it.  Its attach must leave the owner's
        # registration in place: SIGKILL a worker, serve again through
        # the respawned one, then SIGKILL the owner, and no segment may
        # remain.
        script = (
            "import os, signal, sys, time\n"
            "from repro.db.generator import complete_tid\n"
            "from repro.queries.hqueries import q9\n"
            "from repro.serving import ShardedService\n"
            "service = ShardedService(shards=1, backend='processes',"
            " breaker_reset_after_ms=20.0)\n"
            "shard = service._shards[0]\n"
            "tid = complete_tid(3, 2, 2)\n"
            "service.submit(q9(), tid).result()\n"
            "os.kill(shard._client._process.pid, signal.SIGKILL)\n"
            "give_up = time.monotonic() + 30\n"
            "while shard.stats().supervisor.restarts < 1:\n"
            "    assert time.monotonic() < give_up\n"
            "    time.sleep(0.02)\n"
            "while True:\n"
            "    try:\n"
            "        service.submit(q9(), tid).result()\n"
            "        break\n"
            "    except Exception:\n"
            "        assert time.monotonic() < give_up\n"
            "        time.sleep(0.02)\n"
            "assert shard.stats().supervisor.restarts == 1\n"
            "print(shard._client._process.pid, flush=True)\n"
            "sys.stdin.read()\n"
        )
        with sigkilled_owner(tmp_path, script) as (owner, pids, errors):
            assert len(pids) == 1, errors.read_text()
            assert owner_segments(owner.pid)
            owner.kill()
            owner.wait(timeout=30)
            wait_until(
                lambda: not running(pids[0])
                and not owner_segments(owner.pid)
            )
            assert not running(pids[0])
            assert not owner_segments(owner.pid)

    def test_fork_while_a_parent_end_closes_keeps_the_new_worker(self):
        # One thread closes a worker's parent-side end while another
        # forks a new worker, and the fork lands after the descriptor
        # is closed but before the Connection forgets its number.  The
        # new worker must not close that stale number: it raised EBADF
        # at startup, or closed whichever of its own pipe ends reused
        # the number, and the worker died.
        import threading

        from repro.serving.worker import _WorkerClient

        old = _WorkerClient(0)
        conn = old._conn
        closed, resume = threading.Event(), threading.Event()

        def close_then_stall():
            os.close(conn._handle)
            closed.set()
            resume.wait(10)

        conn._close = close_then_stall
        closer = threading.Thread(target=old._close_pipe)
        closer.start()
        try:
            assert closed.wait(10)
            fresh = _WorkerClient(1)
            try:
                cache, plans, tids = fresh.call("stats")
                assert tids == 0
            finally:
                fresh.shutdown()
        finally:
            resume.set()
            closer.join(10)
            old.shutdown()

    def test_close_then_stop_is_idempotent(self):
        service = ShardedService(shards=1, backend="processes")
        service.submit(q9(), complete_tid(3, 2, 2)).result()
        service.close()
        service.close()
        service.stop()
        assert not shm_entries()


class TestSpawnStartMethod:
    def test_spawn_worker_matches_reference(self):
        # The fork default is an optimization, not a correctness
        # dependency: a spawned worker (fresh interpreter, re-imported
        # modules) rebuilds the same floats.
        tid = complete_tid(3, 2, 2, prob=Fraction(1, 3))
        reference = evaluate_batch(q9(), [tid])
        shard = ProcessShard(0, workers=1, start_method="spawn")
        try:
            from repro.serving.api import QueryRequest

            response = shard.submit(QueryRequest(q9(), tid)).result(
                timeout=120
            )
            assert response.probability == reference.probabilities[0]
        finally:
            shard.stop(wait=True)
        assert not shm_entries()
