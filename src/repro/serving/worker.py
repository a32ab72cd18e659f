"""The process serving backend: worker processes behind the Shard policy
front end.

:class:`ProcessShard` subclasses :class:`~repro.serving.shard.Shard` and
overrides exactly one compute hook, ``_compute``, with one RPC into a
dedicated worker process, whose ``"compute"`` op runs the same
:func:`~repro.serving.shard.compute` the thread backend runs
in-process.  Everything else — routing, microbatch fusion, admission
control, deadlines, degradation, retries, circuit breaker, fault
injection, stats counters — is inherited unchanged and runs in the
submitting process, which is what makes the two backends
bit-for-float identical and lets seeded
:class:`~repro.serving.faults.FaultInjector` streams replay identically
across them.  The worker answers five ops: ``"instance"``,
``"columns"`` and ``"forget"`` (casts registering and dropping
content), ``"compute"`` and ``"stats"``.

What crosses the process boundary, and what does not:

* **Queries** travel in the one JSON-able wire form of
  :func:`repro.serving.api.encode_query` (the gateway's form) — never
  as pickled query objects.
* **Instance content** travels once per shard key: declared relations
  and facts, pickled over the control pipe at first use.
* **Probability content** travels as shared-memory probability columns
  (:mod:`repro.serving.shm`), content-addressed by
  ``(Instance.shard_key(), probability_digest())`` — republished only
  when ``probability_version`` bumps.  Once the registry has reclaimed
  a key's segment, the next lease on the shard casts ``"forget"`` for
  it, and the worker drops the TID it rehydrated under that key (with
  every memo on it), so a worker holds only the probability maps that
  are still published.
* **Request envelopes** are tiny: the route, segment keys, the
  :class:`~repro.pqe.approximate.AccuracyBudget` itself (frozen and
  self-validating), remaining deadline milliseconds.
* **Compiled artifacts never cross.**  Plans, tapes, OBDD families and
  the circuit arena are rebuilt inside the worker from
  ``cached_derivation`` over the rehydrated instance — they are
  content-determined, so rebuilding reproduces the parent's floats bit
  for bit, and nothing unpicklable (locks, numpy views, codegen'd
  functions) ever touches the pipe.

The worker serves its control pipe strictly in order, so the pipe is
also the memory barrier: a segment announced before a request is
readable when the request arrives, and the parent releases a segment
lease only after the RPC that used it replied.  Worker death (crash,
kill) surfaces as a pipe EOF; every in-flight RPC — and therefore every
in-flight request future — resolves with the typed
:class:`~repro.serving.resilience.ServiceStopped`, never a naked
``BrokenPipeError``.

**Supervision** (:class:`_Supervisor`): death no longer leaves the
shard dark.  The reader thread's EOF (the parent-side SIGCHLD) invokes
the supervisor, which trips the shard's breaker (the failover signal —
replicated instances route to replicas while it is open), backs off
deterministically, respawns a fresh worker, and *replays* every
instance registration the shard has ever announced (kept as pickled
payloads in ``_instance_payloads``); probability columns are lazily
re-announced per ``(shard_key, digest)`` because the respawn clears the
``_announced_columns`` book.  Injected ``worker_kill`` faults use the
synchronous :meth:`_Supervisor.crash_and_respawn` path instead, so the
kill-retry-recover cycle is a pure function of the seeded fault
schedule.  After ``max_restarts`` respawns the supervisor gives up:
the shard stays dark, reports unhealthy, and fails typed.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import weakref
from dataclasses import replace
from multiprocessing import resource_tracker

from repro.core.deadline import Deadline, DeadlineExceeded
from repro.db.columnar import apply_probability_columns
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.engine import CompilationCache, HardQueryError
from repro.pqe.extensional import ExtensionalPlanCache
from repro.pqe.lift import UnsafeQueryError
from repro.serving.api import decode_query, encode_query
from repro.serving.resilience import ServiceStopped, SupervisorPolicy
from repro.serving.shard import Shard, compute
from repro.serving.shm import SegmentLease, SegmentRegistry, read_columns
from repro.serving.stats import SupervisorStats

# ----------------------------------------------------------------------
# Wire errors
# ----------------------------------------------------------------------

#: Error types a worker may legitimately raise, rebuilt typed on the
#: parent side.  Anything else comes back as a RuntimeError carrying the
#: original type name.
_TYPED_ERRORS = {
    "DeadlineExceeded": DeadlineExceeded,
    "HardQueryError": HardQueryError,
    "UnsafeQueryError": UnsafeQueryError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "OverflowError": OverflowError,
    "RuntimeError": RuntimeError,
}


def _rebuild_error(kind: str, message: str) -> BaseException:
    error_type = _TYPED_ERRORS.get(kind)
    if error_type is None:
        return RuntimeError(f"worker raised {kind}: {message}")
    return error_type(message)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerState:
    """Everything a worker process owns: rehydrated instances and TIDs
    keyed by their content digests, plus its own compilation and plan
    caches (rebuilt, never pickled)."""

    def __init__(self):
        self.instances: dict[int, Instance] = {}
        self.tids: dict[tuple[int, int], TupleIndependentDatabase] = {}
        self.cache = CompilationCache()
        self.plan_cache = ExtensionalPlanCache()

    def register_instance(self, shard_key, relations, facts) -> None:
        if shard_key in self.instances:
            return
        instance = Instance()
        for name, arity in relations:
            instance.declare(name, arity)
        for name, values in facts:
            instance.add(name, values)
        self.instances[shard_key] = instance

    def register_columns(
        self, shard_key, digest, name, count, overflow
    ) -> None:
        key = (shard_key, digest)
        if key in self.tids:
            return
        instance = self.instances[shard_key]
        tid = TupleIndependentDatabase(instance)
        apply_probability_columns(tid, read_columns(name, count, overflow))
        self.tids[key] = tid

    def forget_columns(self, shard_key, digest) -> None:
        self.tids.pop((shard_key, digest), None)


def worker_main(conn, shard_id: int) -> None:
    """The worker process loop: serve control-pipe messages in order
    until ``stop`` (or pipe EOF).  Casts (``message_id is None``) get no
    reply; calls reply ``("ok", id, payload)`` or ``("err", id, kind,
    message)`` — the loop itself never dies to a compute error.

    A forked worker first closes the parent-side pipe ends it inherited
    (its own and every earlier worker's): then the parent's are the only
    ones left, so when the parent dies, even by SIGKILL, ``recv`` sees
    EOF and the worker exits."""
    for parent_end in list(_PARENT_ENDS):
        parent_end.close()
    state = _WorkerState()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op, message_id, payload = message[0], message[1], message[2:]
        if op == "stop":
            if message_id is not None:
                conn.send(("ok", message_id, None))
            break
        try:
            result = _serve_op(state, op, payload)
        except BaseException as error:  # noqa: BLE001 - crosses the pipe
            if message_id is not None:
                conn.send(
                    ("err", message_id, type(error).__name__, str(error))
                )
            continue
        if message_id is not None:
            conn.send(("ok", message_id, result))
    conn.close()


def _serve_op(state: _WorkerState, op: str, payload: tuple):
    if op == "instance":
        state.register_instance(*payload)
        return None
    if op == "columns":
        state.register_columns(*payload)
        return None
    if op == "forget":
        state.forget_columns(*payload)
        return None
    if op == "compute":
        route, encoded_query, keys, budget, remaining_ms = payload
        deadline = (
            Deadline(remaining_ms) if remaining_ms is not None else None
        )
        return compute(
            state.cache,
            state.plan_cache,
            route,
            decode_query(encoded_query),
            [state.tids[key] for key in keys],
            budget,
            deadline,
        )
    if op == "stats":
        return (
            state.cache.stats(), state.plan_cache.stats(), len(state.tids)
        )
    raise ValueError(f"unknown worker op {op!r}")


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _start_method(requested: str | None) -> str:
    available = multiprocessing.get_all_start_methods()
    method = requested or ("fork" if "fork" in available else "spawn")
    if method not in available:
        raise ValueError(
            f"start method {method!r} unavailable on this platform"
        )
    return method


#: The open parent-side pipe end of every worker client in this
#: process (an end leaves the set before it is closed).  A forked worker
#: inherits these and closes them (:func:`worker_main`); a spawned one
#: starts from a fresh import, where the set is empty.
_PARENT_ENDS: weakref.WeakSet = weakref.WeakSet()


class _Rpc:
    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class _WorkerClient:
    """The parent's handle on one worker process: a duplex control pipe
    with correlation-id RPCs, a lazily started reader thread, and typed
    death — when the pipe hits EOF every in-flight RPC resolves with
    :class:`ServiceStopped` instead of leaking a ``BrokenPipeError``."""

    def __init__(
        self,
        shard_id: int,
        *,
        start_method: str | None = None,
        on_death=None,
    ):
        self.shard_id = shard_id
        self._on_death = on_death
        self._closing = False
        context = multiprocessing.get_context(_start_method(start_method))
        self._conn, child_conn = context.Pipe(duplex=True)
        _PARENT_ENDS.add(self._conn)
        self._process = context.Process(
            target=worker_main,
            args=(child_conn, shard_id),
            name=f"pqe-worker-{shard_id}",
            daemon=True,
        )
        # The tracker starts lazily, at this process's first segment
        # publish.  Start it before the fork, so the worker inherits it
        # and its first segment attach does not spawn a tracker of its
        # own (see repro.serving.shm).
        resource_tracker.ensure_running()
        self._process.start()
        child_conn.close()
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._rpcs: dict[int, _Rpc] = {}
        self._next_id = 0
        self._dead = False
        self._reader: threading.Thread | None = None

    # The reader starts lazily (not in __init__) so a service
    # constructing several ProcessShards forks every worker before any
    # parent-side helper thread exists — fork-with-threads hygiene.
    def _ensure_reader(self) -> None:
        if self._reader is None:
            self._reader = threading.Thread(
                target=self._read_loop,
                name=f"pqe-worker-{self.shard_id}-reader",
                daemon=True,
            )
            self._reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
                kind, message_id = message[0], message[1]
            except (EOFError, OSError):
                break
            except Exception:  # pragma: no cover - timing-dependent
                # A worker SIGKILLed mid-send leaves a truncated pickle
                # on the pipe: recv can then raise UnpicklingError (or
                # anything unpickling raises) instead of a clean EOF.
                # The channel is unusable either way — same as a death.
                break
            with self._state_lock:
                rpc = self._rpcs.pop(message_id, None)
            if rpc is None:
                continue
            if kind == "ok":
                rpc.result = message[2]
            else:
                rpc.error = _rebuild_error(message[2], message[3])
            rpc.event.set()
        self._fail_pending(
            ServiceStopped(
                f"worker process for shard {self.shard_id} terminated"
            )
        )
        # Once started, this thread is the pipe's only closer: a close
        # from another thread while this one is between recv's
        # closed-check and its read frees the descriptor number, and
        # that read then consumes the bytes of whichever pipe is opened
        # next under the same number — another worker's replies.
        self._close_conn()
        # EOF is the parent's SIGCHLD: tell the supervisor — unless this
        # death is a deliberate shutdown, which is not a failure.  The
        # reader thread must survive a failed respawn (spawn errors at
        # interpreter teardown, a replay into an already-dead worker):
        # the failure surfaces as typed ServiceStopped on the next RPC
        # or as the fresh client's own death, never as an unhandled
        # thread exception.
        if self._on_death is not None and not self._closing:
            try:
                self._on_death(self)
            except Exception:  # pragma: no cover - timing-dependent
                pass

    def _fail_pending(self, error: BaseException) -> None:
        with self._state_lock:
            self._dead = True
            pending = list(self._rpcs.values())
            self._rpcs.clear()
        for rpc in pending:
            rpc.error = error
            rpc.event.set()

    def call(self, op: str, *payload):
        rpc = _Rpc()
        with self._state_lock:
            if self._dead:
                raise ServiceStopped(
                    f"worker process for shard {self.shard_id} is gone"
                )
            self._ensure_reader()
            message_id = self._next_id
            self._next_id += 1
            self._rpcs[message_id] = rpc
        try:
            with self._send_lock:
                self._conn.send((op, message_id, *payload))
        except (OSError, ValueError) as error:
            self._fail_pending(
                ServiceStopped(
                    f"worker process for shard {self.shard_id} is gone "
                    f"({error})"
                )
            )
        rpc.event.wait()
        if rpc.error is not None:
            raise rpc.error
        return rpc.result

    def cast(self, op: str, *payload) -> None:
        with self._state_lock:
            if self._dead:
                raise ServiceStopped(
                    f"worker process for shard {self.shard_id} is gone"
                )
            self._ensure_reader()
        try:
            with self._send_lock:
                self._conn.send((op, None, *payload))
        except (OSError, ValueError) as error:
            self._fail_pending(
                ServiceStopped(
                    f"worker process for shard {self.shard_id} is gone "
                    f"({error})"
                )
            )
            raise ServiceStopped(
                f"worker process for shard {self.shard_id} is gone"
            ) from error

    def alive(self) -> bool:
        with self._state_lock:
            return not self._dead

    def _close_pipe(self) -> threading.Thread | None:
        """Mark the client dead and close the control pipe — unless a
        reader thread was started, which closes it itself on EOF (see
        :meth:`_read_loop`).  Returns that reader, or ``None``."""
        with self._state_lock:
            self._dead = True
            reader = self._reader
        if reader is None:
            self._close_conn()
        return reader

    def _close_conn(self) -> None:
        # Under the send lock, so no send is between its closed-check
        # and its write when the descriptor number is freed.  Out of
        # _PARENT_ENDS before the close: a worker forked by another
        # thread between the close and the Connection forgetting its
        # number would otherwise close that stale number at startup --
        # EBADF, or one of its own pipe ends, which may reuse it.
        with self._send_lock:
            _PARENT_ENDS.discard(self._conn)
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker (idempotent).  Graceful (``wait=True``) asks
        and waits for the drain; otherwise the stop is cast best-effort
        and the process is joined with a short grace period, then
        terminated."""
        self._closing = True
        with self._state_lock:
            already_dead = self._dead
        if not already_dead:
            try:
                if wait:
                    self.call("stop")
                else:
                    self.cast("stop")
            except ServiceStopped:
                pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=1.0)
        self._fail_pending(
            ServiceStopped(
                f"worker process for shard {self.shard_id} stopped"
            )
        )
        reader = self._close_pipe()
        if reader is not None and reader is not threading.current_thread():
            # The worker is gone, so the reader sees EOF and closes.
            reader.join(timeout=5.0)


class _Supervisor:
    """Keeps one :class:`ProcessShard`'s worker process alive.

    Two entry points: :meth:`crash_and_respawn` is the *deterministic*
    path — an injected ``worker_kill`` fault SIGKILLs the worker and
    respawns it synchronously (no breaker trip, no backoff), so by the
    time the raised :class:`~repro.serving.faults.WorkerCrashError` is
    retried a replayed worker is serving and the outcome is a pure
    function of the fault schedule.  :meth:`_on_death` is the *async*
    path — an unexpected pipe EOF (external SIGKILL, OOM, crash) trips
    the shard's breaker, sleeps a deterministic exponential
    backoff, then respawns and replays.  Both paths serialize on one
    lock; after ``max_restarts`` respawns the supervisor gives up and
    leaves the shard dark (breaker tripped, ``healthy()`` false).
    """

    def __init__(self, shard: "ProcessShard", policy: SupervisorPolicy):
        self._shard = shard
        self.policy = policy
        self._lock = threading.RLock()
        self._closing = False
        self.restarts = 0
        self.replayed_instances = 0
        self.respawn_ms = 0.0
        self.gave_up = False

    def spawn(self) -> _WorkerClient:
        return _WorkerClient(
            self._shard.shard_id,
            start_method=self._shard._start_method,
            on_death=self._on_death,
        )

    def shutdown(self) -> None:
        """Stop supervising (deliberate shard shutdown is not a death)."""
        with self._lock:
            self._closing = True

    def crash_and_respawn(self) -> None:
        """SIGKILL the current worker and respawn it before returning."""
        with self._lock:
            if self._closing or self.gave_up:
                return
            client = self._shard._client
            try:
                client._process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
            client._process.join(timeout=10.0)
            # Resolve in-flight RPCs typed *now* rather than waiting for
            # the reader thread to notice the EOF.
            client._fail_pending(
                ServiceStopped(
                    f"worker process for shard {self._shard.shard_id} "
                    f"was killed"
                )
            )
            self._respawn_locked(backoff=False)

    def _on_death(self, client: _WorkerClient) -> None:
        with self._lock:
            if self._closing or client is not self._shard._client:
                return  # deliberate shutdown, or already replaced
            if self._shard._breaker is not None:
                self._shard._breaker.trip()
            self._respawn_locked(backoff=True)

    def _respawn_locked(self, backoff: bool) -> None:
        if self.restarts >= self.policy.max_restarts:
            self.gave_up = True
            if self._shard._breaker is not None:
                self._shard._breaker.trip()
            return
        if backoff:
            delay_ms = self.policy.delay_ms(self.restarts + 1)
            if delay_ms > 0:
                time.sleep(delay_ms / 1e3)
        started = time.perf_counter()
        self._shard._client._close_pipe()
        client = self.spawn()
        self._shard._client = client
        self.restarts += 1
        try:
            self.replayed_instances += self._shard._replay_registrations(
                client
            )
        except ServiceStopped:  # pragma: no cover - timing-dependent
            # The fresh worker died during replay; its own reader EOF
            # re-enters the supervisor with backoff.
            pass
        self.respawn_ms += (time.perf_counter() - started) * 1e3

    def stats(self, worker_alive: bool) -> SupervisorStats:
        with self._lock:
            return SupervisorStats(
                restarts=self.restarts,
                replayed_instances=self.replayed_instances,
                respawn_ms=self.respawn_ms,
                worker_alive=worker_alive,
                gave_up=self.gave_up,
            )


class ProcessShard(Shard):
    """A shard whose route compute runs in a dedicated worker process.

    The inherited policy front end is untouched; the overridden
    ``_compute`` hook publishes probability content through the
    shared-memory registry and RPCs the worker.  ``stats()`` merges the
    worker's cache and plan counters into the parent-side snapshot;
    ``stop()``/``close()`` shut the inherited pool down first (so
    in-flight RPCs resolve), then the worker, then unlink every
    published segment.

    The worker is *supervised* (see :class:`_Supervisor`): a died
    worker is respawned with every instance registration replayed, so a
    SIGKILL costs the in-flight requests (resolved typed) but not the
    shard.  ``registry`` lets a :class:`~repro.serving.service.
    ShardedService` share one content-addressed
    :class:`~repro.serving.shm.SegmentRegistry` across all its shards —
    replicas of an instance then share probability segments instead of
    republishing them — in which case the service owns the registry's
    lifecycle and this shard's ``stop()``/``close()`` leave it alone.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        start_method: str | None = None,
        supervisor: SupervisorPolicy | None = None,
        registry: SegmentRegistry | None = None,
        **kwargs,
    ):
        super().__init__(shard_id, **kwargs)
        self._owns_registry = registry is None
        self._registry = SegmentRegistry() if registry is None else registry
        self._start_method = start_method
        self._publish_lock = threading.Lock()
        self._announced: set[int] = set()
        #: (shard_key, digest) pairs this shard's *current* worker has
        #: been told about.  Keyed per shard (not per registry) because
        #: with a shared registry a segment published by a replica is
        #: not `fresh` here yet still unknown to this worker — and
        #: cleared on respawn, because a fresh worker knows nothing.
        self._announced_columns: set[tuple[int, int]] = set()
        #: shard_key -> (relations, facts): the registration payloads to
        #: replay into a respawned worker.
        self._instance_payloads: dict[int, tuple[list, list]] = {}
        self._supervisor = _Supervisor(
            self,
            supervisor if supervisor is not None else SupervisorPolicy(),
        )
        self._client = self._supervisor.spawn()

    # -- publication ---------------------------------------------------

    def _lease(self, tid: TupleIndependentDatabase) -> SegmentLease:
        """Pin (publishing as needed) ``tid``'s probability segment and
        make sure the worker has been told about it.  Holding the
        publish lock across acquire+cast keeps the announcement ordered
        before any RPC that references the key (the pipe is FIFO).

        The same lock orders the ``"forget"`` casts for announced keys
        whose segment the registry has reclaimed.  A reclaimed segment
        has no pins, so every RPC that used its key has already replied;
        a later request for that digest republishes and re-announces it,
        as a first use does."""
        from repro.db.columnar import probability_columns

        instance = tid.instance
        shard_key = instance.shard_key()
        digest = tid.probability_digest()
        with self._publish_lock:
            self._announce_locked(instance, shard_key)
            lease = self._registry.acquire(
                shard_key, digest, probability_columns(tid)
            )
            try:
                for key in self._registry.unpublished(
                    self._announced_columns
                ):
                    self._announced_columns.discard(key)
                    self._client.cast("forget", *key)
                # Announce per (shard, worker incarnation), not per
                # `fresh` publication: with a shared registry a replica
                # may have published the segment already, and a
                # respawned worker has forgotten every announcement.
                if lease.key not in self._announced_columns:
                    self._client.cast(
                        "columns",
                        shard_key,
                        digest,
                        lease.name,
                        lease.count,
                        lease.overflow,
                    )
                    self._announced_columns.add(lease.key)
            except ServiceStopped:
                self._registry.release(lease)
                raise
        return lease

    def _announce_locked(self, instance: Instance, shard_key: int) -> None:
        if shard_key in self._announced:
            return
        relations = [
            (relation.name, relation.arity)
            for relation in instance.relations()
        ]
        facts = [
            (tuple_id.relation, tuple_id.values)
            for tuple_id in instance.tuple_ids()
        ]
        self._client.cast("instance", shard_key, relations, facts)
        self._announced.add(shard_key)
        self._instance_payloads[shard_key] = (relations, facts)

    def _replay_registrations(self, client: _WorkerClient) -> int:
        """Re-announce every known instance into a fresh worker (the
        supervisor's respawn path); probability columns re-announce
        lazily on next use.  Returns the number replayed."""
        with self._publish_lock:
            self._announced_columns.clear()
            self._announced = set(self._instance_payloads)
            for shard_key, (relations, facts) in sorted(
                self._instance_payloads.items()
            ):
                client.cast("instance", shard_key, relations, facts)
            return len(self._instance_payloads)

    # -- the compute hook ----------------------------------------------

    def _compute(self, route, query, tids, budget, deadline):
        """:func:`~repro.serving.shard.compute` in the worker process:
        lease every TID's probability segment, send one ``"compute"``
        RPC, release the leases once it replied.

        ``compute`` checks its deadline at entry; an already-expired
        deadline cannot cross the pipe (the worker rebuilds it from the
        remaining milliseconds), so that check runs here, in the
        parent, on one reading of the clock."""
        leases = []
        try:
            for tid in tids:
                leases.append(self._lease(tid))
            remaining_ms = None
            if deadline is not None:
                remaining_ms = deadline.remaining_ms()
                if remaining_ms <= 0:
                    raise DeadlineExceeded(
                        f"deadline exceeded at computation admission "
                        f"({-remaining_ms:.3f} ms past expiry)"
                    )
            return self._client.call(
                "compute",
                route,
                encode_query(query),
                [lease.key for lease in leases],
                budget,
                remaining_ms,
            )
        finally:
            for lease in leases:
                self._registry.release(lease)

    # -- supervision hooks ---------------------------------------------

    def _crash_worker(self) -> None:
        # Injected worker_kill fault: SIGKILL + synchronous respawn, so
        # the transient retry of the raised WorkerCrashError lands on a
        # healed worker — deterministic on both backends.
        self._supervisor.crash_and_respawn()

    def healthy(self) -> bool:
        return (
            super().healthy()
            and self._client.alive()
            and not self._supervisor.gave_up
        )

    # -- observability & lifecycle -------------------------------------

    def stats(self):
        base = super().stats()
        base = replace(
            base, supervisor=self._supervisor.stats(self._client.alive())
        )
        if not self._client.alive():
            return base
        try:
            cache_stats, plan_stats, _ = self._client.call("stats")
        except ServiceStopped:
            return base
        return replace(base, cache=cache_stats, plans=plan_stats)

    def segment_names(self) -> list[str]:
        """The currently published shared-memory segments (tests)."""
        return self._registry.live_names()

    def worker_tid_count(self) -> int:
        """How many probability maps the worker holds (tests)."""
        return self._client.call("stats")[2]

    def close(self, wait: bool = True) -> None:
        self._supervisor.shutdown()
        super().close(wait=wait)
        self._client.shutdown(wait=wait)
        if self._owns_registry:
            self._registry.unlink_all()

    def stop(self, wait: bool = True) -> None:
        self._supervisor.shutdown()
        super().stop(wait=wait)
        self._client.shutdown(wait=wait)
        if self._owns_registry:
            self._registry.unlink_all()
