"""A unified evaluation facade with automatic engine selection.

Downstream users mostly want one call: "give me the probability of this
query, pick the right algorithm, and tell me what you did".  This module
wraps the three engines behind :func:`evaluate`:

* ``method="auto"`` consults the dichotomy classifier through
  :func:`route_of`, the one routing rule: *safe monotone*
  queries (H+, degenerate or zero-Euler) take the extensional fast path —
  lifted inference over columnar probability views, with no lineage and
  no d-D construction at all; the remaining zero-Euler queries (the
  non-monotone combinations only the paper's compiler handles) go to the
  intensional compiler; and anything else falls back to brute force only
  when the instance is small enough — otherwise the call *refuses*
  unless the caller supplies an
  :class:`~repro.pqe.approximate.AccuracyBudget`, because by
  Corollary 3.9 / Proposition 6.4 the query is (or is conjectured)
  #P-hard and silently running an exponential algorithm on a large
  database is a bug, not a feature.  With a budget the hard-and-large
  case routes to the vectorized budget-adaptive sampler instead
  (``engine="karp_luby"`` or ``"monte_carlo"``);
* explicit methods (``"extensional"``, ``"intensional"``,
  ``"brute_force"``, ``"sampling"``) dispatch directly, with the
  engines' own error behavior.

The returned :class:`EvaluationResult` records the probability, the engine
used, the Figure-1 classification, and (for the intensional route) the
compiled circuit for reuse.  Both fast paths sit behind per-engine
caches: compiled lineages in :class:`CompilationCache` (keyed by query
*and* instance fingerprint — circuits depend on the data) and extensional
plans in :class:`~repro.pqe.extensional.ExtensionalPlanCache` (keyed by
the query alone — plans never look at the data), with matching
``*_stats()`` counters.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from repro.core.deadline import Deadline
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.approximate import (
    AccuracyBudget,
    Estimate,
    sampling_plan,
)
from repro.pqe.brute_force import probability_by_lineage_enumeration
from repro.pqe.degenerate import (
    pair_cache_counters,
    reset_pair_cache_counters,
)
from repro.pqe.dichotomy import Classification, Region, classify, classify_query
from repro.pqe.extensional import (
    ExtensionalPlanCache,
    ExtensionalPlanCacheStats,
    LRUCache,
    clear_extensional_plan_cache,
    extensional_plan_stats,
    plan_for,
)
from repro.pqe.intensional import CompiledLineage, compile_lineage
from repro.pqe.lift import evaluate_plan, evaluate_plan_batch
from repro.queries.hqueries import HQuery

BRUTE_FORCE_LIMIT = 18  #: max tuples auto mode will hand to brute force

#: Every route :func:`route_of` can pick, in Figure-1 order.
ROUTES = ("extensional", "lifted", "intensional", "brute_force", "sampling")

COMPILATION_CACHE_LIMIT = 64  #: max compiled lineages kept (LRU)


class HardQueryError(ValueError):
    """Raised by auto mode on a (provably or conjecturally) #P-hard query
    over an instance too large for the exponential fallback."""


@dataclass
class EvaluationResult:
    """The outcome of one :func:`evaluate` call.

    For intensional results ``compiled`` is shared engine-cache state:
    treat its circuit as read-only (use
    :func:`repro.circuits.operations.copy_into` to derive new circuits).
    """

    probability: Fraction
    engine: str
    classification: Classification
    compiled: CompiledLineage | None = None
    #: the engine's cached artifact was reused: a compiled lineage on the
    #: intensional route, an extensional plan on the extensional route
    cache_hit: bool = False
    #: wall-clock cost of the d-D compilation (0.0 on a cache hit, None
    #: for non-intensional engines); gate-sharing counters live on
    #: ``compiled`` (``compile_ms``/``gates_saved``).
    compile_ms: float | None = None
    #: the raw sampler output on the sampling route (``engine`` is then
    #: ``"karp_luby"`` or ``"monte_carlo"``): unclamped value, half-width,
    #: samples drawn, adaptive waves; ``None`` for exact engines.
    estimate: Estimate | None = None


@dataclass
class BatchEvaluationResult:
    """The outcome of one :func:`evaluate_batch` call: float-mode
    probabilities, one per input TID, in input order.

    ``compiled`` is the shared compiled lineage when every TID in the
    batch had the same instance; it is ``None`` for multi-instance
    batches (there is no single circuit to hand back) and for
    non-intensional fallbacks.
    """

    probabilities: list[float]
    engine: str
    classification: Classification
    compiled: CompiledLineage | None = None
    cache_hits: int = 0
    #: per-TID engine labels when the batch fell back to per-TID
    #: :func:`evaluate` calls and ``engine`` is an aggregate (``"mixed"``
    #: when the per-TID engines differ); ``None`` on the batched path.
    engines: list[str] | None = None


@dataclass
class CompilationCacheStats:
    """Counters of the engine's compiled-lineage cache, plus the
    pair-query sub-circuit cache of :mod:`repro.pqe.degenerate`
    (``pair_hits``/``pair_misses``: per-side OBDD roots served from a
    shared manager vs. built by a family sweep)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    pair_hits: int = 0
    pair_misses: int = 0


class CompilationCache(LRUCache):
    """A thread-safe LRU of compiled lineages keyed by ``(query, instance
    fingerprint)``.

    The module keeps one default instance behind the convenience API
    below; :mod:`repro.serving` gives every shard its own cache so that
    churn on one shard never evicts another shard's circuits and two
    shards never serve each other's compiled state.  Compilation runs
    outside the cache's lock (:class:`~repro.pqe.extensional.LRUCache`),
    so a slow compile never serializes unrelated evaluations; two racing
    callers may both compile the same key once, and every holder shares
    the first insertion's circuit.
    """

    def __init__(self, limit: int = COMPILATION_CACHE_LIMIT):
        super().__init__(limit)

    def get_or_compile(
        self,
        query: HQuery,
        instance: Instance,
        fingerprint: tuple | None = None,
    ) -> tuple[CompiledLineage, bool]:
        """The cached compiled lineage for ``(query, instance)``, compiling
        on a miss.  Returns ``(compiled, was_cache_hit)``.

        The returned :class:`CompiledLineage` is shared cache state, so
        its circuit is frozen on insertion: mutation attempts raise
        instead of silently corrupting other holders (grow a copy via
        :func:`repro.circuits.operations.copy_into` instead).
        """
        if fingerprint is None:
            fingerprint = instance.content_fingerprint()

        def compile_frozen() -> CompiledLineage:
            # Compiling grows instance-shared derivations (the side OBDD
            # managers gain nodes), so compiles over one instance
            # serialize on the *instance*: replica shards keep separate
            # caches over the same ``Instance``.
            with instance.derivation_lock:
                compiled = compile_lineage(query, instance)
            compiled.circuit.freeze()
            return compiled

        return self._get_or_build((query, fingerprint), compile_frozen)

    def stats(self) -> CompilationCacheStats:
        """A coherent snapshot of this cache's own counters (the
        pair-query counters of the module-level
        :func:`compilation_cache_stats` are process-wide and not
        per-cache)."""
        return CompilationCacheStats(*self.counts())

    def keys(self) -> tuple[tuple, ...]:
        """The cached ``(query, fingerprint)`` keys, LRU-oldest first."""
        with self._lock:
            return tuple(self._entries)


_DEFAULT_CACHE = CompilationCache()


def compile_lineage_cached(
    query: HQuery,
    instance: Instance,
    fingerprint: tuple | None = None,
    cache: CompilationCache | None = None,
) -> tuple[CompiledLineage, bool]:
    """:func:`repro.pqe.intensional.compile_lineage` behind an LRU cache
    keyed by ``(query, instance fingerprint)``.

    The compiled d-D depends only on the query and the instance — not on
    tuple probabilities — so repeated evaluations over the same data (the
    paper's update/re-evaluate workloads) reuse one circuit and its tape.
    ``fingerprint`` lets callers that already hold the instance's
    :meth:`~repro.db.relation.Instance.content_fingerprint` (e.g. batch
    grouping) pass it through; ``cache`` selects a caller-owned
    :class:`CompilationCache` (per-shard state in :mod:`repro.serving`)
    instead of the process-wide default.  Returns
    ``(compiled, was_cache_hit)``.
    """
    return (cache if cache is not None else _DEFAULT_CACHE).get_or_compile(
        query, instance, fingerprint
    )


def compilation_cache_stats(
    cache: CompilationCache | None = None,
) -> CompilationCacheStats:
    """A snapshot of the cache counters (the default cache's unless a
    caller-owned one is passed), plus the process-wide pair-query
    counters."""
    pair_hits, pair_misses = pair_cache_counters()
    snapshot = (cache if cache is not None else _DEFAULT_CACHE).stats()
    snapshot.pair_hits = pair_hits
    snapshot.pair_misses = pair_misses
    return snapshot


def clear_compilation_cache(cache: CompilationCache | None = None) -> None:
    """Drop all cached compiled lineages and reset the counters (the
    default cache's unless a caller-owned one is passed).

    The pair-query counters of :mod:`repro.pqe.degenerate` are
    process-wide, so they are reset only with the default cache —
    clearing one shard's cache must not zero observability shared by
    every other shard.
    """
    if cache is not None:
        cache.clear()
        return
    _DEFAULT_CACHE.clear()
    reset_pair_cache_counters()


def route_of(query, classification: Classification, tuples: int) -> str:
    """The route the Figure-1 dichotomy sends ``query`` down, one of
    :data:`ROUTES`; the first match wins:

    * a safe query takes the lifted plan: ``"extensional"`` for an
      :class:`~repro.queries.hqueries.HQuery` (the Möbius-inversion
      plans of the paper's safe side), ``"lifted"`` otherwise;
    * an h-query in d-D(PTIME) is compiled: ``"intensional"``;
    * a hard query is enumerated on at most :data:`BRUTE_FORCE_LIMIT`
      tuples (``"brute_force"``) and sampled above that
      (``"sampling"``).

    ``tuples`` is the instance size.  This is the one routing rule:
    :func:`evaluate`, :func:`evaluate_batch` and the serving shards all
    dispatch on it.
    """
    if classification.extensional_safe:
        return _plan_label(query)
    if classification.h_query and classification.dd_ptime:
        return "intensional"
    return "brute_force" if tuples <= BRUTE_FORCE_LIMIT else "sampling"


def evaluate(
    query: HQuery,
    tid: TupleIndependentDatabase,
    method: str = "auto",
    cache: CompilationCache | None = None,
    plan_cache: ExtensionalPlanCache | None = None,
    budget: AccuracyBudget | None = None,
    deadline: Deadline | None = None,
) -> EvaluationResult:
    """Evaluate ``Pr(Q_phi)`` with the selected (or automatic) engine.

    :param method: ``"auto"``, ``"extensional"``, ``"lifted"``,
        ``"intensional"``, ``"brute_force"`` or ``"sampling"``.
        ``query`` may be an :class:`~repro.queries.hqueries.HQuery` or
        any UCQ/CQ the lifted engine accepts
        (:class:`~repro.queries.ucq.UnionOfCQs`,
        :class:`~repro.queries.cq.ConjunctiveQuery`); non-h queries
        route lift → brute force → sampling in auto mode and report
        ``engine="lifted"`` on the lifted path.  ``"lifted"`` on an
        h-query is the extensional fast path (the h-kernels *are* lift
        IR ops).  Auto mode picks the route with :func:`route_of` and
        then runs exactly the code the explicit method runs.
    :param cache: a caller-owned :class:`CompilationCache` for the
        intensional route (defaults to the process-wide cache).
    :param plan_cache: a caller-owned
        :class:`~repro.pqe.extensional.ExtensionalPlanCache` for the
        extensional route (defaults to the process-wide cache).
    :param budget: an :class:`~repro.pqe.approximate.AccuracyBudget` for
        the sampling route.  In auto mode, passing a budget turns the
        hard-and-large refusal into a budget-adaptive randomized
        estimate (Karp–Luby for UCQs, Monte Carlo otherwise) — the
        serving layer's routing; without one, auto mode still refuses.
        With ``method="sampling"`` the sampler runs unconditionally
        (``None`` means the default budget).
    :param deadline: an optional :class:`~repro.core.deadline.Deadline`
        checked cooperatively — at entry, between compilation and the
        sweep, and between sampling waves — raising
        :class:`~repro.core.deadline.DeadlineExceeded` instead of
        finishing work nobody will read.  Checks never interrupt a
        sweep, so any answer that *is* produced is bit-identical to the
        deadline-free one.
    :raises HardQueryError: in auto mode, when the query is not zero-Euler,
        the instance exceeds :data:`BRUTE_FORCE_LIMIT` tuples and no
        ``budget`` was given.
    :raises ValueError: for an unknown method, or from the explicit
        engines' own validation.
    """
    if deadline is not None:
        deadline.check("evaluation admission")
    classification = classify_query(query)
    route = method
    if method == "auto":
        route = route_of(query, classification, len(tid))
        if route == "sampling" and budget is None:
            raise HardQueryError(_refusal(classification, len(tid)))
    if route in ("extensional", "lifted"):
        # The Dalvi–Suciu plan from the plan cache, evaluated by the IR
        # backends: no lineage, no circuit, no compilation.
        plan, hit = plan_for(query, plan_cache)
        return EvaluationResult(
            evaluate_plan(plan, tid),
            _plan_label(query),
            classification,
            cache_hit=hit,
        )
    if route == "intensional":
        _require_h_query(query)
        compiled, hit = compile_lineage_cached(query, tid.instance, cache=cache)
        if deadline is not None:
            deadline.check("post-compilation")
        return EvaluationResult(
            compiled.probability(tid),
            "intensional",
            classification,
            compiled,
            cache_hit=hit,
            compile_ms=0.0 if hit else compiled.compile_ms,
        )
    if route == "brute_force":
        return EvaluationResult(
            probability_by_lineage_enumeration(query, tid),
            "brute_force",
            classification,
        )
    if route == "sampling":
        # The served probability is the estimate clamped to [0, 1]
        # (Karp–Luby's unbiased W * fraction can land outside when the
        # union-bound weight exceeds 1); the raw estimate rides along.
        plan = sampling_plan(query, tid)
        estimate = plan.run(budget, deadline=deadline)
        return EvaluationResult(
            Fraction(min(1.0, max(0.0, estimate.value))),
            plan.engine,
            classification,
            estimate=estimate,
        )
    raise ValueError(f"unknown method {method!r}")


def _plan_label(query) -> str:
    """The engine label of the lifted-plan route: ``"extensional"`` for
    h-queries (the Möbius-inversion plans of the paper's safe side),
    ``"lifted"`` for general UCQs/CQs."""
    return "extensional" if isinstance(query, HQuery) else "lifted"


def _require_h_query(query) -> None:
    if not isinstance(query, HQuery):
        raise ValueError(
            "the intensional compiler handles h-queries only; use "
            "method='lifted' (or 'auto') for general UCQs"
        )


def _refusal(classification: Classification, tuples: int) -> str:
    """Why auto mode refuses a hard query on ``tuples`` tuples."""
    if classification.h_query:
        adjective = (
            "#P-hard" if classification.region is Region.HARD else
            "conjectured #P-hard"
        )
        diagnosis = f"query is {adjective} (e(phi) = {classification.euler})"
    else:
        diagnosis = (
            "the safe-plan search found no plan "
            "(#P-hard by the UCQ dichotomy)"
        )
    return (
        f"{diagnosis} and the "
        f"instance has {tuples} > {BRUTE_FORCE_LIMIT} tuples; pass "
        f"budget= (or method='sampling') for a randomized estimate, or "
        f"method='brute_force' to force the exponential engine"
    )


def evaluate_batch(
    query: HQuery,
    tids: Iterable[TupleIndependentDatabase],
    method: str = "auto",
    cache: CompilationCache | None = None,
    plan_cache: ExtensionalPlanCache | None = None,
    budget: AccuracyBudget | None = None,
    deadline: Deadline | None = None,
) -> BatchEvaluationResult:
    """Evaluate ``Pr(Q_phi)`` over many TIDs in one float-mode sweep.

    The many-TID / updated-probability workload.  Safe monotone queries
    take the extensional path: one plan lookup for the whole batch
    (``plan_cache`` selects a caller-owned
    :class:`~repro.pqe.extensional.ExtensionalPlanCache`), then every
    TID's probability columns swept by the vectorized lifted backend —
    bit-for-float identical to per-TID :func:`evaluate` float results.
    Other d-D(PTIME) queries compile once per instance fingerprint —
    through the engine cache (``cache`` selects a caller-owned
    :class:`CompilationCache`) — and their probability maps run as a
    single batched pass of the compiled tape.

    ``method`` may be ``"auto"``, ``"extensional"``, ``"intensional"``
    or ``"sampling"``.  In auto mode a query outside d-D(PTIME) falls
    back to per-TID :func:`evaluate` (with its brute-force size limits;
    a ``budget`` turns the hard-and-large refusal into the vectorized
    sampling route, exactly as in :func:`evaluate`).  ``"sampling"``
    runs the budget-adaptive sampler on every TID — plans share their
    clause structure / indicator tape per instance content, so a batch
    over one instance builds the lineage once.  ``"intensional"``
    propagates the compiler's own
    :class:`~repro.pqe.intensional.NotCompilableError`, ``"extensional"``
    the lifted engine's
    :class:`~repro.pqe.extensional.UnsafeQueryError`.

    An empty ``tids`` returns an empty, well-defined result: no
    probabilities, no compiled circuit, and the engine label the
    non-empty batch would have carried (``"extensional"`` /
    ``"intensional"`` when the query routes to a batched path,
    ``"brute_force"`` for the auto-mode fallback) — never the method
    name.  ``cache_hits`` counts compilation-cache hits on the
    intensional path and plan-cache hits (0 or 1: one lookup serves the
    batch) on the extensional path.

    Probabilities are returned as floats (the batch backend); use
    :func:`evaluate` for exact single-TID results.  A ``deadline`` is
    checked cooperatively (at entry, between per-TID sweeps, and inside
    the sampler's wave loop) with the same semantics as
    :func:`evaluate`: the batch either finishes in full or raises
    :class:`~repro.core.deadline.DeadlineExceeded` — it never returns a
    partial result.
    """
    tid_list = list(tids)
    if deadline is not None:
        deadline.check("batch admission")
    classification = classify_query(query)
    if method not in ("auto", "intensional", "extensional", "lifted", "sampling"):
        raise ValueError(f"unknown batch method {method!r}")
    # Zero tuples: in auto mode the instance size only splits a hard
    # query between brute force and sampling, which run per TID below.
    route = route_of(query, classification, 0) if method == "auto" else method
    if route == "sampling":
        if not tid_list:
            label = "karp_luby" if query.is_ucq() else "monte_carlo"
            return BatchEvaluationResult([], label, classification)
        probabilities = []
        label = ""
        for tid in tid_list:
            plan = sampling_plan(query, tid)
            label = plan.engine
            estimate = plan.run(budget, deadline=deadline)
            probabilities.append(min(1.0, max(0.0, estimate.value)))
        return BatchEvaluationResult(probabilities, label, classification)
    if route in ("extensional", "lifted"):
        if not tid_list:
            label = _plan_label(query)
            return BatchEvaluationResult([], label, classification)
        plan, hit = plan_for(query, plan_cache)
        return BatchEvaluationResult(
            evaluate_plan_batch(plan, tid_list),
            _plan_label(query),
            classification,
            cache_hits=int(hit),
        )
    if route == "brute_force":
        results = [
            evaluate(
                query, tid, method="auto", cache=cache, budget=budget,
                deadline=deadline,
            )
            for tid in tid_list
        ]
        engines = [r.engine for r in results]
        # Per-TID fallbacks may pick different engines (instance-size
        # dependent); a single borrowed label would misreport the rest.
        distinct = set(engines) or {route}
        label = distinct.pop() if len(distinct) == 1 else "mixed"
        return BatchEvaluationResult(
            [float(r.probability) for r in results],
            label,
            classification,
            engines=engines,
        )
    _require_h_query(query)
    groups: OrderedDict[tuple, list[int]] = OrderedDict()
    for position, tid in enumerate(tid_list):
        groups.setdefault(
            tid.instance.content_fingerprint(), []
        ).append(position)
    probabilities = [0.0] * len(tid_list)
    compiled: CompiledLineage | None = None
    cache_hits = 0
    for fingerprint, positions in groups.items():
        if deadline is not None:
            deadline.check("batch compilation")
        compiled, hit = compile_lineage_cached(
            query, tid_list[positions[0]].instance, fingerprint, cache
        )
        cache_hits += int(hit)
        batch = compiled.probability_batch(
            [tid_list[i] for i in positions]
        )
        for position, value in zip(positions, batch):
            probabilities[position] = value
    if len(groups) != 1:
        compiled = None  # No single circuit covers a multi-instance batch.
    return BatchEvaluationResult(
        probabilities, "intensional", classification, compiled, cache_hits
    )
