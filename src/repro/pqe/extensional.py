"""Extensional (lifted-inference) evaluation of H+-queries.

This is the Dalvi–Suciu side of the paper's dichotomy, specialized to the
H+-queries (Proposition 3.5): write the monotone ``phi`` in minimized CNF
``C_0 ∧ ... ∧ C_n``, apply inclusion–exclusion

``Pr(∧_i C_i) = sum over nonempty s of (-1)^{|s|+1} Pr(∨_{i in s} C_i)``,

and observe that ``∨_{i in s} C_i`` only depends on the *union*
``d_s = ∪_{i in s} C_i`` — the CNF-lattice element.  Collapsing equal
unions turns the coefficients into Möbius-function values of the lattice
(this is the Möbius inversion step the paper's title refers to), so

``Pr(Q_phi) = - sum over lattice elements u < 1̂ of mu(u, 1̂) * Pr(Q_u)``

with ``Q_u = ∨_{j in u} h_{k,j}``.  Every ``u`` except the bottom
``0̂ = DEP(phi)`` is a proper subset of ``{0..k}`` and is lifted by
:mod:`repro.pqe.safe_plans`; the bottom is the #P-hard full disjunction,
and the query is safe exactly when its coefficient ``mu(0̂, 1̂)`` — equal to
``e(phi)`` by Lemma 3.8 — vanishes, letting the hard subquery *cancel out*.

Evaluation is staged through a :class:`~repro.pqe.lift.LiftPlan` — the
plan IR of the general lifted engine (:mod:`repro.pqe.lift`): an
:class:`~repro.pqe.lift.InclusionExclusion` over the Möbius terms, each
an :class:`~repro.pqe.lift.IndependentUnion` of
:class:`~repro.pqe.lift.HRunKernel` leaves that delegate to the chain-DP
sweeps of :mod:`repro.pqe.safe_plans`.  The plan is built once per query
(behind :class:`ExtensionalPlanCache`, the extensional sibling of the
engine's compilation cache) and reused across every probability call.
Distinct runs share one kernel op, so one evaluation lifts each distinct
run exactly once over the TID's columnar view
(:func:`repro.db.columnar.h_columns`) and every lattice term combines the
shared run values — q_9's seven terms reference eleven runs, only seven
of them distinct.  General UCQs share the same evaluators and plan cache.

Both the collapsed (Möbius) and the uncollapsed (raw inclusion–exclusion)
evaluations are provided; they agree term-for-term after grouping, which a
test verifies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from repro.lattice.cnf_lattice import cnf_lattice, dnf_lattice
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.lift import (
    LIFT_FALSE,
    LIFT_TRUE,
    HRunKernel,
    InclusionExclusion,
    IndependentUnion,
    LiftPlan,
    UnsafeQueryError,
    evaluate_plan,
    evaluate_plan_batch,
    evaluate_plan_float,
    lift_query,
)
from repro.pqe.safe_plans import (
    UnsafeSubqueryError,
    disjunction_probability,
    runs_of,
)
from repro.queries.hqueries import HQuery

EXTENSIONAL_PLAN_CACHE_LIMIT = 256  #: max cached plans (LRU)

__all__ = [
    "EXTENSIONAL_PLAN_CACHE_LIMIT",
    "ExtensionalPlanCache",
    "ExtensionalPlanCacheStats",
    "UnsafeQueryError",
    "build_plan",
    "clear_extensional_plan_cache",
    "extensional_plan_stats",
    "is_safe",
    "lattice_cache_counters",
    "mobius_terms",
    "plan_for",
    "probability",
    "probability_batch",
    "probability_by_raw_inclusion_exclusion",
    "probability_float",
]


@lru_cache(maxsize=EXTENSIONAL_PLAN_CACHE_LIMIT)
def _mobius_terms_of(phi) -> tuple[tuple[frozenset[int], int], ...]:
    """The memoized lattice walk behind :func:`mobius_terms`: CNF lattice
    plus Möbius column, computed once per (monotone, non-constant) phi."""
    lattice = cnf_lattice(phi)
    column = lattice.mobius_column()
    terms = []
    for element, mobius_value in column.items():
        if element == lattice.top:  # u = 1̂ contributes Pr(empty ∨) = 0.
            continue
        if mobius_value == 0:
            continue
        terms.append((element, -mobius_value))
    return tuple(terms)


def mobius_terms(query: HQuery) -> list[tuple[frozenset[int], int]]:
    """The lattice elements and their coefficients ``-mu(u, 1̂)`` as used by
    the lifted evaluation, for a monotone non-constant ``phi``; terms with
    zero coefficient are dropped (this is where hard subqueries cancel).

    Memoized per ``phi`` (LRU of :data:`EXTENSIONAL_PLAN_CACHE_LIMIT`
    entries): the lattice and its Möbius column depend only on the query,
    so repeated ``probability()`` calls never rebuild them.
    """
    phi = query.phi
    if not phi.is_monotone():
        raise UnsafeQueryError(
            "the extensional engine handles UCQs (monotone phi) only"
        )
    return list(_mobius_terms_of(phi))


# ----------------------------------------------------------------------
# Plans: Möbius terms resolved to shared run kernels
# ----------------------------------------------------------------------


def build_plan(query: HQuery) -> LiftPlan:
    """The extensional plan of ``query`` in the :mod:`repro.pqe.lift`
    IR: an inclusion–exclusion sum over the Möbius terms, each an
    independent union of :class:`~repro.pqe.lift.HRunKernel` leaves.
    Distinct runs share one kernel op, so the IR evaluators' per-op memo
    lifts every distinct run once per TID; constant queries (``phi``
    bottom/top) plan to the constant ops.

    :raises UnsafeQueryError: if ``phi`` is not monotone, or is monotone
        nondegenerate with non-zero CNF-lattice Möbius value (then
        ``PQE(Q_phi)`` is #P-hard and has no extensional plan).
    """
    phi = query.phi
    if not phi.is_monotone():
        raise UnsafeQueryError(
            "the extensional engine handles UCQs (monotone phi) only"
        )
    if phi.is_bottom():
        return LiftPlan(query=query, root=LIFT_FALSE)
    if phi.is_top():
        return LiftPlan(query=query, root=LIFT_TRUE)
    kernels: dict[tuple[int, int], HRunKernel] = {}
    terms = []
    for element, coefficient in mobius_terms(query):
        parts = []
        for run in runs_of(element):
            if run == (0, query.k):
                raise UnsafeQueryError(
                    "query is unsafe: the #P-hard bottom subquery has "
                    f"non-zero Möbius coefficient {-coefficient} "
                    "(= -e(phi) by Lemma 3.8)"
                )
            kernel = kernels.get(run)
            if kernel is None:
                kernel = kernels[run] = HRunKernel(run, query.k)
            parts.append(kernel)
        terms.append((coefficient, IndependentUnion(tuple(parts))))
    return LiftPlan(query=query, root=InclusionExclusion(tuple(terms)))


def lattice_cache_counters() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters of the module-level lattice ``lru_cache``s
    (all bounded at :data:`EXTENSIONAL_PLAN_CACHE_LIMIT`-sized maxima, so
    long-lived serving processes cannot grow them without limit).  These
    are process-wide — plans are data-independent, so every shard shares
    the same lattice walks."""
    counters: dict[str, dict[str, int]] = {}
    for name, cached in (
        ("mobius_terms", _mobius_terms_of),
        ("cnf_lattice", cnf_lattice),
        ("dnf_lattice", dnf_lattice),
    ):
        info = cached.cache_info()
        counters[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "limit": info.maxsize,
        }
    return counters


@dataclass
class ExtensionalPlanCacheStats:
    """Counters of one plan cache, in the mold of
    :class:`repro.pqe.engine.CompilationCacheStats`.

    ``lattice_caches`` carries the process-wide lattice ``lru_cache``
    counters (:func:`lattice_cache_counters`) so serving stats expose
    them without a second channel; hand-built snapshots may leave it
    empty."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    lattice_caches: dict[str, dict[str, int]] = field(default_factory=dict)


class ExtensionalPlanCache:
    """A thread-safe LRU of lifted plans keyed by the query.

    Plans depend only on the query (never on data), so one entry serves
    every TID the query is evaluated over.  The module keeps one default
    instance behind :func:`probability`; :mod:`repro.serving` gives every
    shard its own, mirroring the per-shard compilation caches.  A build
    that raises (unsafe or non-monotone query) is *not* cached and counts
    as neither hit nor miss.

    Keys may be :class:`~repro.queries.hqueries.HQuery` (planned by
    :func:`build_plan`) or any query :func:`repro.pqe.lift.lift_query`
    accepts — UCQs and CQs; every value is a
    :class:`~repro.pqe.lift.LiftPlan`.
    """

    def __init__(self, limit: int = EXTENSIONAL_PLAN_CACHE_LIMIT):
        if limit < 1:
            raise ValueError(f"cache limit must be positive, got {limit}")
        self.limit = limit
        self._entries: OrderedDict[object, LiftPlan] = OrderedDict()
        self._stats = ExtensionalPlanCacheStats()
        self._lock = threading.RLock()

    def get_or_build(self, query) -> tuple[LiftPlan, bool]:
        """The cached plan for ``query``, building on a miss.  Returns
        ``(plan, was_cache_hit)``.

        :raises UnsafeQueryError: as :func:`build_plan` /
            :func:`repro.pqe.lift.lift_query`.
        """
        with self._lock:
            cached = self._entries.get(query)
            if cached is not None:
                self._entries.move_to_end(query)
                self._stats.hits += 1
                return cached, True
        if isinstance(query, HQuery):
            plan = build_plan(query)
        else:
            plan = lift_query(query)
        with self._lock:
            racing = self._entries.get(query)
            if racing is not None:
                self._entries.move_to_end(query)
                self._stats.hits += 1
                return racing, True
            self._stats.misses += 1
            self._entries[query] = plan
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
        return plan, False

    def stats(self) -> ExtensionalPlanCacheStats:
        """A coherent snapshot of the counters, including the process-wide
        lattice ``lru_cache`` counters (:func:`lattice_cache_counters`)."""
        with self._lock:
            return ExtensionalPlanCacheStats(
                self._stats.hits,
                self._stats.misses,
                self._stats.evictions,
                lattice_cache_counters(),
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._stats.hits = 0
            self._stats.misses = 0
            self._stats.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_DEFAULT_PLAN_CACHE = ExtensionalPlanCache()


def plan_for(
    query, cache: ExtensionalPlanCache | None = None
) -> tuple[LiftPlan, bool]:
    """The cached lifted plan of ``query`` (the default cache's
    unless a caller-owned one is passed); returns ``(plan, was_hit)``.

    :raises UnsafeQueryError: as :func:`build_plan`.
    """
    return (cache if cache is not None else _DEFAULT_PLAN_CACHE).get_or_build(
        query
    )


def extensional_plan_stats(
    cache: ExtensionalPlanCache | None = None,
) -> ExtensionalPlanCacheStats:
    """A snapshot of the plan-cache counters (the default cache's unless
    a caller-owned one is passed) — the extensional analogue of
    :func:`repro.pqe.engine.compilation_cache_stats`."""
    return (cache if cache is not None else _DEFAULT_PLAN_CACHE).stats()


def clear_extensional_plan_cache(
    cache: ExtensionalPlanCache | None = None,
) -> None:
    """Drop all cached plans and reset the counters (the default cache's
    unless a caller-owned one is passed)."""
    (cache if cache is not None else _DEFAULT_PLAN_CACHE).clear()


# ----------------------------------------------------------------------
# Evaluation: one batched sweep over the plan's distinct runs
# ----------------------------------------------------------------------


def probability(
    query: HQuery,
    tid: TupleIndependentDatabase,
    *,
    plan: LiftPlan | None = None,
) -> Fraction:
    """``Pr(Q_phi)`` by lifted inference (Möbius inversion + safe plans).

    Handles every monotone ``phi``: constants directly, degenerate ones via
    the same lattice formula (their lattices never contain the full index
    set), and nondegenerate ones when ``mu(0̂,1̂) = 0``.  Exact
    :class:`~fractions.Fraction` arithmetic on the columnar integer
    backend; ``plan`` reuses a plan the caller already holds (the default
    goes through the module's plan cache).

    :raises UnsafeQueryError: if ``phi`` is not monotone, or is monotone
        nondegenerate with non-zero CNF-lattice Möbius value (then
        ``PQE(Q_phi)`` is #P-hard and has no extensional plan).
    """
    if plan is None:
        plan, _ = _DEFAULT_PLAN_CACHE.get_or_build(query)
    return evaluate_plan(plan, tid)


def probability_float(
    query: HQuery,
    tid: TupleIndependentDatabase,
    *,
    plan: LiftPlan | None = None,
) -> float:
    """The float backend of :func:`probability`: vectorized run sweeps
    over the columnar view — the extensional analogue of
    :meth:`~repro.pqe.intensional.CompiledLineage.probability_float`.

    :raises UnsafeQueryError: as :func:`probability`.
    """
    if plan is None:
        plan, _ = _DEFAULT_PLAN_CACHE.get_or_build(query)
    return evaluate_plan_float(plan, tid)


def probability_batch(
    query: HQuery,
    tids: list[TupleIndependentDatabase],
    *,
    plan: LiftPlan | None = None,
) -> list[float]:
    """Float-mode ``Pr(Q_phi)`` over many TIDs, sharing one plan.

    Each TID's columnar view is resolved (through its own version-keyed
    cache) and swept independently, so batch composition never changes
    any individual float: the result is bit-for-float identical to
    mapping :func:`probability_float` over the TIDs — the property the
    serving layer's microbatcher relies on.

    :raises UnsafeQueryError: as :func:`probability`.
    """
    if plan is None:
        plan, _ = _DEFAULT_PLAN_CACHE.get_or_build(query)
    return evaluate_plan_batch(plan, tids)


def probability_by_raw_inclusion_exclusion(
    query: HQuery, tid: TupleIndependentDatabase
) -> Fraction:
    """The *uncollapsed* inclusion–exclusion over all ``2^{n+1} - 1``
    nonempty clause subsets — exponentially many terms in the number of CNF
    clauses (still polynomial in the data).  Agrees with
    :func:`probability`; kept separate to exhibit the collapse the Möbius
    function performs.

    :raises UnsafeQueryError: as for :func:`probability`.
    """
    phi = query.phi
    if not phi.is_monotone():
        raise UnsafeQueryError(
            "the extensional engine handles UCQs (monotone phi) only"
        )
    if phi.is_bottom():
        return Fraction(0)
    if phi.is_top():
        return Fraction(1)
    clauses = phi.minimized_cnf()
    # Group subsets by their union to let hard subqueries cancel before any
    # evaluation, exactly as the lattice does.
    coefficient_of: dict[frozenset[int], int] = {}
    for size in range(1, len(clauses) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(range(len(clauses)), size):
            union: frozenset[int] = frozenset()
            for i in subset:
                union |= clauses[i]
            coefficient_of[union] = coefficient_of.get(union, 0) + sign
    total = Fraction(0)
    for union, coefficient in sorted(
        coefficient_of.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        if coefficient == 0:
            continue
        try:
            term = disjunction_probability(union, query.k, tid)
        except UnsafeSubqueryError as error:
            raise UnsafeQueryError(
                "query is unsafe: the full disjunction survives "
                "inclusion–exclusion with non-zero coefficient"
            ) from error
        total += coefficient * term
    return total


def is_safe(query: HQuery) -> bool:
    """The dichotomy test (Proposition 3.5 + Corollary 3.9) for UCQs:
    degenerate monotone functions are safe; nondegenerate ones are safe iff
    ``e(phi) = 0`` (equivalently ``mu_CNF(0̂,1̂) = 0``).

    :raises ValueError: if ``phi`` is not monotone (the dichotomy of [12]
        does not apply; see :mod:`repro.pqe.dichotomy` for the paper's
        extension).
    """
    phi = query.phi
    if not phi.is_monotone():
        raise ValueError("safety via [12] is defined for monotone phi only")
    if phi.is_degenerate():
        return True
    return phi.euler_characteristic() == 0
