"""Approximate probabilistic query evaluation (the fourth engine),
vectorized.

The dichotomy leaves the non-zero-Euler H-queries #P-hard, but hardness is
about *exact* computation: the standard practical recourse — and the one
probabilistic-database systems actually ship — is randomized approximation.
Two estimators are provided, both routes of :class:`SamplingPlan`:

* *Monte Carlo* — draw worlds from the TID distribution and average the
  query's indicator.  Unbiased, additive error ``O(1/sqrt(samples))``;
  useless for tiny probabilities.  The ``monte_carlo`` route, also
  reachable as :func:`monte_carlo_probability_vectorized`.

* *Karp–Luby* — the importance sampler on the monotone DNF lineage:
  sample a witness-clause proportionally to its weight, complete it to a
  world, and count the fraction of samples where the sampled clause is
  the *canonical* (first) satisfied one.  Scaled by the union bound, this
  is unbiased with *relative* error guarantees — an FPRAS for UCQ
  lineages, hard queries included.  The ``karp_luby`` route, also
  reachable as :func:`karp_luby_probability_vectorized`.

:func:`monte_carlo_probability` and :func:`karp_luby_probability` keep
the ``random.Random`` calling convention: each draws one 64-bit seed from
``rng`` and runs the fixed-count plan under it, so the same ``rng`` state
gives the same estimate.  The engine runs on batched substrates:

* **world sampling** — a seeded counter-based integer draw stream
  (:class:`repro.db.tid.WorldSampler`) materialized as a
  ``samples × tuples`` 0/1 matrix, per-tuple draws exactly
  ``Bernoulli(p)`` by integer rejection;
* **indicator evaluation** — UCQ lineages go through a clause-incidence
  bit-matrix (a grouped gather + ``all``/first-satisfied reduction over
  the world matrix); non-monotone lineages compile once to the naive
  lineage circuit and run
  :meth:`repro.circuits.evaluator.EvaluationTape.evaluate_worlds`, the
  Boolean tape backend, instead of re-grounding the query per world;
* **clause selection** — integer common-denominator prefix sums searched
  with ``searchsorted`` (strict-boundary convention of
  :func:`_choose_clauses`), conditioned world completion and
  first-satisfied-clause detection as matrix ops;
* **budget-adaptive estimation** — :meth:`SamplingPlan.run` samples in
  doubling waves until the :class:`AccuracyBudget`'s half-width target is
  met.  The counter-addressed stream gives a *prefix property*: the first
  ``n`` samples are the same integers under any wave schedule, so an
  adaptive run that stops at ``n`` equals a fixed-count run of ``n``
  bit for bit.

Estimates carry a (normal-approximation or Wilson) half-width so tests
and benches can assert statistically, never exactly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as _np

from repro.circuits.evaluator import EvaluationTape, tape_for
from repro.core.deadline import Deadline
from repro.db.relation import Instance, TupleId
from repro.db.tid import (
    DrawStream,
    TupleIndependentDatabase,
    WorldSampler,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.hqueries import HQuery
from repro.queries.lineage import hquery_lineage_circuit_naive
from repro.queries.ucq import UnionOfCQs, hquery_to_ucq

#: Normal-approximation z-score behind every ~95% half-width; the
#: :class:`AccuracyBudget` arithmetic must match it.
Z_95 = 1.96

#: Stream lanes: world-cell draws and clause-selection draws live on
#: disjoint counter sequences of the same seed.
WORLD_LANE = 0
CLAUSE_LANE = 1

#: Samples per block in the vectorized waves: bounds the working-set
#: memory of the gathered clause-incidence tensors without changing any
#: draw (the stream is counter-addressed).
_WAVE_CHUNK = 2048

_INTERVALS = ("normal", "wilson")


@dataclass(frozen=True)
class AccuracyBudget:
    """How much accuracy a sampled answer must buy, per request.

    ``epsilon`` is the target ~95% half-width of the estimate.  The
    worst-case sample size is the normal approximation over the
    indicator's variance, ``n = ceil((Z_95 / (2 * epsilon))**2)``,
    clamped to ``[min_samples, max_samples]``.  For the Monte-Carlo
    estimator that bounds the *absolute* half-width by ``epsilon``; for
    Karp–Luby the half-width scales with the union-bound weight ``W``,
    so ``epsilon`` bounds the error *relative to W* — the relative-error
    regime that makes Karp–Luby an FPRAS.

    ``adaptive`` (the default) samples in doubling waves and stops as
    soon as the (Wilson, robust-at-extremes) half-width meets the
    target, never exceeding the fixed-count worst case ``samples()``;
    ``adaptive=False`` always draws exactly ``samples()``.  Thanks to
    the counter-addressed draw stream both modes agree bit for bit on
    any common sample prefix.

    ``interval`` selects the *reported* half-width: ``"normal"`` (the
    default; exactly 0.0 at 0 or n hits) or ``"wilson"`` (asymmetric,
    never degenerate at the extremes).

    ``seed`` makes the answer deterministic: a request re-submitted with
    the same budget draws the same sample path, so shard workers (and
    retries) can rely on reproducible estimates.

    ``delta`` is the interval's miss probability (confidence
    ``1 - delta``); the default 0.05 reproduces the historical ~95%
    :data:`Z_95` arithmetic bit for bit (:meth:`z` returns the constant
    exactly there, a computed quantile otherwise).

    Construction validates every field eagerly — a bad ``epsilon`` or
    ``delta`` fails here with a clear :class:`ValueError`, not later as
    a division error or an infinite wave loop inside a shard worker.
    """

    epsilon: float = 0.05
    min_samples: int = 100
    max_samples: int = 50_000
    seed: int = 0
    adaptive: bool = True
    interval: str = "normal"
    delta: float = 0.05

    def __post_init__(self) -> None:
        if not (
            isinstance(self.epsilon, (int, float))
            and math.isfinite(self.epsilon)
            and 0 < self.epsilon < 1
        ):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if not (
            isinstance(self.delta, (int, float))
            and math.isfinite(self.delta)
            and 0 < self.delta < 1
        ):
            raise ValueError(f"delta must be in (0, 1), got {self.delta!r}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be positive, got {self.min_samples}"
            )
        if self.max_samples < self.min_samples:
            raise ValueError(
                f"max_samples {self.max_samples} below min_samples "
                f"{self.min_samples}"
            )
        if self.interval not in _INTERVALS:
            raise ValueError(
                f"interval must be one of {_INTERVALS}, got "
                f"{self.interval!r}"
            )

    def z(self) -> float:
        """The two-sided normal quantile of this budget's confidence —
        exactly :data:`Z_95` at the default ``delta=0.05``."""
        return _z_for_delta(self.delta)

    def samples(self) -> int:
        """The fixed-count sample size this budget purchases (see class
        docstring) — also the cap of the adaptive schedule."""
        worst_case = math.ceil((self.z() / (2 * self.epsilon)) ** 2)
        return max(self.min_samples, min(self.max_samples, worst_case))


@lru_cache(maxsize=64)
def _z_for_delta(delta: float) -> float:
    """``z`` with ``P(|N(0,1)| <= z) = 1 - delta``.

    ``delta=0.05`` returns the historical :data:`Z_95` constant exactly
    (every pre-``delta`` half-width pinned in tests and benches used it,
    and 1.96 is the convention, not the 1.95996... quantile).  Other
    deltas invert ``erf`` numerically: Winitzki's approximation as the
    initial guess, then Newton steps on :func:`math.erf` — accurate to
    ~1e-12 with no scipy dependency.
    """
    if delta == 0.05:
        return Z_95
    target = 1.0 - delta  # erf(z / sqrt(2)) = 1 - delta
    a = 0.147  # Winitzki's constant
    log_term = math.log(1.0 - target * target)
    t = 2.0 / (math.pi * a) + log_term / 2.0
    y = math.sqrt(math.sqrt(t * t - log_term / a) - t)
    for _ in range(4):
        y -= (
            (math.erf(y) - target)
            * math.sqrt(math.pi) / 2.0 * math.exp(y * y)
        )
    return y * math.sqrt(2.0)


@dataclass(frozen=True)
class Estimate:
    """A randomized estimate with an error bar.

    ``interval`` records which construction produced ``half_width``
    (``"normal"`` or ``"wilson"``); ``waves`` how many sampling waves an
    adaptive run took (1 for fixed-count runs, 0 for degenerate
    zero-lineage answers that drew nothing).
    """

    value: float
    half_width: float
    samples: int
    interval: str = "normal"
    waves: int = 1

    def covers(self, truth: float) -> bool:
        """Whether the (~95%) interval contains the given value."""
        return abs(self.value - truth) <= self.half_width


def _wilson_bounds(
    hits: int, samples: int, z: float = Z_95
) -> tuple[float, float]:
    """The Wilson score interval for ``hits / samples`` at quantile
    ``z`` (~95% at the default)."""
    z2 = z * z
    p = hits / samples
    denominator = 1 + z2 / samples
    center = (p + z2 / (2 * samples)) / denominator
    half = (
        z
        * math.sqrt(p * (1 - p) / samples + z2 / (4 * samples * samples))
        / denominator
    )
    return center - half, center + half


def half_width(
    hits: int,
    samples: int,
    scale: float = 1.0,
    interval: str = "normal",
    z: float = Z_95,
) -> float:
    """The half-width of ``scale * hits / samples`` at quantile ``z``
    (the ~95% :data:`Z_95` by default).

    ``"normal"`` is the classic normal approximation
    ``z * scale * sqrt(p(1-p)/n)`` — *exactly* 0.0 when ``hits`` is 0 or
    ``samples`` (the old ``max(p(1-p), 1e-12)`` floor manufactured a
    phantom nonzero width there, misreporting perfectly deterministic
    outcomes).  ``"wilson"`` returns the largest distance from the point
    estimate to the Wilson score bounds, which stays honest (nonzero) at
    the extremes — the width the adaptive sampler's stopping rule uses.
    """
    if samples <= 0:
        return 0.0
    if interval == "wilson":
        low, high = _wilson_bounds(hits, samples, z)
        p = hits / samples
        return scale * max(high - p, p - low)
    if interval != "normal":
        raise ValueError(
            f"interval must be one of {_INTERVALS}, got {interval!r}"
        )
    if hits == 0 or hits == samples:
        return 0.0
    p = hits / samples
    return z * scale * math.sqrt(p * (1 - p) / samples)


def _choose_clauses(cumulative: list[int], draws):
    """Per draw, the index of the first prefix sum *strictly* greater
    than it.

    Clause ``i`` owns the half-open draw interval
    ``[cumulative[i-1], cumulative[i])``, so a draw exactly equal to a
    prefix boundary selects the *next* clause — the convention matching
    uniform integer draws in ``[0, cumulative[-1])``, where each clause's
    interval has exactly ``w_i * D`` integers, and zero-weight clauses
    (empty intervals) are unreachable.  numpy's
    ``searchsorted(side="right")`` when the total fits int64;
    :func:`bisect.bisect_right` per draw for totals of ``2**63`` or more
    (exotic common denominators).  Returns an int64 array.
    """
    if cumulative[-1] < (1 << 63):
        return _np.searchsorted(
            _np.array(cumulative, dtype=_np.int64),
            _np.asarray(draws, dtype=_np.int64),
            side="right",
        )
    return _np.array(
        [bisect_right(cumulative, d) for d in draws], dtype=_np.int64
    )


# ----------------------------------------------------------------------
# Shared lineage structure (cached per query on the instance)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ClauseStructure:
    """The probability-free part of a UCQ lineage, in canonical clause
    order: clause tuple-sets, their positions in ``tuple_ids()`` order,
    and size groups for the vectorized first-satisfied reduction.  Cached
    via :meth:`~repro.db.relation.Instance.cached_derivation`, so every
    sampler (plans, serving microbatches) over the same instance shares
    one copy."""

    tuple_ids: tuple[TupleId, ...]
    clauses: tuple[frozenset, ...]
    positions: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    #: clauses grouped by size: ``(size, clause ids, position matrix)``
    #: as int64 arrays
    size_groups: tuple[tuple[int, object, object], ...]


def _as_union(query):
    """``query`` as a :class:`~repro.queries.ucq.UnionOfCQs`: UCQs and
    CQs pass through (they are their own monotone DNF), monotone
    h-queries translate, non-monotone ones return ``None``."""
    if isinstance(query, UnionOfCQs):
        return query
    if isinstance(query, ConjunctiveQuery):
        return UnionOfCQs((query,))
    if not query.is_ucq():
        return None
    return hquery_to_ucq(query)


def _clause_structure(
    query, instance: Instance
) -> _ClauseStructure | None:
    """The cached clause structure of a monotone query's lineage
    (h-query, UCQ or CQ), or ``None`` for non-monotone queries."""
    if _as_union(query) is None:
        return None

    def build(db: Instance) -> _ClauseStructure:
        ucq = _as_union(query)
        # Canonical clause order: sort by the clauses' sorted TupleId
        # tuples, not by repr — a frozenset's repr follows its
        # hash-salted iteration order, which would make the fixed-seed
        # sample path (and thus every "same seed, same estimate"
        # guarantee) vary per process.
        clauses = tuple(
            sorted(ucq.grounding_sets(db), key=lambda clause: sorted(clause))
        )
        tuple_ids = tuple(db.tuple_ids())
        index_of = {t: i for i, t in enumerate(tuple_ids)}
        positions = tuple(
            tuple(sorted(index_of[t] for t in clause)) for clause in clauses
        )
        by_size: dict[int, list[int]] = {}
        for j, clause_positions in enumerate(positions):
            by_size.setdefault(len(clause_positions), []).append(j)
        size_groups = []
        for size, ids in sorted(by_size.items()):
            matrix = (
                _np.array([positions[j] for j in ids], dtype=_np.int64)
                if size
                else _np.empty((len(ids), 0), dtype=_np.int64)
            )
            size_groups.append((size, _np.array(ids, dtype=_np.int64), matrix))
        return _ClauseStructure(
            tuple_ids=tuple_ids,
            clauses=clauses,
            positions=positions,
            sizes=tuple(len(p) for p in positions),
            size_groups=tuple(size_groups),
        )

    return instance.cached_derivation(("approximate.clauses", query), build)


def _indicator_tape(
    query: HQuery, instance: Instance
) -> tuple[EvaluationTape, tuple[int, ...]]:
    """The cached naive-lineage tape of a (possibly non-monotone) query
    plus the ``tuple_ids()``-order column of each tape slot.  The circuit
    is only ever evaluated with Boolean semantics
    (:meth:`~repro.circuits.evaluator.EvaluationTape.evaluate_worlds`),
    so it does not need to be a d-D — which a hard query's lineage never
    is."""

    def build(db: Instance):
        circuit = hquery_lineage_circuit_naive(query, db)
        tape = tape_for(circuit)
        index_of = {t: i for i, t in enumerate(db.tuple_ids())}
        columns = tuple(index_of[label] for label in tape.var_labels)
        # Keep the circuit alive: tape_for memoizes weakly per circuit.
        return (circuit, tape, columns)

    _, tape, columns = instance.cached_derivation(
        ("approximate.indicator_tape", query), build
    )
    return tape, columns


def _probability_columns(
    tid: TupleIndependentDatabase,
) -> tuple[list[int], list[int]]:
    """Per-tuple ``(numerator, denominator)`` columns in ``tuple_ids()``
    order — the probability map hoisted once per plan/sampler."""
    numerators: list[int] = []
    denominators: list[int] = []
    for t in tid.instance.tuple_ids():
        p = tid.probability_of(t)
        numerators.append(p.numerator)
        denominators.append(p.denominator)
    return numerators, denominators


def _clause_weights(
    structure: _ClauseStructure, tid: TupleIndependentDatabase
) -> list[Fraction]:
    probabilities = [
        tid.probability_of(t) for t in structure.tuple_ids
    ]
    weights = []
    for clause_positions in structure.positions:
        w = Fraction(1)
        for position in clause_positions:
            w *= probabilities[position]
        weights.append(w)
    return weights


def _cumulative_weights(
    weights: list[Fraction],
) -> tuple[list[int], Fraction]:
    """Integer prefix sums of the weights over one common denominator —
    clause selection must be *exactly* proportional, so draws are uniform
    integers below the total, never float grid points."""
    if not weights:
        return [], Fraction(0)
    denominator = math.lcm(*(w.denominator for w in weights))
    cumulative: list[int] = []
    running = 0
    for w in weights:
        running += w.numerator * (denominator // w.denominator)
        cumulative.append(running)
    return cumulative, sum(weights, Fraction(0))


# ----------------------------------------------------------------------
# The vectorized sampling engine
# ----------------------------------------------------------------------


class SamplingPlan:
    """Everything one hard query needs to be sampled over one TID: the
    route (``"karp_luby"`` for UCQs, ``"monte_carlo"`` otherwise), the
    cached lineage structure, and the hoisted probability columns.

    A plan is cheap to build (the clause structure / indicator tape are
    shared per ``(query, instance content)`` through
    ``Instance.cached_derivation``; the numeric columns are one pass over
    the probability map) and deterministic to run: estimates depend only
    on the budget's seed, never on wave boundaries or batch composition.
    """

    def __init__(
        self,
        query: HQuery,
        tid: TupleIndependentDatabase,
        engine: str | None = None,
    ):
        """``engine=None`` routes by the query's shape: ``"karp_luby"``
        for UCQs, ``"monte_carlo"`` otherwise.  An explicit
        ``engine="monte_carlo"`` forces the Monte-Carlo estimator on a
        monotone query too (its clause structure then doubles as the
        satisfied-any indicator); ``engine="karp_luby"`` on a
        non-monotone query raises (no monotone DNF lineage exists)."""
        self.query = query
        self.tid = tid
        self._structure = _clause_structure(query, tid.instance)
        if engine is None:
            engine = (
                "karp_luby" if self._structure is not None
                else "monte_carlo"
            )
        elif engine not in ("karp_luby", "monte_carlo"):
            raise ValueError(f"unknown sampling engine {engine!r}")
        elif engine == "karp_luby" and self._structure is None:
            raise ValueError("Karp–Luby needs a monotone (UCQ) query")
        self.engine = engine
        self._numerators, self._denominators = _probability_columns(tid)
        self._probabilities = [
            Fraction(n, d)
            for n, d in zip(self._numerators, self._denominators)
        ]
        self._weights: list[Fraction] = []
        self._cumulative: list[int] = []
        self._total_weight = Fraction(0)
        self._tape = None
        self._tape_columns = None
        if engine == "karp_luby":
            self._weights = _clause_weights(self._structure, tid)
            self._cumulative, self._total_weight = _cumulative_weights(
                self._weights
            )
        elif self._structure is None:
            self._tape, self._tape_columns = _indicator_tape(
                query, tid.instance
            )

    # -- public entry points -------------------------------------------

    def run(
        self,
        budget: AccuracyBudget | None = None,
        deadline: Deadline | None = None,
    ) -> Estimate:
        """Estimate under an accuracy budget: doubling waves until the
        Wilson half-width meets the target (``epsilon`` absolute for
        Monte Carlo, ``epsilon * W`` for Karp–Luby), capped at the
        budget's fixed-count ``samples()``; or exactly ``samples()`` when
        ``budget.adaptive`` is false.

        A ``deadline`` is checked cooperatively — at admission and
        before each wave — raising
        :class:`~repro.core.deadline.DeadlineExceeded` rather than
        starting work that cannot be used.  Checks sit *between* waves
        only, so a run that completes is untouched by its deadline: the
        estimate depends on ``(seed, budget)`` alone, never on the
        clock.
        """
        budget = budget if budget is not None else AccuracyBudget()
        if deadline is not None:
            deadline.check("sampling admission")
        cap = budget.samples()
        if self._degenerate():
            return Estimate(0.0, 0.0, 0, budget.interval, 0)
        scale = self._scale()
        z = budget.z()
        if not budget.adaptive:
            hits = self._wave_hits(0, cap, budget.seed)
            return self._estimate(hits, cap, budget.interval, 1, z)
        target = budget.epsilon * scale
        samples = 0
        hits = 0
        waves = 0
        next_samples = min(budget.min_samples, cap)
        while True:
            hits += self._wave_hits(
                samples, next_samples - samples, budget.seed
            )
            samples = next_samples
            waves += 1
            if samples >= cap:
                break
            if half_width(hits, samples, scale, "wilson", z) <= target:
                break
            if deadline is not None:
                deadline.check("sampling wave")
            next_samples = min(cap, 2 * samples)
        return self._estimate(hits, samples, budget.interval, waves, z)

    def run_fixed(
        self, samples: int, seed: int = 0, interval: str = "normal"
    ) -> Estimate:
        """A fixed-count estimate — by the stream's prefix property,
        identical to an adaptive run that happened to stop at the same
        sample count."""
        if samples <= 0:
            raise ValueError("samples must be positive")
        if self._degenerate():
            return Estimate(0.0, 0.0, samples, interval, 0)
        hits = self._wave_hits(0, samples, seed)
        return self._estimate(hits, samples, interval, 1)

    # -- internals ------------------------------------------------------

    def _degenerate(self) -> bool:
        return self.engine == "karp_luby" and (
            not self._structure.clauses or self._total_weight == 0
        )

    def _scale(self) -> float:
        return (
            float(self._total_weight)
            if self.engine == "karp_luby"
            else 1.0
        )

    def _estimate(
        self,
        hits: int,
        samples: int,
        interval: str,
        waves: int,
        z: float = Z_95,
    ) -> Estimate:
        scale = self._scale()
        return Estimate(
            scale * (hits / samples),
            half_width(hits, samples, scale, interval, z),
            samples,
            interval,
            waves,
        )

    def _wave_hits(self, start: int, count: int, seed: int) -> int:
        """Indicator hits over samples ``start .. start + count - 1``,
        chunked to bound working-set memory.  Draws are addressed by
        absolute sample index, so chunk and wave boundaries are
        invisible to the result."""
        sampler = WorldSampler(self._probabilities, seed, WORLD_LANE)
        hits = 0
        at = start
        remaining = count
        while remaining > 0:
            step = min(remaining, _WAVE_CHUNK)
            if self.engine == "karp_luby":
                hits += self._karp_luby_chunk(sampler, at, step, seed)
            else:
                hits += self._monte_carlo_chunk(sampler, at, step)
            at += step
            remaining -= step
        return hits

    def _monte_carlo_chunk(
        self, sampler: WorldSampler, start: int, count: int
    ) -> int:
        worlds = sampler.sample(start, count)
        if self._structure is not None:
            first = self._first_satisfied(worlds, count)
            return int((first < len(self._structure.clauses)).sum())
        rows = worlds[:, list(self._tape_columns)]
        return sum(self._tape.evaluate_worlds(rows))

    def _karp_luby_chunk(
        self, sampler: WorldSampler, start: int, count: int, seed: int
    ) -> int:
        structure = self._structure
        draws = DrawStream(seed, CLAUSE_LANE).below(
            self._cumulative[-1], start, count
        )
        chosen = _choose_clauses(self._cumulative, draws)
        worlds = sampler.sample(start, count)
        sizes = _np.array(structure.sizes, dtype=_np.int64)
        chosen_sizes = sizes[chosen]
        if int(chosen_sizes.sum()):
            rows = _np.repeat(_np.arange(count, dtype=_np.int64), chosen_sizes)
            cols = _np.concatenate(
                [
                    _np.array(structure.positions[c], dtype=_np.int64)
                    for c in chosen.tolist()
                ]
            )
            worlds[rows, cols] = 1
        first = self._first_satisfied(worlds, count)
        return int((first == chosen).sum())

    def _first_satisfied(self, worlds, count: int):
        """Per sample, the smallest satisfied clause index (``m`` when no
        clause is satisfied) — the clause-incidence bit-matrix
        reduction: gather each size group's clause columns out of the
        world matrix, ``all`` over the clause axis, and fold the minimum
        satisfied id."""
        clause_count = len(self._structure.clauses)
        first = _np.full(count, clause_count, dtype=_np.int64)
        for _, ids, matrix in self._structure.size_groups:
            satisfied = worlds[:, matrix].all(axis=2)
            # Within a size group the ids are ascending, so the first
            # satisfied column (argmax of the boolean row) is the
            # group's minimum satisfied clause id.
            position = satisfied.argmax(axis=1)
            candidate = _np.where(
                satisfied.any(axis=1), ids[position], clause_count
            )
            _np.minimum(first, candidate, out=first)
        return first


def sampling_plan(
    query: HQuery, tid: TupleIndependentDatabase
) -> SamplingPlan:
    """The sampling plan for one ``(query, TID)`` pair (see
    :class:`SamplingPlan`; structural state is shared per instance
    content, so building plans per request is cheap)."""
    return SamplingPlan(query, tid)


def approximate_probability(
    query: HQuery,
    tid: TupleIndependentDatabase,
    budget: AccuracyBudget | None = None,
) -> tuple[Estimate, str]:
    """Estimate ``Pr(Q_phi)`` with the vectorized engine under an
    accuracy budget; returns ``(estimate, engine_label)`` where the label
    is ``"karp_luby"`` (UCQ) or ``"monte_carlo"`` (non-monotone)."""
    plan = sampling_plan(query, tid)
    return plan.run(budget), plan.engine


def karp_luby_probability_vectorized(
    query: HQuery,
    tid: TupleIndependentDatabase,
    samples: int,
    seed: int = 0,
    interval: str = "normal",
) -> Estimate:
    """Fixed-count vectorized Karp–Luby (see :class:`SamplingPlan`).

    :raises ValueError: if the query is not a UCQ.
    """
    plan = SamplingPlan(query, tid, engine="karp_luby")
    return plan.run_fixed(samples, seed, interval)


def monte_carlo_probability_vectorized(
    query: HQuery,
    tid: TupleIndependentDatabase,
    samples: int,
    seed: int = 0,
    interval: str = "normal",
) -> Estimate:
    """Fixed-count vectorized Monte Carlo (any H-query; see
    :class:`SamplingPlan`).  A monotone query runs the Monte-Carlo
    estimator too when asked: its clause structure doubles as the
    satisfied-any indicator."""
    plan = SamplingPlan(query, tid, engine="monte_carlo")
    return plan.run_fixed(samples, seed, interval)


def monte_carlo_probability(
    query: HQuery,
    tid: TupleIndependentDatabase,
    samples: int,
    rng: random.Random,
    interval: str = "normal",
) -> Estimate:
    """Fixed-count Monte Carlo seeded from ``rng``: one 64-bit seed is
    drawn from ``rng`` and the Monte-Carlo plan runs under it (see
    :func:`monte_carlo_probability_vectorized`).  Works for *any*
    H-query, monotone or not; the same ``rng`` state gives the same
    estimate."""
    seed = rng.getrandbits(64)
    return SamplingPlan(query, tid, engine="monte_carlo").run_fixed(
        samples, seed, interval
    )


def karp_luby_probability(
    query: HQuery,
    tid: TupleIndependentDatabase,
    samples: int,
    rng: random.Random,
    interval: str = "normal",
) -> Estimate:
    """Fixed-count Karp–Luby seeded from ``rng``: one 64-bit seed is
    drawn from ``rng`` and the Karp–Luby plan runs under it (see
    :func:`karp_luby_probability_vectorized`).  The same ``rng`` state
    gives the same estimate.

    :raises ValueError: if the query is not a UCQ (no monotone DNF
        lineage) or ``samples`` is not positive.
    """
    seed = rng.getrandbits(64)
    return SamplingPlan(query, tid, engine="karp_luby").run_fixed(
        samples, seed, interval
    )
