"""Safe-plan evaluation of disjunctions of ``h_{k,i}`` queries.

The extensional algorithm for H+-queries (Proposition 3.5 / Section 7's
recap of [12]) reduces, after Möbius inversion over the CNF lattice, to
evaluating queries of the form ``Q_S = ∨_{i in S} h_{k,i}`` for *proper*
subsets ``S ⊊ {0..k}`` — the inversion-free disjunctions.  This module
evaluates those in polynomial time:

1. **Run decomposition.** Split ``S`` into maximal runs of consecutive
   indices.  Two distinct runs use disjoint relation sets (a gap of one
   index separates their ``S_i`` ranges), so their events are independent:
   ``Pr(∨ runs) = 1 - prod (1 - Pr(run))``.
2. **Per-run lifted plan.**  A run ``[a..b]`` misses 0 or k (else it would
   be all of ``{0..k}``, the #P-hard core).  Its event factorizes over the
   independent groups of tuples sharing the distinguished variable:

   * interior run (``a > 0`` and ``b < k``): group by the pair ``(x, y)``;
   * left run (``a = 0``): group by ``x`` (the ``R`` side);
   * right run (``b = k``): group by ``y`` (the ``T`` side);

   and inside one group the event is a *chain* formula over the tuples
   ``S_a(x,y), ..., S_{b+1}(x,y)`` (plus ``R(x)`` or ``T(y)``), whose
   probability a linear dynamic program computes exactly.

The evaluators are *columnar*: the group structure and probability
columns come from :func:`repro.db.columnar.h_columns`, and the chain DP
runs over all groups of a run at once — as numpy array sweeps in the
float backend, and as integer numerators over one common denominator
``D`` in the exact backend (the same encoding
:meth:`repro.circuits.evaluator.EvaluationTape.evaluate` uses: every
state mass after ``j`` chain steps is ``numerator / D**j``, and the one
``Fraction`` built at the end canonicalizes, so the result is
bit-identical to the :class:`~fractions.Fraction` dynamic program).
Exact maps whose common denominator overflows
:data:`~repro.db.columnar.EXACT_DENOMINATOR_BITS` fall back to the
per-group :class:`~fractions.Fraction` scans.  :func:`run_gates` writes
the float sweep as d-D gates, for grounded plans
(:func:`repro.pqe.lift.ground_circuit`).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

import numpy as _np

from repro.db.columnar import HColumnarLayout, HColumns, h_columns
from repro.db.tid import TupleIndependentDatabase


class UnsafeSubqueryError(ValueError):
    """Raised when asked to lift the full disjunction ``h_{k,0} ∨ ... ∨
    h_{k,k}``, which is #P-hard ([12]; the bottom element of every CNF
    lattice of a nondegenerate H+-query)."""


def runs_of(indices: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers, as inclusive ``(start, end)``
    pairs.

    >>> runs_of([0, 1, 3, 5, 6])
    [(0, 1), (3, 3), (5, 6)]
    """
    sorted_indices = sorted(set(indices))
    runs: list[tuple[int, int]] = []
    for index in sorted_indices:
        if runs and index == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], index)
        else:
            runs.append((index, index))
    return runs


def chain_probability(
    probabilities: list[Fraction],
    satisfied_by_first: bool = False,
    satisfied_by_last: bool = False,
) -> Fraction:
    """Probability that a chain of independent Boolean tuples
    ``t_1, ..., t_m`` satisfies "some adjacent pair is jointly present"
    (``∃j: t_j ∧ t_{j+1}``), optionally also satisfied by ``t_1`` alone
    (the ``R``-side rule: ``R(x)`` has already fired) or by ``t_m`` alone
    (the ``T`` side).

    Linear dynamic program over states (previous tuple present?, already
    satisfied?) — the scalar reference the vectorized sweeps reproduce.
    """
    # state: (prev_present, satisfied) -> probability mass
    states = {(False, False): Fraction(1)}
    for position, p in enumerate(probabilities):
        first = position == 0
        last = position == len(probabilities) - 1
        nxt: dict[tuple[bool, bool], Fraction] = {}
        for (prev, satisfied), mass in states.items():
            for present in (False, True):
                weight = p if present else (1 - p)
                if weight == 0:
                    continue
                now_satisfied = satisfied
                if present and prev:
                    now_satisfied = True
                if present and first and satisfied_by_first:
                    now_satisfied = True
                if present and last and satisfied_by_last:
                    now_satisfied = True
                key = (present, now_satisfied)
                nxt[key] = nxt.get(key, Fraction(0)) + mass * weight
        states = nxt
    return sum(
        (mass for (_, satisfied), mass in states.items() if satisfied),
        Fraction(0),
    )


# ----------------------------------------------------------------------
# Vectorized chain sweeps (all groups of one run at once)
# ----------------------------------------------------------------------
#
# The DP state per group is four masses indexed by (previous tuple
# present?, already satisfied?).  One chain step with tuple probability
# ``p`` (and ``q = 1 - p``) maps them by
#
#   new(0,s) = q * (old(0,s) + old(1,s))          (tuple absent)
#   new(1,0) = p * old(0,0)                        (present, no new pair)
#   new(1,1) = p * (old(0,1) + old(1,0) + old(1,1))
#
# except at a *triggering* position (the first tuple under
# ``satisfied_by_first``, the last under ``satisfied_by_last``), where a
# present tuple satisfies unconditionally:
#
#   new(1,0) = 0;   new(1,1) = p * (all four old masses).
#
# The sweeps apply these maps to whole columns of groups per step.


def _chain_sweep_int(
    chains: list[list[int]],
    groups: int,
    denominator: int,
    satisfied_by_first: bool,
    satisfied_by_last: bool,
) -> list[int]:
    """The exact sweep: per-group satisfaction numerators at denominator
    ``denominator ** len(chains)``.  ``chains[j][g]`` is the integer
    numerator of chain position ``j`` in group ``g``."""
    m = len(chains)
    s00 = [1] * groups
    s01 = [0] * groups
    s10 = [0] * groups
    s11 = [0] * groups
    for j in range(m):
        column = chains[j]
        trigger = (j == 0 and satisfied_by_first) or (
            j == m - 1 and satisfied_by_last
        )
        for g in range(groups):
            p = column[g]
            q = denominator - p
            a00, a01, a10, a11 = s00[g], s01[g], s10[g], s11[g]
            s00[g] = q * (a00 + a10)
            s01[g] = q * (a01 + a11)
            if trigger:
                s10[g] = 0
                s11[g] = p * (a00 + a01 + a10 + a11)
            else:
                s10[g] = p * a00
                s11[g] = p * (a01 + a10 + a11)
    return [s01[g] + s11[g] for g in range(groups)]


def _chain_sweep_float(chains, satisfied_by_first, satisfied_by_last):
    """The numpy sweep: ``chains`` is an array of shape ``(m, *groups)``;
    returns the per-group satisfaction probabilities, shape ``groups``."""
    m = chains.shape[0]
    shape = chains.shape[1:]
    s00 = _np.ones(shape)
    s01 = _np.zeros(shape)
    s10 = _np.zeros(shape)
    s11 = _np.zeros(shape)
    for j in range(m):
        p = chains[j]
        q = 1.0 - p
        trigger = (j == 0 and satisfied_by_first) or (
            j == m - 1 and satisfied_by_last
        )
        n00 = q * (s00 + s10)
        n01 = q * (s01 + s11)
        if trigger:
            n10 = _np.zeros(shape)
            n11 = p * (s00 + s01 + s10 + s11)
        else:
            n10 = p * s00
            n11 = p * (s01 + s10 + s11)
        s00, s01, s10, s11 = n00, n01, n10, n11
    return s01 + s11


# ----------------------------------------------------------------------
# Exact backend: integer numerators over one common denominator
# ----------------------------------------------------------------------


def _interior_exact(a: int, b: int, cols: HColumns) -> Fraction:
    """Run touching neither endpoint: events independent across ``(x, y)``
    pairs; within a pair, a chain over ``S_a .. S_{b+1}``."""
    D = cols.denominator
    m = b - a + 2
    chains = [cols.s_num[i - 1] for i in range(a, b + 2)]
    groups = cols.layout.nx * cols.layout.ny
    sat = _chain_sweep_int(chains, groups, D, False, False)
    scale = D**m
    miss_all = 1
    for s in sat:
        miss_all *= scale - s
    total = scale**groups
    return Fraction(total - miss_all, total)


def _left_exact(b: int, cols: HColumns) -> Fraction:
    """Run ``[0..b]`` (with ``b < k``): group by ``x``; conditioned on
    ``R(x)``, the per-``y`` chain over ``S_1..S_{b+1}`` is satisfied also
    by ``S_1`` alone."""
    D = cols.denominator
    nx, ny = cols.layout.nx, cols.layout.ny
    m = b + 1
    chains = [cols.s_num[i - 1] for i in range(1, b + 2)]
    sat_plain = _chain_sweep_int(chains, nx * ny, D, False, False)
    sat_fired = _chain_sweep_int(chains, nx * ny, D, True, False)
    scale = D**m
    scale_y = scale**ny
    per_x = scale_y * D
    miss_all = 1
    for x in range(nx):
        miss_plain = 1
        miss_fired = 1
        base = x * ny
        for y in range(ny):
            miss_plain *= scale - sat_plain[base + y]
            miss_fired *= scale - sat_fired[base + y]
        r = cols.r_num[x]
        hit = r * (scale_y - miss_fired) + (D - r) * (scale_y - miss_plain)
        miss_all *= per_x - hit
    total = per_x**nx
    return Fraction(total - miss_all, total)


def _right_exact(a: int, k: int, cols: HColumns) -> Fraction:
    """Run ``[a..k]`` (with ``a > 0``): the mirror image — group by ``y``;
    conditioned on ``T(y)``, the per-``x`` chain over ``S_a..S_k`` is
    satisfied also by ``S_k`` alone."""
    D = cols.denominator
    nx, ny = cols.layout.nx, cols.layout.ny
    m = k - a + 1
    chains = [cols.s_num[i - 1] for i in range(a, k + 1)]
    sat_plain = _chain_sweep_int(chains, nx * ny, D, False, False)
    sat_fired = _chain_sweep_int(chains, nx * ny, D, False, True)
    scale = D**m
    scale_x = scale**nx
    per_y = scale_x * D
    miss_all = 1
    for y in range(ny):
        miss_plain = 1
        miss_fired = 1
        for x in range(nx):
            position = x * ny + y
            miss_plain *= scale - sat_plain[position]
            miss_fired *= scale - sat_fired[position]
        t = cols.t_num[y]
        hit = t * (scale_x - miss_fired) + (D - t) * (scale_x - miss_plain)
        miss_all *= per_y - hit
    total = per_y**ny
    return Fraction(total - miss_all, total)


# ----------------------------------------------------------------------
# Float backend: numpy column sweeps
# ----------------------------------------------------------------------


def _interior_float(a: int, b: int, cols: HColumns) -> float:
    chains = _np.stack([cols.s_float[i - 1] for i in range(a, b + 2)])
    sat = _chain_sweep_float(chains, False, False)
    return float(1.0 - _np.prod(1.0 - sat))


def _left_float(b: int, cols: HColumns) -> float:
    chains = _np.stack([cols.s_float[i - 1] for i in range(1, b + 2)])
    sat_plain = _chain_sweep_float(chains, False, False)
    sat_fired = _chain_sweep_float(chains, True, False)
    miss_plain = _np.prod(1.0 - sat_plain, axis=1)
    miss_fired = _np.prod(1.0 - sat_fired, axis=1)
    r = cols.r_float
    hit = r * (1.0 - miss_fired) + (1.0 - r) * (1.0 - miss_plain)
    return float(1.0 - _np.prod(1.0 - hit))


def _right_float(a: int, k: int, cols: HColumns) -> float:
    chains = _np.stack([cols.s_float[i - 1] for i in range(a, k + 1)])
    sat_plain = _chain_sweep_float(chains, False, False)
    sat_fired = _chain_sweep_float(chains, False, True)
    miss_plain = _np.prod(1.0 - sat_plain, axis=0)
    miss_fired = _np.prod(1.0 - sat_fired, axis=0)
    t = cols.t_float
    hit = t * (1.0 - miss_fired) + (1.0 - t) * (1.0 - miss_plain)
    return float(1.0 - _np.prod(1.0 - hit))


# ----------------------------------------------------------------------
# Gate backend: the float sweeps written as d-D gates
# ----------------------------------------------------------------------
#
# ``gates`` is a grounding builder (:func:`repro.pqe.lift.ground_circuit`)
# with ``var``, ``and_``, ``or_``, ``not_`` and the constants ``true``
# and ``false``.  Every gate takes its inputs in the order the float
# sweeps above multiply or add them, so a tape of these gates returns
# the sweeps' bits.


def _chain_gates(gates, chain, satisfied_by_first, satisfied_by_last) -> int:
    """:func:`_chain_sweep_float` for one group: ``chain`` holds each
    position's tuple gate (``false`` when absent).  The four states are
    disjoint events over the tuples so far, so every ∨ is deterministic;
    each step ∧s the new tuple, or its ¬, with earlier states, so every
    ∧ is decomposable."""
    m = len(chain)
    s00, s01, s10, s11 = gates.true, gates.false, gates.false, gates.false
    for j, p in enumerate(chain):
        q = gates.not_(p)
        trigger = (j == 0 and satisfied_by_first) or (
            j == m - 1 and satisfied_by_last
        )
        n00 = gates.and_((q, gates.or_((s00, s10))))
        n01 = gates.and_((q, gates.or_((s01, s11))))
        if trigger:
            n10 = gates.false
            n11 = gates.and_((p, gates.or_((s00, s01, s10, s11))))
        else:
            n10 = gates.and_((p, s00))
            n11 = gates.and_((p, gates.or_((s01, s10, s11))))
        s00, s01, s10, s11 = n00, n01, n10, n11
    return gates.or_((s01, s11))


def _gate_column(gates, slots, size: int) -> list[int]:
    """One layout column as gates: present tuples become variables,
    absent ones the constant ``false`` (probability 0)."""
    column = [gates.false] * size
    for position, tuple_id in slots:
        column[position] = gates.var(tuple_id)
    return column


def _run_chain_rows(run: tuple[int, int], k: int) -> range:
    """The ``S_i`` indices of a run's chains, as the float sweeps take
    them."""
    a, b = run
    if a == 0:
        return range(1, b + 2)
    if b == k:
        return range(a, k + 1)
    return range(a, b + 2)


def run_gates(
    run: tuple[int, int], k: int, layout: HColumnarLayout, gates
) -> int:
    """``Pr(∨_{i in [a..b]} h_{k,i})`` as a d-D over the instance's
    tuples: :func:`run_probability_float`'s sweep, with independent
    products as ¬∧¬ and a left or right run's
    ``r·(1−miss_fired) + (1−r)·(1−miss_plain)`` as an ∨ over ``R`` and
    ``¬R``.  Returns the output gate.

    :raises UnsafeSubqueryError: if the run is all of ``{0..k}``.
    """
    _check_run(run, k)
    a, b = run
    nx, ny = layout.nx, layout.ny
    chains = [
        _gate_column(gates, layout.s_slots[i - 1], nx * ny)
        for i in _run_chain_rows(run, k)
    ]
    if 0 < a and b < k:
        misses = [
            gates.not_(
                _chain_gates(gates, [c[cell] for c in chains], False, False)
            )
            for cell in range(nx * ny)
        ]
        return gates.not_(gates.and_(misses))
    left = a == 0
    if left:  # group by x, chain over y; R fires the first position
        side = _gate_column(gates, layout.r_slots, nx)
        groups = [[x * ny + y for y in range(ny)] for x in range(nx)]
    else:  # group by y, chain over x; T fires the last position
        side = _gate_column(gates, layout.t_slots, ny)
        groups = [[x * ny + y for x in range(nx)] for y in range(ny)]
    misses = []
    for fires, cells in zip(side, groups):
        plain = []
        fired = []
        for cell in cells:
            chain = [c[cell] for c in chains]
            plain.append(gates.not_(_chain_gates(gates, chain, False, False)))
            fired.append(
                gates.not_(_chain_gates(gates, chain, left, not left))
            )
        hit = gates.or_((
            gates.and_((fires, gates.not_(gates.and_(fired)))),
            gates.and_((gates.not_(fires), gates.not_(gates.and_(plain)))),
        ))
        misses.append(gates.not_(hit))
    return gates.not_(gates.and_(misses))


# ----------------------------------------------------------------------
# Fraction fallback (the pre-columnar reference implementation; used
# when the exact common denominator overflows EXACT_DENOMINATOR_BITS)
# ----------------------------------------------------------------------


def _domain_sides(tid: TupleIndependentDatabase, k: int) -> tuple[list, list]:
    """The x-side and y-side active domains (elements appearing in the
    relevant positions of ``R``, ``T`` and the ``S_i``)."""
    xs: set = set()
    ys: set = set()
    instance = tid.instance
    for tuple_id in instance.tuple_ids():
        if tuple_id.relation == "R":
            xs.add(tuple_id.values[0])
        elif tuple_id.relation == "T":
            ys.add(tuple_id.values[0])
        elif tuple_id.relation.startswith("S"):
            xs.add(tuple_id.values[0])
            ys.add(tuple_id.values[1])
    del k
    return sorted(xs, key=repr), sorted(ys, key=repr)


def _tuple_probability(
    tid: TupleIndependentDatabase, relation: str, values: tuple
) -> Fraction:
    """``pi`` of a potential tuple; absent tuples have probability 0."""
    from repro.db.relation import TupleId

    if not tid.instance.has(relation, values):
        return Fraction(0)
    return tid.probability_of(TupleId(relation, values))


def _interior_run_fractions(
    a: int, b: int, tid: TupleIndependentDatabase, xs: list, ys: list
) -> Fraction:
    miss_all = Fraction(1)
    for x in xs:
        for y in ys:
            chain = [
                _tuple_probability(tid, f"S{i}", (x, y))
                for i in range(a, b + 2)
            ]
            miss_all *= 1 - chain_probability(chain)
    return 1 - miss_all


def _left_run_fractions(
    b: int, tid: TupleIndependentDatabase, xs: list, ys: list
) -> Fraction:
    miss_all = Fraction(1)
    for x in xs:
        p_r = _tuple_probability(tid, "R", (x,))
        miss_without_r = Fraction(1)
        miss_with_r = Fraction(1)
        for y in ys:
            chain = [
                _tuple_probability(tid, f"S{i}", (x, y))
                for i in range(1, b + 2)
            ]
            miss_without_r *= 1 - chain_probability(chain)
            miss_with_r *= 1 - chain_probability(
                chain, satisfied_by_first=True
            )
        hit_x = p_r * (1 - miss_with_r) + (1 - p_r) * (1 - miss_without_r)
        miss_all *= 1 - hit_x
    return 1 - miss_all


def _right_run_fractions(
    a: int, k: int, tid: TupleIndependentDatabase, xs: list, ys: list
) -> Fraction:
    miss_all = Fraction(1)
    for y in ys:
        p_t = _tuple_probability(tid, "T", (y,))
        miss_without_t = Fraction(1)
        miss_with_t = Fraction(1)
        for x in xs:
            chain = [
                _tuple_probability(tid, f"S{i}", (x, y))
                for i in range(a, k + 1)
            ]
            miss_without_t *= 1 - chain_probability(chain)
            miss_with_t *= 1 - chain_probability(
                chain, satisfied_by_last=True
            )
        hit_y = p_t * (1 - miss_with_t) + (1 - p_t) * (1 - miss_without_t)
        miss_all *= 1 - hit_y
    return 1 - miss_all


def _run_probability_fractions(
    run: tuple[int, int],
    k: int,
    tid: TupleIndependentDatabase,
    sides: tuple[list, list] | None = None,
) -> Fraction:
    a, b = run
    xs, ys = sides if sides is not None else _domain_sides(tid, k)
    if a == 0:
        return _left_run_fractions(b, tid, xs, ys)
    if b == k:
        return _right_run_fractions(a, k, tid, xs, ys)
    return _interior_run_fractions(a, b, tid, xs, ys)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _check_run(run: tuple[int, int], k: int) -> None:
    a, b = run
    if not 0 <= a <= b <= k:
        raise ValueError(f"run {run} out of bounds for k = {k}")
    if a == 0 and b == k:
        raise UnsafeSubqueryError(
            "the full disjunction h_{k,0} ∨ ... ∨ h_{k,k} is #P-hard and "
            "has no safe plan"
        )


def run_probability(
    run: tuple[int, int],
    k: int,
    tid: TupleIndependentDatabase,
    *,
    columns: HColumns | None = None,
) -> Fraction:
    """``Pr(∨_{i in [a..b]} h_{k,i})`` for one maximal run, by the lifted
    plan described in the module docstring — exact, on the integer
    common-denominator backend over the TID's columnar view (pass
    ``columns`` to reuse a view the caller already holds).

    :raises UnsafeSubqueryError: if the run is all of ``{0..k}``.
    """
    _check_run(run, k)
    a, b = run
    cols = columns if columns is not None else h_columns(tid, k)
    if cols.denominator is None:  # exotic denominators: Fraction fallback
        # The layout's sorted domains are the ones _domain_sides would
        # recompute; reuse them so per-run fallbacks never rescan.
        return _run_probability_fractions(
            run, k, tid, (list(cols.layout.xs), list(cols.layout.ys))
        )
    if a == 0:
        return _left_exact(b, cols)
    if b == k:
        return _right_exact(a, k, cols)
    return _interior_exact(a, b, cols)


def run_probability_float(
    run: tuple[int, int],
    k: int,
    tid: TupleIndependentDatabase,
    *,
    columns: HColumns | None = None,
) -> float:
    """The float backend of :func:`run_probability`: one vectorized numpy
    sweep over the columnar view.

    :raises UnsafeSubqueryError: if the run is all of ``{0..k}``.
    """
    _check_run(run, k)
    a, b = run
    cols = columns if columns is not None else h_columns(tid, k)
    if a == 0:
        return _left_float(b, cols)
    if b == k:
        return _right_float(a, k, cols)
    return _interior_float(a, b, cols)


def disjunction_probability(
    indices: Iterable[int],
    k: int,
    tid: TupleIndependentDatabase,
    *,
    columns: HColumns | None = None,
) -> Fraction:
    """``Pr(∨_{i in S} h_{k,i})`` for a proper subset ``S ⊊ {0..k}`` — or
    for the empty set, where the probability is 0.

    :raises UnsafeSubqueryError: if ``S = {0..k}``.
    """
    index_set = set(indices)
    if not index_set:
        return Fraction(0)
    if not index_set <= set(range(k + 1)):
        raise ValueError(f"indices {sorted(index_set)} out of range for k={k}")
    cols = columns if columns is not None else h_columns(tid, k)
    miss_all = Fraction(1)
    for run in runs_of(index_set):
        miss_all *= 1 - run_probability(run, k, tid, columns=cols)
    return 1 - miss_all


def disjunction_probability_float(
    indices: Iterable[int],
    k: int,
    tid: TupleIndependentDatabase,
    *,
    columns: HColumns | None = None,
) -> float:
    """The float backend of :func:`disjunction_probability`.

    :raises UnsafeSubqueryError: if ``S = {0..k}``.
    """
    index_set = set(indices)
    if not index_set:
        return 0.0
    if not index_set <= set(range(k + 1)):
        raise ValueError(f"indices {sorted(index_set)} out of range for k={k}")
    cols = columns if columns is not None else h_columns(tid, k)
    miss_all = 1.0
    for run in runs_of(index_set):
        miss_all *= 1.0 - run_probability_float(run, k, tid, columns=cols)
    return 1.0 - miss_all
