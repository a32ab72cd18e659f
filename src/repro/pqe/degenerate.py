"""Lineage compilation for degenerate H-queries (Proposition 3.7 /
Appendix B.1).

For a degenerate ``phi`` (not depending on some variable ``l``), the paper
writes ``phi = ∨_{nu |= phi, l not in nu} (phi_nu ∨ phi_{nu^(l)})`` — a
deterministic disjunction over *pair queries*.  Each pair query
``Q_{phi_nu ∨ phi_{nu^(l)}}`` asserts an exact pattern of the ``h_{k,i}``
for every ``i != l`` and splits as ``Q^L ∧ Q^R``:

* ``Q^L`` constrains indices ``{0..l-1}`` and touches only the relations
  ``R, S_1, ..., S_l``;
* ``Q^R`` constrains indices ``{l+1..k}`` and touches only
  ``S_{l+1}, ..., S_k, T``;

so the conjunction is decomposable.  Each side compiles to an OBDD under
the interleaved variable order ``Pi_L`` of Appendix B.1 (x-major for the
left side, y-major for the right) via a product automaton with O(2^k)
states — constant in data complexity — built with
:mod:`repro.obdd.builder`.

The exported constructions:

* :func:`pair_query_circuit` — d-D lineage of one pair query (the template
  leaves of Proposition 4.4);
* :func:`degenerate_lineage_circuit` — d-D lineage of any degenerate
  H-query (Proposition 3.7 as used by the paper: the Q_phi ∈ d-D(PTIME)
  part);
* :func:`degenerate_lineage_obdd` — the single-OBDD form (the literal
  statement of Proposition 3.7), combining the pair OBDDs with ``apply``
  under one shared order.

Compilation fast path (PR 2): the side automata are *tabular*
(integer-coded states, precomputed per-event transition tables), every
domain scan / variable order / machine / per-side :class:`ObddManager` is
memoized on the instance against its content version, and all pair
queries of a leaf are built by one multi-accepting-mask family sweep
(:func:`repro.obdd.builder.build_obdd_family`) over the shared manager,
so identical OBDD nodes dedupe across pairs before they ever reach a
circuit arena.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable

from repro.circuits.circuit import Circuit
from repro.core.boolean_function import BooleanFunction
from repro.db.columnar import is_h_fact
from repro.db.relation import Instance, TupleId
from repro.obdd.builder import TabularAutomaton, build_obdd_family
from repro.obdd.obdd import ObddManager
from repro.obdd.to_circuit import expansion_cache, obdd_into_circuit


def _compute_sides(db: Instance) -> tuple[list[Hashable], list[Hashable]]:
    xs: set[Hashable] = set()
    ys: set[Hashable] = set()
    for tuple_id in filter(is_h_fact, db.tuple_ids()):
        if tuple_id.relation == "R":
            xs.add(tuple_id.values[0])
        elif tuple_id.relation == "T":
            ys.add(tuple_id.values[0])
        else:
            xs.add(tuple_id.values[0])
            ys.add(tuple_id.values[1])
    return sorted(xs, key=repr), sorted(ys, key=repr)


def _sides(db: Instance) -> tuple[list[Hashable], list[Hashable]]:
    """Active x-side and y-side domains of an instance over the H-schema,
    memoized on the instance (one domain scan per content version instead
    of one per pair query)."""
    return db.cached_derivation(("hquery.sides",), _compute_sides)


def left_variable_order(l: int, db: Instance) -> list[TupleId]:
    """The order ``Pi_L`` of Appendix B.1 for the left side (indices
    ``0..l-1``, relations ``R, S_1..S_l``): for each ``x``, first ``R(x)``,
    then for each ``y`` the block ``S_1(x,y), ..., S_l(x,y)``.
    Memoized per ``(l, instance content)``."""

    def build(db: Instance) -> list[TupleId]:
        xs, ys = _sides(db)
        order: list[TupleId] = []
        for x in xs:
            order.append(TupleId("R", (x,)))
            for y in ys:
                for i in range(1, l + 1):
                    order.append(TupleId(f"S{i}", (x, y)))
        return order

    return list(db.cached_derivation(("hquery.left_order", l), build))


def right_variable_order(l: int, k: int, db: Instance) -> list[TupleId]:
    """The mirrored order for the right side (indices ``l+1..k``,
    relations ``S_{l+1}..S_k, T``): for each ``y``, first ``T(y)``, then
    for each ``x`` the block ``S_k(x,y), ..., S_{l+1}(x,y)`` (descending,
    so that adjacent relation indices are adjacent in the scan).
    Memoized per ``(l, k, instance content)``."""

    def build(db: Instance) -> list[TupleId]:
        xs, ys = _sides(db)
        order: list[TupleId] = []
        for y in ys:
            order.append(TupleId("T", (y,)))
            for x in xs:
                for i in range(k, l, -1):
                    order.append(TupleId(f"S{i}", (x, y)))
        return order

    return list(db.cached_derivation(("hquery.right_order", l, k), build))


# ----------------------------------------------------------------------
# Tabular side machines
# ----------------------------------------------------------------------
#
# The side automata of Appendix B.1 track the state
# ``(satisfied_mask, unary_value, previous_s_value)``:
#
# * ``satisfied_mask`` has bit ``j`` set when local query ``j`` is already
#   witnessed (left side: ``h_{k,j}`` for ``j in 0..l-1``; right side:
#   ``h_{k, k - j}`` for ``j in 0..k-l-2``);
# * ``unary_value`` is the current block's ``R(x)`` / ``T(y)`` value;
# * ``previous_s_value`` is the previous ``S`` tuple in the current
#   ``(x, y)`` chain.
#
# States are integer-coded as ``mask * 4 + unary * 2 + prev`` and the
# transition becomes a table lookup: every position of the variable order
# carries an *event* — ``("unary",)`` resets the block, ``("s", c)``
# advances the chain (chain position 0 pairs with the unary, others with
# their predecessor) — and positions with the same event share one
# precomputed table, so building the machine costs
# ``O(#events × states)`` instead of a closure call per (state, layer).


def _event_tables(
    event: tuple, num_states: int
) -> tuple[list[int], list[int]]:
    """The (on-False, on-True) successor tables of one event kind."""
    low = [0] * num_states
    high = [0] * num_states
    for state in range(num_states):
        mask, unary, prev = state >> 2, state >> 1 & 1, state & 1
        if event[0] == "unary":
            low[state] = mask << 2  # (mask, value=0, prev=0)
            high[state] = (mask << 2) | 2  # (mask, value=1, prev=0)
        else:
            chain_position = event[1]
            low[state] = (mask << 2) | (unary << 1)
            if chain_position == 0:
                high_mask = mask | 1 if unary else mask
            else:
                high_mask = mask | (1 << chain_position) if prev else mask
            high[state] = (high_mask << 2) | (unary << 1) | 1
    return low, high


def _tabular_machine(
    order: list[TupleId], events: list[tuple], nqueries: int
) -> TabularAutomaton:
    num_states = 4 << nqueries
    tables = {
        event: _event_tables(event, num_states) for event in set(events)
    }
    return TabularAutomaton(
        order=order,
        num_states=num_states,
        initial=0,
        low_tables=[tables[event][0] for event in events],
        high_tables=[tables[event][1] for event in events],
        outcome=[state >> 2 for state in range(num_states)],
    )


def left_side_machine(l: int, db: Instance) -> TabularAutomaton:
    """The left-side tabular automaton: local query ``j`` (bit ``j`` of the
    outcome mask) is ``h_{k,j}``; in a block for ``(x, y)``, reading
    ``S_{j+1}(x,y)`` pairs with ``S_j(x,y)`` (or with ``R(x)`` for
    ``j = 0``).  Memoized per ``(l, instance content)``."""

    def build(db: Instance) -> TabularAutomaton:
        order = left_variable_order(l, db)
        events: list[tuple] = []
        for tuple_id in order:
            if tuple_id.relation == "R":
                events.append(("unary",))
            else:
                index = int(tuple_id.relation[1:])  # S_i -> position i-1
                events.append(("s", index - 1))
        return _tabular_machine(order, events, l)

    return db.cached_derivation(("hquery.left_machine", l), build)


def right_side_machine(l: int, k: int, db: Instance) -> TabularAutomaton:
    """The right-side tabular automaton: local query ``j`` (bit ``j``) is
    ``h_{k, k-j}``; scanning ``S_k, S_{k-1}, ...`` downward, reading
    ``S_i(x,y)`` pairs with ``S_{i+1}(x,y)`` (or with ``T(y)`` for
    ``i = k``).  Memoized per ``(l, k, instance content)``."""

    def build(db: Instance) -> TabularAutomaton:
        order = right_variable_order(l, k, db)
        events: list[tuple] = []
        for tuple_id in order:
            if tuple_id.relation == "T":
                events.append(("unary",))
            else:
                index = int(tuple_id.relation[1:])  # S_i -> position k-i
                events.append(("s", k - index))
        return _tabular_machine(order, events, k - l)

    return db.cached_derivation(("hquery.right_machine", l, k), build)


# ----------------------------------------------------------------------
# Shared per-side OBDD managers and the pair-query root cache
# ----------------------------------------------------------------------

_PAIR_CACHE_LOCK = threading.Lock()
_PAIR_CACHE_HITS = 0
_PAIR_CACHE_MISSES = 0


def pair_cache_counters() -> tuple[int, int]:
    """``(hits, misses)`` of the pair-query OBDD-root cache (a side root
    served from a shared manager vs. built by a family sweep)."""
    with _PAIR_CACHE_LOCK:
        return _PAIR_CACHE_HITS, _PAIR_CACHE_MISSES


def reset_pair_cache_counters() -> None:
    """Zero the pair-query cache counters."""
    global _PAIR_CACHE_HITS, _PAIR_CACHE_MISSES
    with _PAIR_CACHE_LOCK:
        _PAIR_CACHE_HITS = 0
        _PAIR_CACHE_MISSES = 0


class _SideCompiler:
    """One side's compilation state, shared by every pair query over the
    same instance content: the tabular machine, one :class:`ObddManager`
    over the side order (so identical OBDD nodes dedupe across pairs
    before they ever reach a circuit arena), and the mask→root cache
    filled by :func:`repro.obdd.builder.build_obdd_family` sweeps."""

    __slots__ = ("machine", "manager", "roots", "lock")

    def __init__(self, machine: TabularAutomaton):
        self.machine = machine
        self.manager = ObddManager(machine.order)
        self.roots: dict[int, int] = {}
        self.lock = threading.Lock()

    def root_for(self, mask: int) -> int:
        return self.roots_for([mask])[mask]

    def roots_for(self, masks: Iterable[int]) -> dict[int, int]:
        """The OBDD roots of the requested accepting masks; missing masks
        are built together in one family sweep."""
        global _PAIR_CACHE_HITS, _PAIR_CACHE_MISSES
        wanted = list(dict.fromkeys(masks))
        with self.lock:
            missing = [mask for mask in wanted if mask not in self.roots]
            if missing:
                _, built = build_obdd_family(
                    self.machine, missing, self.manager
                )
                self.roots.update(built)
            result = {mask: self.roots[mask] for mask in wanted}
        with _PAIR_CACHE_LOCK:
            _PAIR_CACHE_MISSES += len(missing)
            _PAIR_CACHE_HITS += len(wanted) - len(missing)
        return result


def _left_compiler(l: int, db: Instance) -> _SideCompiler:
    return db.cached_derivation(
        ("hquery.left_compiler", l),
        lambda db: _SideCompiler(left_side_machine(l, db)),
    )


def _right_compiler(l: int, k: int, db: Instance) -> _SideCompiler:
    return db.cached_derivation(
        ("hquery.right_compiler", l, k),
        lambda db: _SideCompiler(right_side_machine(l, k, db)),
    )


def prefetch_pair_queries(
    k: int, pairs: Iterable[tuple[int, int]], db: Instance
) -> None:
    """Warm the side-root caches for many pair queries ``(l, pattern)`` at
    once: masks sharing a side compiler are built together, one family
    sweep per side instead of one per pair."""
    left_masks: dict[int, list[int]] = {}
    right_masks: dict[int, list[int]] = {}
    for l, pattern in pairs:
        if l > 0:
            left_masks.setdefault(l, []).append(
                _left_accepting_mask(pattern, l)
            )
        if l < k:
            right_masks.setdefault(l, []).append(
                _right_accepting_mask(pattern, l, k)
            )
    for l, masks in left_masks.items():
        _left_compiler(l, db).roots_for(masks)
    for l, masks in right_masks.items():
        _right_compiler(l, k, db).roots_for(masks)


def pair_query_roots(
    k: int, l: int, pattern: int, db: Instance
) -> list[tuple[ObddManager, int]]:
    """The per-side ``(manager, root)`` pairs of one pair query, served
    from the instance's shared side compilers — effectively a cache keyed
    by ``(k, l, accepting mask, instance content)``, since the derivation
    store is invalidated exactly when the content fingerprint changes."""
    if not 0 <= l <= k:
        raise ValueError(f"flip variable {l} out of range for k = {k}")
    sides: list[tuple[ObddManager, int]] = []
    if l > 0:
        compiler = _left_compiler(l, db)
        root = compiler.root_for(_left_accepting_mask(pattern, l))
        sides.append((compiler.manager, root))
    if l < k:
        compiler = _right_compiler(l, k, db)
        root = compiler.root_for(_right_accepting_mask(pattern, l, k))
        sides.append((compiler.manager, root))
    return sides


def _left_accepting_mask(pattern: int, l: int) -> int:
    """Bits 0..l-1 of the h-pattern, which the left machine tracks
    directly."""
    return pattern & ((1 << l) - 1)


def _right_accepting_mask(pattern: int, l: int, k: int) -> int:
    """The right machine tracks ``h_{k, k-j}`` at bit ``j``; translate the
    pattern bits ``l+1..k`` accordingly."""
    mask = 0
    for i in range(l + 1, k + 1):
        if pattern >> i & 1:
            mask |= 1 << (k - i)
    return mask


def pair_query_circuit(
    k: int,
    l: int,
    pattern: int,
    db: Instance,
    circuit: Circuit,
) -> int:
    """Build, inside ``circuit``, the d-D lineage of the pair query
    ``Q_{phi_nu ∨ phi_{nu^(l)}}``, where ``pattern`` is the mask of ``nu``
    restricted to indices ``!= l`` (bit ``l`` is ignored).  Returns the
    output gate id.

    The circuit is the decomposable conjunction of the two side OBDDs
    (constant sides for ``l = 0`` / ``l = k`` collapse to the other side).

    The side OBDDs come from the instance's shared per-side managers (see
    :func:`pair_query_roots`) and each manager's nodes expand into
    ``circuit`` at most once (see
    :func:`repro.obdd.to_circuit.expansion_cache`), so pair queries
    sharing structure share gates instead of duplicating them.
    """
    parts = [
        obdd_into_circuit(
            manager,
            root,
            circuit,
            expansion_cache(circuit, manager, compact=True),
            compact=True,
        )
        for manager, root in pair_query_roots(k, l, pattern, db)
    ]
    if not parts:
        raise AssertionError("unreachable: l cannot be both 0 and k")
    return circuit.add_and(parts)


def degenerate_lineage_circuit(
    phi: BooleanFunction, db: Instance, missing_variable: int | None = None
) -> Circuit:
    """Proposition 3.7 (d-D form): the lineage of ``Q_phi`` for degenerate
    ``phi``, as the deterministic disjunction of pair-query circuits over
    the models of ``phi`` grouped by the missing variable.

    :param missing_variable: a variable ``phi`` does not depend on; found
        automatically when omitted.
    :raises ValueError: if ``phi`` is nondegenerate.
    """
    k = phi.nvars - 1
    l = missing_variable
    if l is None:
        dependencies = phi.dependency_set()
        l = next(
            (v for v in range(phi.nvars) if v not in dependencies), None
        )
    if l is None or phi.depends_on(l):
        raise ValueError(
            "degenerate_lineage_circuit requires a variable phi ignores"
        )
    circuit = Circuit(dedup=True)
    bit = 1 << l
    # The pair {model, model | bit} is handled once.
    models = [m for m in phi.satisfying_masks() if not m & bit]
    # Prefetch every side root in one family sweep per side, so the pair
    # loop below only expands already-built OBDDs.
    if models:
        if l > 0:
            _left_compiler(l, db).roots_for(
                _left_accepting_mask(m, l) for m in models
            )
        if l < k:
            _right_compiler(l, k, db).roots_for(
                _right_accepting_mask(m, l, k) for m in models
            )
    branches = [
        pair_query_circuit(k, l, model, db, circuit) for model in models
    ]
    circuit.set_output(circuit.add_or(branches))
    return circuit


def degenerate_lineage_obdd(
    phi: BooleanFunction, db: Instance, missing_variable: int | None = None
) -> tuple[ObddManager, int]:
    """Proposition 3.7 (literal OBDD form): a single OBDD for the lineage
    of a degenerate ``Q_phi``, under the concatenated left/right order,
    combining the per-side, per-pair OBDDs with ``apply``.

    Data complexity is polynomial: each pair OBDD has constant width and
    the number of pairs is constant, so the apply-products stay polynomial.
    """
    k = phi.nvars - 1
    l = missing_variable
    if l is None:
        dependencies = phi.dependency_set()
        l = next(
            (v for v in range(phi.nvars) if v not in dependencies), None
        )
    if l is None or phi.depends_on(l):
        raise ValueError(
            "degenerate_lineage_obdd requires a variable phi ignores"
        )
    left_machine = left_side_machine(l, db) if l > 0 else None
    right_machine = right_side_machine(l, k, db) if l < k else None
    order: list[TupleId] = []
    if left_machine is not None:
        order.extend(left_machine.order)
    if right_machine is not None:
        order.extend(right_machine.order)
    manager = ObddManager(order)
    bit = 1 << l
    models = [m for m in phi.satisfying_masks() if not m & bit]
    # One family sweep per side builds every needed per-pair OBDD at once
    # (the side orders are a prefix/suffix of the concatenated order, so
    # both machines are compatible with the shared manager).
    left_roots: dict[int, int] = {}
    right_roots: dict[int, int] = {}
    if models and left_machine is not None:
        _, left_roots = build_obdd_family(
            left_machine,
            (_left_accepting_mask(m, l) for m in models),
            manager,
        )
    if models and right_machine is not None:
        _, right_roots = build_obdd_family(
            right_machine,
            (_right_accepting_mask(m, l, k) for m in models),
            manager,
        )
    result = manager.terminal(False)
    for model in models:
        parts = []
        if left_machine is not None:
            parts.append(left_roots[_left_accepting_mask(model, l)])
        if right_machine is not None:
            parts.append(right_roots[_right_accepting_mask(model, l, k)])
        result = manager.apply("or", result, manager.conjoin_all(parts))
    return manager, result
