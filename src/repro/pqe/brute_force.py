"""Brute-force probabilistic query evaluation.

``PQE(Q)`` asks for ``Pr(Q, (D, pi)) = sum over worlds D' |= Q of Pr(D')``
(Section 2).  Two exponential, exact computations of it live here:

* :func:`probability_by_world_enumeration` literally enumerates all
  ``2^|D|`` possible worlds and matches the query in each — obviously
  correct, and the validation oracle the tests hold every engine to;
* :func:`probability_by_lineage_enumeration` is the ``"brute_force"``
  route of :func:`~repro.pqe.engine.evaluate` and of the serving shards.
  It goes through the lineage instead, via the identity
  ``Pr(Q, (D,pi)) = Pr(Lin(Q,D), pi)`` of [18]: the lineage's truth table
  over the facts of ``D`` is built once per instance content and query,
  then folded against each probability map in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as _np

from repro.circuits.operations import circuit_to_boolean_function
from repro.core.boolean_function import BooleanFunction
from repro.db.relation import Instance
from repro.db.tid import TupleIndependentDatabase
from repro.queries.cq import ConjunctiveQuery
from repro.queries.hqueries import HQuery
from repro.queries.lineage import (
    cq_lineage_circuit,
    hquery_lineage_circuit_naive,
)
from repro.queries.ucq import UnionOfCQs


def probability_by_world_enumeration(
    query: HQuery, tid: TupleIndependentDatabase
) -> Fraction:
    """``Pr(Q_phi)`` by summing the probabilities of satisfying worlds.

    Cost ``O(2^|D| * eval)``; refuses instances with more than 22 tuples.
    """
    if len(tid) > 22:
        raise ValueError(
            f"brute force refuses {len(tid)} tuples (> 22); "
            "use the extensional or intensional engine"
        )
    total = Fraction(0)
    for _, world_probability, world in tid.possible_worlds():
        if world_probability == 0:
            continue
        if query.holds_in(world):
            total += world_probability
    return total


def probability_by_lineage_enumeration(
    query, tid: TupleIndependentDatabase
) -> Fraction:
    """``Pr(Lin(Q, D), pi)``: the lineage's truth table (Definition B.2),
    summed over its models.  Equal, as a :class:`~fractions.Fraction`, to
    :func:`probability_by_world_enumeration` — the [18] identity.

    ``query`` is an :class:`~repro.queries.hqueries.HQuery`, a
    :class:`~repro.queries.ucq.UnionOfCQs` or a
    :class:`~repro.queries.cq.ConjunctiveQuery`.  The table is cached on
    the instance, so later probability maps over the same facts pay only
    the fold: one tuple at a time, the worlds without it (``lo``) and
    with it (``hi``) combine as ``(d - a) * lo + a * hi`` for its
    ``p = a/d``, in integers over the product of the denominators.
    ``O(2^|D|)`` either way; refuses instances with more than 22 tuples.
    """
    if len(tid) > 22:
        raise ValueError(
            f"brute force refuses {len(tid)} tuples (> 22); "
            "use the extensional or intensional engine"
        )
    instance = tid.instance
    table = _lineage_table(query, instance)
    size = 1 << table.nvars
    packed = table.table.to_bytes((size + 7) // 8, "little")
    values = _np.unpackbits(
        _np.frombuffer(packed, dtype=_np.uint8), bitorder="little"
    )[:size].tolist()
    denominator = 1
    # Variable j of the table is bit j of the world index, so the lowest
    # remaining variable splits the list into even and odd positions.
    for tuple_id in instance.tuple_ids():
        p = tid.probability_of(tuple_id)
        a, d = p.numerator, p.denominator
        b = d - a
        values = [b * lo + a * hi for lo, hi in zip(values[::2], values[1::2])]
        denominator *= d
    return Fraction(values[0], denominator)


def _lineage_table(query, instance: Instance) -> BooleanFunction:
    """The truth table of ``Lin(Q, D)`` over ``instance.tuple_ids()``
    (variable ``j`` is fact ``j``): the query's polynomial-size lineage
    circuit, tabulated by one Boolean bitmask pass per chunk of worlds.

    Memoized on the instance until its facts change; probability updates
    reuse it.  Exponential in ``|D|``: callers bound the size.
    """

    def build(db: Instance) -> BooleanFunction:
        if isinstance(query, HQuery):
            circuit = hquery_lineage_circuit_naive(query, db)
        elif isinstance(query, UnionOfCQs):
            circuit = query.lineage_circuit(db)
        elif isinstance(query, ConjunctiveQuery):
            circuit = cq_lineage_circuit(query, db)
        else:
            raise TypeError(
                f"no lineage circuit for {type(query).__name__} queries"
            )
        return circuit_to_boolean_function(circuit, db.tuple_ids())

    return instance.cached_derivation(("brute_force.lineage", query), build)


def pattern_distribution(
    query: HQuery, tid: TupleIndependentDatabase
) -> dict[int, Fraction]:
    """The exact distribution of the h-pattern (which ``h_{k,i}`` hold)
    across worlds — a richer oracle used by tests of the intensional
    engine's determinism argument (distinct patterns are disjoint events
    whose probabilities must sum to 1)."""
    if len(tid) > 22:
        raise ValueError("pattern distribution limited to 22 tuples")
    distribution: dict[int, Fraction] = {}
    for _, world_probability, world in tid.possible_worlds():
        if world_probability == 0:
            continue
        pattern = query.h_pattern(world)
        distribution[pattern] = (
            distribution.get(pattern, Fraction(0)) + world_probability
        )
    return distribution
