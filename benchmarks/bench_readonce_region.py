"""E18 — the read-once / hierarchical baseline region.

The paper's introduction maps the knowledge-compilation landscape the
H-queries sit in: hierarchical(-read-once) queries admit read-once
lineages; the H-queries' building blocks ``h_{k,i}`` are themselves
hierarchical and self-join-free.  This bench regenerates that baseline:

* every ``h_{k,i}`` passes the hierarchy test and compiles to a read-once
  lineage whose probability matches the safe plan exactly, and both
  match the chain DP of :func:`repro.pqe.safe_plans.disjunction_probability`
  (the safe plan and the lineage are the lifted plan's exact arithmetic
  and its grounding, :mod:`repro.pqe.lift`'s walker; the chain DP is an
  independent route);
* the classical non-hierarchical query ``R(x), S(x,y), T(y)`` is refused;
* the read-once plan scales linearly while the naive DNF lineage needs
  exponential-time weighted model counting (printed as the series shape).

The printed gate counts are the lineage's live gates: the grounding's
two constant gates, and gates left under an ∧ that an absent tuple
folds to false, are not part of it (24 gates for ``h_{3,1}`` at
``n = 2``).
"""

from __future__ import annotations

import time
from fractions import Fraction

from conftest import banner

from repro.circuits import probability as circuit_probability
from repro.db.generator import complete_tid
from repro.pqe.safe_plans import disjunction_probability
from repro.queries.cq import Atom, ConjunctiveQuery
from repro.queries.hierarchical import (
    is_hierarchical,
    is_read_once_circuit,
    read_once_lineage,
    safe_plan_probability,
)
from repro.queries.hqueries import h_query


def test_h_blocks_are_hierarchical(benchmark):
    print(banner("E18 / read-once region", "the h_{k,i} building blocks"))
    k = 3
    tid = complete_tid(k, 3, 3, prob=Fraction(1, 2))
    for i in range(k + 1):
        query = h_query(k, i)
        assert is_hierarchical(query)
        circuit = read_once_lineage(query, tid)
        assert is_read_once_circuit(circuit)
        plan = safe_plan_probability(query, tid)
        compiled = circuit_probability(circuit, tid.probability_map())
        lifted = disjunction_probability([i], k, tid)
        print(f"h_{{3,{i}}}: hierarchical, read-once lineage "
              f"({len(circuit)} gates), Pr = {float(plan):.6f}, "
              f"three routes agree: {plan == compiled == lifted}")
        assert plan == compiled == lifted
    benchmark(read_once_lineage, h_query(k, 1), tid)


def test_non_hierarchical_refused():
    print(banner("E18 / read-once region", "the hard query R,S,T refused"))
    query = ConjunctiveQuery(
        (Atom("R", ("x",)), Atom("S1", ("x", "y")), Atom("T", ("y",)))
    )
    assert not is_hierarchical(query)
    tid = complete_tid(1, 2, 2)
    import pytest

    from repro.queries.hierarchical import NotHierarchicalError

    with pytest.raises(NotHierarchicalError):
        safe_plan_probability(query, tid)
    print("R(x), S1(x,y), T(y): not hierarchical -> safe plan refused "
          "(the #P-hard side of the self-join-free CQ dichotomy)")


def test_readonce_scaling():
    print(banner("E18 / read-once region", "read-once plan scaling"))
    k = 3
    query = h_query(k, 1)
    print(f"{'n':>3} {'|D|':>6} {'gates':>7} {'time':>10}")
    for n in (2, 4, 8, 12):
        tid = complete_tid(k, n, n, prob=Fraction(1, 2))
        start = time.perf_counter()
        circuit = read_once_lineage(query, tid)
        value = circuit_probability(circuit, tid.probability_map())
        elapsed = time.perf_counter() - start
        print(f"{n:>3} {len(tid):>6} {len(circuit):>7} "
              f"{elapsed * 1e3:>8.1f}ms")
        assert 0 <= value <= 1
