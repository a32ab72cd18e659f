"""Lifted inference over arbitrary UCQs: safe-plan search and the plan IR.

This generalizes the extensional engine from the paper's fixed
``h_{k,i}`` family to *any* union of conjunctive queries, following the
Dalvi–Suciu lifted-inference rules:

* **Independent join / union** — connected-component decomposition.  Two
  subqueries whose atoms can never share a ground tuple (no common
  variable, and no two atoms of the same relation whose constant
  positions are compatible) describe independent events, so their
  conjunction is a product and their disjunction a complement-product.
* **Independent project (separator elimination)** — a *separator* is a
  variable that occurs in every atom (of every disjunct), at one
  consistent position per relation across *all* occurrences of that
  relation, so that substituting distinct domain constants yields
  tuple-disjoint (hence independent) instances:
  ``Pr(∃x Q) = 1 - prod_a (1 - Pr(Q[x -> a]))`` over the active domain.
* **Inclusion–exclusion with Möbius cancellation** — when a connected
  union has no separator, expand ``Pr(∨_i C_i)`` over subset
  conjunctions; dually, a conjunction of variable-disjoint but
  relation-entangled parts expands as ``Pr(∧_i C_i) = Σ_{∅≠S}
  (-1)^{|S|+1} Pr(∨_{i∈S} C_i)``.  Subset terms are grouped up to
  logical equivalence (homomorphism checks both ways), and the grouped
  coefficient of each distinct term is read off the Möbius function of
  the term lattice (:class:`repro.lattice.poset.FinitePoset` — the same
  machinery as the CNF lattice of the h-query engine).  Terms whose
  Möbius weight vanishes are dropped *before* recursion: that is where
  the #P-hard subqueries of safe queries cancel.
* **Self-join shattering** — substituted constants (symbolic
  :class:`Marker` s during plan search) split same-relation atoms into
  provably disjoint groups, re-enabling the component rules.

The search is *query-only*: separators substitute symbolic markers, so a
plan is built once per query and reused across instances (the evaluators
bind markers to actual domain constants).  Mutually dependent
inclusion–exclusion expansions (the genuinely hard queries, e.g. the full
``h_0 ∨ ... ∨ h_k`` support) are detected as cycles on the in-progress
stack and rejected with :class:`UnsafeQueryError`; the search is sound —
every plan it produces computes the exact probability — and complete on
the paper's h-query family (a test pins it against
``Classification.extensional_safe``).

The plan is an IR of small frozen ops (:class:`IndependentJoin`,
:class:`IndependentUnion`, :class:`IndependentProject`,
:class:`Complement`, :class:`InclusionExclusion`, :class:`LeafAtom`,
and :class:`HRunKernel`, which delegates an ``h``-run to the vectorized
chain DP of :mod:`repro.pqe.safe_plans`, the leaf of every h-query
plan :func:`repro.pqe.extensional.build_plan` returns).

**One walker, three arithmetics.**  Every rule but inclusion–exclusion
is one d-D gate (independent join → decomposable ∧; independent union
and project → ¬∧¬; complement → ¬; an h-run kernel → its chain DP as
gates), so evaluating a plan and grounding it are one rule table read
in different arithmetics.  One memoized recursion, :func:`_walk`, reads
it in exact :class:`~fractions.Fraction` s (with the integer chain DP
of :mod:`repro.db.columnar` for h-run kernels), in floats (numpy
columns for projections over single atoms), or in the gates of one
instance's circuit, and so fixes each rule's operand order once for
all three.  A plan grounded over one instance is a d-D circuit, and a
root inclusion–exclusion is a signed sum of its terms' gates.
:func:`ground_plan` caches that circuit's
:class:`~repro.circuits.evaluator.EvaluationTape` per plan and instance
content.  A plan's first :data:`GROUND_AFTER_CALLS` calls on an
instance's content, exact and float counted together, interpret; later
calls run its tape.  Float calls run it on the TID's memoized slot
vector (the same bits as the float interpreter); exact calls on a plan
without h-run kernels run the tape's exact backends (integers over a
common denominator, or Fractions).  Plans whose grounding would exceed
:data:`GROUND_GATE_LIMIT` gates, and plans with inclusion–exclusion
below the root, keep the interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as _np

from repro.circuits.circuit import Circuit
from repro.circuits.evaluator import EvaluationTape
from repro.db.columnar import (
    HColumnarLayout,
    columnar_layout,
    h_columns,
    relation_column_values,
    relation_grouping_layout,
    relation_probability_columns,
)
from repro.db.relation import Instance, TupleId
from repro.db.tid import TupleIndependentDatabase
from repro.lattice.poset import FinitePoset
from repro.pqe.safe_plans import (
    run_gates,
    run_probability,
    run_probability_float,
)
from repro.queries.cq import Atom, ConjunctiveQuery, Constant
from repro.queries.ucq import UnionOfCQs, conjoin_cqs, hquery_to_ucq

#: Recursion-depth backstop of the plan search: a cycle the semantic
#: check misses (canonicalization is heuristic) still terminates as
#: an :class:`UnsafeQueryError` instead of an infinite recursion.
MAX_LIFT_DEPTH = 64

#: Inclusion–exclusion enumerates subsets of disjuncts/components; cap
#: the width so a degenerate query cannot demand 2^n plan terms.
MAX_IE_WIDTH = 12

#: Plans whose grounding would exceed this many gates keep the
#: interpreters.  A warm tape call costs 28–46 ns per live gate, against
#: 0.4–0.75 ms for the interpreter on q9 at any instance size (2-vCPU
#: VM; the table in docs/extensional_fast_path.md, "Grounded plans").
GROUND_GATE_LIMIT = 8192

#: A plan's calls on one instance's content, exact and float together,
#: run the interpreters this many times before the plan is grounded, so
#: an instance evaluated only a few times never pays for a grounding.
#: A grounding costs about 30 µs per live gate: as much as 18–33
#: interpreted float calls on the 33–288 tuple instances the benchmark
#: serves (q9 on 3x3 to 4x4, ``safe_ucq`` on a 16x16 domain), and 190
#: for q9 on 9x9 (2-vCPU VM).  Renting up to the price of buying, a
#: reused instance of the first kind costs at most 1.9–2.7 times what
#: the best choice of call to ground on would.
GROUND_AFTER_CALLS = 32


class UnsafeQueryError(ValueError):
    """Raised when no safe (lifted, extensional) plan exists for a query
    — the dichotomy's #P-hard side, or a query outside the fragment the
    safe-plan search covers (callers fall back to compilation)."""


# ----------------------------------------------------------------------
# The plan IR
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Marker:
    """A symbolic constant standing for "the domain constant this
    projection binds" — plans stay data-independent; evaluators bind
    markers while iterating the active domain."""

    index: int

    def __repr__(self) -> str:
        return f"?{self.index}"


@dataclass(frozen=True)
class LeafAtom:
    """``Pr(one ground tuple)``: terms are domain values or markers; an
    absent tuple has probability 0."""

    relation: str
    terms: tuple

    def children(self) -> tuple:
        return ()


@dataclass(frozen=True)
class IndependentJoin:
    """Product of independent events; the empty join is ``1`` (⊤)."""

    parts: tuple

    def children(self) -> tuple:
        return self.parts


@dataclass(frozen=True)
class IndependentUnion:
    """``1 - prod (1 - child)`` over independent events; the empty union
    is ``0`` (⊥)."""

    parts: tuple

    def children(self) -> tuple:
        return self.parts


@dataclass(frozen=True)
class Complement:
    """``1 - child`` (negation; also the building block the union and
    project ops fuse into their complement-products)."""

    part: object

    def children(self) -> tuple:
        return (self.part,)


@dataclass(frozen=True)
class IndependentProject:
    """Separator elimination (independent project / power):
    ``1 - prod_{a in domain} (1 - child[marker -> a])``, the domain being
    the union of the instance's columns named by ``sources`` (pairs of
    ``(relation, position)`` where the separator occurs)."""

    marker: Marker
    sources: tuple
    part: object

    def children(self) -> tuple:
        return (self.part,)


@dataclass(frozen=True)
class InclusionExclusion:
    """``sum coefficient * child`` — the Möbius-weighted terms of an
    inclusion–exclusion expansion (coefficients are nonzero ints)."""

    terms: tuple  # of (coefficient, op)

    def children(self) -> tuple:
        return tuple(op for _, op in self.terms)


@dataclass(frozen=True)
class HRunKernel:
    """An h-query kernel: ``Pr(∨_{i in [a..b]} h_{k,i})`` by the
    vectorized chain DP of :mod:`repro.pqe.safe_plans` over the columnar
    h-view — the leaf of every h-query plan."""

    run: tuple
    k: int

    def children(self) -> tuple:
        return ()


LIFT_TRUE = IndependentJoin(())
LIFT_FALSE = IndependentUnion(())


@dataclass(frozen=True)
class LiftPlan:
    """One query's lifted plan: the IR root plus the source query."""

    query: object
    root: object

    def __hash__(self) -> int:
        # Groundings are cached per plan, so a served request hashes its
        # plan: hash the op tree once, not on every lookup.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.query, self.root))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # The memoized hash is salted per process: never ship it.
        return (LiftPlan, (self.query, self.root))

    def op_count(self) -> int:
        """Number of distinct ops in the DAG (shared subplans count once)."""
        seen = set()

        def walk(op):
            if op in seen:
                return
            seen.add(op)
            for child in op.children():
                walk(child)

        walk(self.root)
        return len(seen)


def describe_plan(plan: LiftPlan | object, indent: str = "") -> str:
    """A human-readable rendering of a plan (docs and the demo use it)."""
    op = plan.root if isinstance(plan, LiftPlan) else plan
    bullet = f"{indent}- "
    if isinstance(op, LeafAtom):
        inner = ",".join(repr(t) for t in op.terms)
        return f"{bullet}leaf {op.relation}({inner})"
    if isinstance(op, HRunKernel):
        return f"{bullet}h-run kernel [{op.run[0]}..{op.run[1]}] (k={op.k})"
    if isinstance(op, IndependentJoin):
        if not op.parts:
            return f"{bullet}true"
        lines = [f"{bullet}independent join"]
    elif isinstance(op, IndependentUnion):
        if not op.parts:
            return f"{bullet}false"
        lines = [f"{bullet}independent union"]
    elif isinstance(op, Complement):
        lines = [f"{bullet}complement"]
    elif isinstance(op, IndependentProject):
        sources = ", ".join(f"{rel}[{pos}]" for rel, pos in op.sources)
        lines = [f"{bullet}project {op.marker!r} over {sources}"]
    elif isinstance(op, InclusionExclusion):
        lines = [f"{bullet}inclusion–exclusion"]
        for coefficient, child in op.terms:
            lines.append(f"{indent}  [{coefficient:+d}]")
            lines.append(describe_plan(child, indent + "    "))
        return "\n".join(lines)
    else:  # pragma: no cover - defensive
        return f"{bullet}{op!r}"
    for child in op.children():
        lines.append(describe_plan(child, indent + "  "))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Homomorphism infrastructure (implication, equivalence, minimization)
# ----------------------------------------------------------------------


def _frozen_variable(name: str):
    """The canonical-database constant freezing a query variable."""
    return ("__lift_var__", name)


def _canonical_instance(cq: ConjunctiveQuery) -> Instance:
    """The canonical database of ``cq``: variables frozen to fresh
    constants — ``C1 ⊨ C2`` iff ``C2`` holds in ``C1``'s canonical db."""
    instance = Instance()
    for atom in cq.atoms:
        if atom.relation not in {r.name for r in instance.relations()}:
            instance.declare(atom.relation, len(atom.terms))
        instance.add(
            atom.relation,
            tuple(
                term.value
                if isinstance(term, Constant)
                else _frozen_variable(term)
                for term in atom.terms
            ),
        )
    return instance


class _BuildContext:
    """Shared state of one plan search: fresh markers, memo tables, the
    in-progress stack for cycle (unsafety) detection."""

    def __init__(self) -> None:
        self.counter = 0
        self.memo: dict = {}
        self.implies_cache: dict = {}
        self.canonical_cache: dict = {}
        self.stack: list = []
        self.depth = 0

    def fresh_marker(self) -> Marker:
        marker = Marker(self.counter)
        self.counter += 1
        return marker

    def implies(self, c1: ConjunctiveQuery, c2: ConjunctiveQuery) -> bool:
        """``c1 ⊨ c2`` (there is a homomorphism from ``c2`` into ``c1``)."""
        key = (c1, c2)
        cached = self.implies_cache.get(key)
        if cached is None:
            cached = c2.holds_in(_canonical_instance(c1))
            self.implies_cache[key] = cached
        return cached

    def equivalent(self, c1: ConjunctiveQuery, c2: ConjunctiveQuery) -> bool:
        return self.implies(c1, c2) and self.implies(c2, c1)

    def union_implies(self, u1: tuple, u2: tuple) -> bool:
        """UCQ implication: every disjunct of ``u1`` implies some
        disjunct of ``u2`` (the classical containment criterion)."""
        return all(
            any(self.implies(c, d) for d in u2) for c in u1
        )

    def unions_equivalent(self, u1: tuple, u2: tuple) -> bool:
        return self.union_implies(u1, u2) and self.union_implies(u2, u1)

    def canonical_cq_key(self, cq: ConjunctiveQuery):
        """A deterministic renaming-invariant key (greedy labeling; used
        for memoization and stable orderings, never for semantics)."""
        cached = self.canonical_cache.get(cq)
        if cached is not None:
            return cached
        remaining = list(dict.fromkeys(cq.atoms))
        naming: dict[str, int] = {}
        rendered = []

        def render(atom: Atom):
            return (
                atom.relation,
                tuple(
                    ("c", repr(term.value))
                    if isinstance(term, Constant)
                    else ("v", naming.get(term, -1))
                    for term in atom.terms
                ),
            )

        while remaining:
            best = min(remaining, key=render)
            remaining.remove(best)
            for term in best.terms:
                if isinstance(term, str) and term not in naming:
                    naming[term] = len(naming)
            rendered.append(render(best))
        key = tuple(rendered)
        self.canonical_cache[cq] = key
        return key


def _minimize_cq(cq: ConjunctiveQuery, ctx: _BuildContext) -> ConjunctiveQuery:
    """The (greedy) core of ``cq``: drop atoms while the reduced query
    still implies the original — removes duplicated and hom-redundant
    atoms, the step that makes self-join shattering converge."""
    atoms = list(dict.fromkeys(cq.atoms))
    current = ConjunctiveQuery(tuple(atoms))
    changed = True
    while changed and len(atoms) > 1:
        changed = False
        for i in range(len(atoms)):
            reduced = ConjunctiveQuery(tuple(atoms[:i] + atoms[i + 1:]))
            if ctx.implies(reduced, current):
                atoms = list(reduced.atoms)
                current = reduced
                changed = True
                break
    return current


def _minimize_union(disjuncts: tuple, ctx: _BuildContext) -> tuple:
    """Core-minimize every disjunct and absorb subsumed ones (``C_i`` is
    dropped when it implies another disjunct); deterministic order."""
    minimized = sorted(
        (_minimize_cq(cq, ctx) for cq in disjuncts),
        key=ctx.canonical_cq_key,
    )
    kept: list[ConjunctiveQuery] = []
    for candidate in minimized:
        if any(ctx.implies(candidate, existing) for existing in kept):
            continue
        kept = [
            existing
            for existing in kept
            if not ctx.implies(existing, candidate)
        ] + [candidate]
    return tuple(kept)


# ----------------------------------------------------------------------
# Component decomposition and separator search
# ----------------------------------------------------------------------


def _atoms_may_overlap(a: Atom, b: Atom) -> bool:
    """Whether two atoms can ground to the same tuple in some instance:
    same relation and arity, and every position where *both* carry a
    plain constant agrees (markers may bind any value, so they are
    compatible with everything)."""
    if a.relation != b.relation or len(a.terms) != len(b.terms):
        return False
    for ta, tb in zip(a.terms, b.terms):
        if not (isinstance(ta, Constant) and isinstance(tb, Constant)):
            continue
        if isinstance(ta.value, Marker) or isinstance(tb.value, Marker):
            continue
        if ta.value != tb.value:
            return False
    return True


def _group_connected(items: list, connected) -> list[list]:
    """Union-find the items under the pairwise ``connected`` predicate."""
    parents = list(range(len(items)))

    def find(i: int) -> int:
        while parents[i] != i:
            parents[i] = parents[parents[i]]
            i = parents[i]
        return i

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if connected(items[i], items[j]):
                parents[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i, item in enumerate(items):
        groups.setdefault(find(i), []).append(item)
    return list(groups.values())


def _cq_components(
    cq: ConjunctiveQuery, ctx: _BuildContext, *, overlap: bool = True
) -> list[ConjunctiveQuery]:
    """The connected components of a CQ's atoms: atoms sharing a variable
    are connected; with ``overlap`` (the independence-safe notion), atoms
    of the same relation that may share ground tuples are too."""

    def connected(a: Atom, b: Atom) -> bool:
        if a.variables() & b.variables():
            return True
        return overlap and _atoms_may_overlap(a, b)

    groups = _group_connected(list(dict.fromkeys(cq.atoms)), connected)
    components = [ConjunctiveQuery(tuple(group)) for group in groups]
    return sorted(components, key=ctx.canonical_cq_key)


def _union_components(disjuncts: tuple, ctx: _BuildContext) -> list[tuple]:
    """Group disjuncts whose atoms may share ground tuples; distinct
    groups describe independent events (variables are scoped per CQ, so
    only relation/constant overlap can correlate them)."""

    def connected(c1: ConjunctiveQuery, c2: ConjunctiveQuery) -> bool:
        return any(
            _atoms_may_overlap(a, b) for a in c1.atoms for b in c2.atoms
        )

    groups = _group_connected(list(disjuncts), connected)
    return sorted(
        (tuple(group) for group in groups),
        key=lambda group: tuple(ctx.canonical_cq_key(cq) for cq in group),
    )


def _root_options(cq: ConjunctiveQuery, variable: str) -> dict | None:
    """Per-relation positions at which ``variable`` occurs in *every*
    atom of that relation in ``cq`` — ``None`` when some relation has no
    common position (then ``variable`` cannot anchor the shattering)."""
    options: dict[str, set[int]] = {}
    for atom in cq.atoms:
        positions = {
            index for index, term in enumerate(atom.terms) if term == variable
        }
        if not positions:
            return None
        existing = options.get(atom.relation)
        options[atom.relation] = (
            positions if existing is None else existing & positions
        )
    if any(not positions for positions in options.values()):
        return None
    return options


def _union_separator(disjuncts: tuple):
    """A separator for a (connected) union: one root variable per
    disjunct occurring in each of its atoms, with a single consistent
    position per relation *across all disjuncts* — the condition that
    makes per-constant instances tuple-disjoint.  Returns ``(roots,
    positions)`` or ``None``."""

    def solve(index: int, positions: dict) -> tuple | None:
        if index == len(disjuncts):
            return (), positions
        cq = disjuncts[index]
        candidates = sorted(
            frozenset.intersection(
                *[atom.variables() for atom in cq.atoms]
            )
        )
        for variable in candidates:
            options = _root_options(cq, variable)
            if options is None:
                continue
            if any(
                rel in positions and positions[rel] not in opts
                for rel, opts in options.items()
            ):
                continue
            free = sorted(rel for rel in options if rel not in positions)
            for combo in product(
                *[sorted(options[rel]) for rel in free]
            ):
                extended = dict(positions)
                extended.update(zip(free, combo))
                solution = solve(index + 1, extended)
                if solution is not None:
                    roots, final = solution
                    return (variable,) + roots, final
        return None

    if any(not cq.atoms or not cq.variables() for cq in disjuncts):
        return None
    return solve(0, {})


def _substitute(
    cq: ConjunctiveQuery, variable: str, marker: Marker
) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        tuple(
            Atom(
                atom.relation,
                tuple(
                    Constant(marker) if term == variable else term
                    for term in atom.terms
                ),
            )
            for atom in cq.atoms
        )
    )


# ----------------------------------------------------------------------
# Möbius-grouped inclusion–exclusion
# ----------------------------------------------------------------------

_IE_TOP = "⊤"
_IE_BOTTOM = "⊥"


def _mobius_grouped(
    items: list, make_term, term_implies, equivalent, *, dual: bool
):
    """Group the nonempty-subset terms of an inclusion–exclusion up to
    logical equivalence and weight each class by the Möbius function of
    the term lattice (computed with :class:`FinitePoset`): conjunction
    terms of a union expansion are *meets*, weighted ``-mu(term, 1̂)``
    against an adjoined top (⊤ = the empty conjunction); the ``dual``
    expansion of a conjunction produces *join* terms, weighted
    ``-mu(0̂, term)`` against an adjoined bottom (⊥ = the empty union).
    Both equal the regrouped ``(-1)^{|S|+1}`` subset sums — a test pins
    that — and zero-weight classes, the cancelled (possibly #P-hard)
    subqueries, are dropped before any recursion."""
    if len(items) > MAX_IE_WIDTH:
        raise UnsafeQueryError(
            f"inclusion–exclusion over {len(items)} parts exceeds the "
            f"plan-search width bound {MAX_IE_WIDTH}"
        )
    representatives: list = []
    for size in range(1, len(items) + 1):
        for subset in combinations(range(len(items)), size):
            term = make_term([items[i] for i in subset])
            if not any(
                equivalent(term, existing) for existing in representatives
            ):
                representatives.append(term)
    sentinel = _IE_BOTTOM if dual else _IE_TOP

    def leq(a, b) -> bool:
        if a == b:
            return True
        if b == sentinel:
            return dual is False
        if a == sentinel:
            return dual is True
        return term_implies(representatives[a], representatives[b])

    poset = FinitePoset([sentinel] + list(range(len(representatives))), leq)
    if dual:
        weights = {
            i: poset.mobius(sentinel, i)
            for i in range(len(representatives))
        }
    else:
        weights = poset.mobius_column(sentinel)
    return [
        (-weights[i], representatives[i])
        for i in range(len(representatives))
        if weights[i] != 0
    ]


# ----------------------------------------------------------------------
# The safe-plan search
# ----------------------------------------------------------------------


def _lift_or(disjuncts: tuple, ctx: _BuildContext):
    disjuncts = _minimize_union(disjuncts, ctx)
    if not disjuncts:
        return LIFT_FALSE
    if any(not cq.atoms for cq in disjuncts):
        return LIFT_TRUE
    key = ("or",) + tuple(ctx.canonical_cq_key(cq) for cq in disjuncts)
    cached = ctx.memo.get(key)
    if cached is not None:
        return cached
    for in_progress in ctx.stack:
        if ctx.unions_equivalent(disjuncts, in_progress):
            raise UnsafeQueryError(
                "query is unsafe: inclusion–exclusion expansion of "
                f"{_render_union(disjuncts)} depends on itself (the "
                "hard subquery survives with non-zero Möbius weight)"
            )
    if ctx.depth >= MAX_LIFT_DEPTH:
        raise UnsafeQueryError(
            f"safe-plan search exceeded depth {MAX_LIFT_DEPTH}"
        )
    ctx.stack.append(disjuncts)
    ctx.depth += 1
    try:
        op = _lift_or_connected(disjuncts, ctx)
    finally:
        ctx.stack.pop()
        ctx.depth -= 1
    ctx.memo[key] = op
    return op


def _lift_or_connected(disjuncts: tuple, ctx: _BuildContext):
    components = _union_components(disjuncts, ctx)
    if len(components) > 1:
        return IndependentUnion(
            tuple(_lift_or(component, ctx) for component in components)
        )
    if len(disjuncts) == 1:
        return _lift_cq(disjuncts[0], ctx)
    separator = _union_separator(disjuncts)
    if separator is not None:
        roots, positions = separator
        marker = ctx.fresh_marker()
        substituted = tuple(
            _substitute(cq, root, marker)
            for cq, root in zip(disjuncts, roots)
        )
        sources = tuple(sorted(positions.items()))
        return IndependentProject(
            marker, sources, _lift_or(substituted, ctx)
        )
    grouped = _mobius_grouped(
        list(disjuncts),
        lambda subset: _minimize_cq(conjoin_cqs(subset), ctx),
        ctx.implies,
        ctx.equivalent,
        dual=False,
    )
    return InclusionExclusion(
        tuple(
            (coefficient, _lift_cq(term, ctx))
            for coefficient, term in grouped
        )
    )


def _lift_cq(cq: ConjunctiveQuery, ctx: _BuildContext):
    cq = _minimize_cq(cq, ctx)
    if not cq.atoms:
        return LIFT_TRUE
    key = ("cq", ctx.canonical_cq_key(cq))
    cached = ctx.memo.get(key)
    if cached is not None:
        return cached
    op = _lift_cq_connected(cq, ctx)
    ctx.memo[key] = op
    return op


def _lift_cq_connected(cq: ConjunctiveQuery, ctx: _BuildContext):
    components = _cq_components(cq, ctx)
    if len(components) > 1:
        return IndependentJoin(
            tuple(_lift_cq(component, ctx) for component in components)
        )
    if len(cq.atoms) == 1 and not cq.variables():
        atom = cq.atoms[0]
        return LeafAtom(
            atom.relation, tuple(term.value for term in atom.terms)
        )
    separator = _union_separator((cq,))
    if separator is not None:
        (root,), positions = separator
        marker = ctx.fresh_marker()
        sources = tuple(sorted(positions.items()))
        return IndependentProject(
            marker, sources, _lift_cq(_substitute(cq, root, marker), ctx)
        )
    parts = _cq_components(cq, ctx, overlap=False)
    if len(parts) > 1:
        # No separator, but the variable-connected parts are entangled
        # only through shared relations: expand by the dual
        # inclusion–exclusion  Pr(∧ P_i) = Σ ± Pr(∨_{S} P_i), whose union
        # terms regain separators (or decompose further).
        grouped = _mobius_grouped(
            parts,
            lambda subset: _minimize_union(tuple(subset), ctx),
            ctx.union_implies,
            ctx.unions_equivalent,
            dual=True,
        )
        return InclusionExclusion(
            tuple(
                (coefficient, _lift_or(term, ctx))
                for coefficient, term in grouped
            )
        )
    raise UnsafeQueryError(
        f"query is unsafe: connected subquery {cq} has no separator "
        "variable (the hierarchical condition fails)"
    )


def _render_union(disjuncts: tuple) -> str:
    return " ∨ ".join(f"({cq})" for cq in disjuncts)


def _as_ucq(query) -> UnionOfCQs:
    if isinstance(query, UnionOfCQs):
        return query
    if isinstance(query, ConjunctiveQuery):
        return UnionOfCQs((query,))
    if hasattr(query, "phi"):  # HQuery without importing the class
        try:
            return hquery_to_ucq(query)
        except ValueError as error:
            raise UnsafeQueryError(str(error)) from error
    raise TypeError(f"cannot lift {type(query).__name__} queries")


def _validate_arities(ucq: UnionOfCQs) -> None:
    arities: dict[str, int] = {}
    for cq in ucq.disjuncts:
        for atom in cq.atoms:
            known = arities.setdefault(atom.relation, len(atom.terms))
            if known != len(atom.terms):
                raise ValueError(
                    f"relation {atom.relation!r} used with arities "
                    f"{known} and {len(atom.terms)}"
                )


def lift_query(query) -> LiftPlan:
    """The lifted (extensional) plan of a UCQ, CQ or monotone H-query.

    :raises UnsafeQueryError: when the safe-plan search finds no plan —
        the query is #P-hard (or outside the covered fragment).
    :raises ValueError: on malformed queries (inconsistent arities).
    """
    ucq = _as_ucq(query)
    _validate_arities(ucq)
    ctx = _BuildContext()
    root = _lift_or(tuple(ucq.disjuncts), ctx)
    return LiftPlan(query=query, root=root)


def is_liftable(query) -> bool:
    """Whether the safe-plan search lifts ``query`` — the general safety
    test subsuming ``Classification.extensional_safe`` (a property test
    pins their agreement on the h-query family)."""
    try:
        lift_query(query)
    except (UnsafeQueryError, TypeError, ValueError):
        return False
    return True


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


class _PlanWalk:
    """The state :func:`_walk` keeps for one pass over a plan: a
    per-(op, bindings) memo so shared subplans — and the distinct runs
    of h-query plans — are visited once."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.memo: dict = {}
        self._free: dict = {}

    def free_markers(self, op) -> frozenset:
        cached = self._free.get(op)
        if cached is not None:
            return cached
        if isinstance(op, LeafAtom):
            free = frozenset(
                term for term in op.terms if isinstance(term, Marker)
            )
        elif isinstance(op, IndependentProject):
            free = self.free_markers(op.part) - {op.marker}
        else:
            free = frozenset()
            for child in op.children():
                free |= self.free_markers(child)
        self._free[op] = free
        return free

    def bindings_key(self, op, env: dict) -> tuple:
        free = self.free_markers(op)
        if not free:
            return ()
        return tuple(
            sorted(
                ((marker.index, env[marker]) for marker in free),
                key=lambda pair: (pair[0], repr(pair[1])),
            )
        )

    def group(self, relation: str, key_positions: tuple, key: tuple):
        """A projection's columnar group (:func:`_projection_group`): the
        complement-product over the group's tuples."""
        groups = relation_grouping_layout(
            self.instance, relation, key_positions
        )
        return self.any_of([self.var(t) for t in groups.get(key, ())])


def _project_domain(instance: Instance, sources: tuple) -> list:
    """The active domain a projection ranges over: the distinct values in
    the named ``(relation, position)`` columns, in deterministic order
    (version-cached on the instance)."""

    def build(db: Instance) -> list:
        values = set()
        for relation, position in sources:
            values.update(relation_column_values(db, relation, position))
        return sorted(values, key=repr)

    return instance.cached_derivation(("pqe.lift.domain", sources), build)


def _walk(op, env: dict, arithmetic):
    """The value of ``op`` under the marker bindings ``env``, in one of
    three arithmetics: :class:`_Exact`, :class:`_Float` or the gates of
    :class:`_Grounding`.  Each rule is one gate read in the arithmetic —
    a leaf is a tuple's variable (``false`` when absent), an independent
    join ∧, an independent union or project ¬∧¬ (``any_of``), a
    complement ¬ — so a grounded tape keeps the float arithmetic's
    operand order by construction."""
    key = (op, arithmetic.bindings_key(op, env))
    cached = arithmetic.memo.get(key)
    if cached is not None:  # gate 0 and Fraction(0) are hits
        return cached
    if isinstance(op, LeafAtom):
        values = tuple(
            env[term] if isinstance(term, Marker) else term
            for term in op.terms
        )
        value = (
            arithmetic.var(TupleId(op.relation, values))
            if arithmetic.instance.has(op.relation, values)
            else arithmetic.false
        )
    elif isinstance(op, IndependentJoin):
        value = arithmetic.and_([_walk(c, env, arithmetic) for c in op.parts])
    elif isinstance(op, IndependentUnion):
        value = arithmetic.any_of(
            [_walk(c, env, arithmetic) for c in op.parts]
        )
    elif isinstance(op, Complement):
        value = arithmetic.not_(_walk(op.part, env, arithmetic))
    elif isinstance(op, IndependentProject):
        group = _projection_group(op, env, arithmetic.instance)
        if group is not None:
            value = arithmetic.group(*group)
        else:
            domain = _project_domain(arithmetic.instance, op.sources)
            value = arithmetic.any_of([
                _walk(op.part, {**env, op.marker: constant}, arithmetic)
                for constant in domain
            ])
    elif isinstance(op, InclusionExclusion):
        value = arithmetic.signed_sum(
            (coefficient, _walk(child, env, arithmetic))
            for coefficient, child in op.terms
        )
    elif isinstance(op, HRunKernel):
        value = arithmetic.kernel(op)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown lift op {type(op).__name__}")
    arithmetic.memo[key] = value
    return value


def _projection_group(op: IndependentProject, env: dict, instance: Instance):
    """When the child is one atom of its relation's arity (no fact
    matches another) in which the projected marker occurs exactly once
    and every other term is resolved, the whole domain sweep is one group
    of that relation's facts: return ``(relation, key positions, key
    values)``, else ``None``."""
    child = op.part
    if not isinstance(child, LeafAtom):
        return None
    try:
        if instance.relation(child.relation).arity != len(child.terms):
            return None
    except KeyError:
        return None
    marker_positions = [
        index for index, term in enumerate(child.terms) if term == op.marker
    ]
    if len(marker_positions) != 1:
        return None
    key_positions = []
    key_values = []
    for index, term in enumerate(child.terms):
        if index == marker_positions[0]:
            continue
        if isinstance(term, Marker):
            if term not in env:
                return None
            key_values.append(env[term])
        else:
            key_values.append(term)
        key_positions.append(index)
    return child.relation, tuple(key_positions), tuple(key_values)


class _Numbers(_PlanWalk):
    """The walker's arithmetic of probabilities over a TID: ∧ multiplies,
    ¬ complements, ¬∧¬ is the complement-product, each folded left to
    right from ``true``; a root inclusion–exclusion is the signed sum."""

    def __init__(self, tid: TupleIndependentDatabase):
        super().__init__(tid.instance)
        self.tid = tid
        self._h_columns: dict = {}

    def h_columns(self, k: int):
        columns = self._h_columns.get(k)
        if columns is None:
            columns = self._h_columns[k] = h_columns(self.tid, k)
        return columns

    def and_(self, values):
        value = self.true
        for child in values:
            value *= child
        return value

    def not_(self, value):
        return self.true - value

    def any_of(self, values):
        one = self.true
        miss = one
        for child in values:
            miss *= one - child
        return one - miss

    def signed_sum(self, terms):
        value = self.false
        for coefficient, child in terms:
            value += coefficient * child
        return value


class _Exact(_Numbers):
    """Exact :class:`~fractions.Fraction` s; h-run kernels sweep the
    columnar integers (:func:`run_probability`)."""

    true, false = Fraction(1), Fraction(0)

    def var(self, tuple_id: TupleId) -> Fraction:
        return self.tid.probability_of(tuple_id)

    def kernel(self, op: HRunKernel) -> Fraction:
        return run_probability(
            op.run, op.k, self.tid, columns=self.h_columns(op.k)
        )


class _Float(_Numbers):
    """Floats; a projection's group is one numpy complement-product over
    its probability column, and h-run kernels the float chain-DP sweeps
    (:func:`run_probability_float`)."""

    true, false = 1.0, 0.0

    def var(self, tuple_id: TupleId) -> float:
        return float(self.tid.probability_of(tuple_id))

    def group(self, relation: str, key_positions: tuple, key: tuple):
        groups = relation_probability_columns(
            self.tid, relation, key_positions
        )
        column = groups.get(key, _EMPTY_COLUMN)
        return float(1.0 - _np.prod(1.0 - column))

    def kernel(self, op: HRunKernel) -> float:
        return run_probability_float(
            op.run, op.k, self.tid, columns=self.h_columns(op.k)
        )


_EMPTY_COLUMN = _np.zeros(0)


def _plan_ops(root) -> set:
    """The distinct ops of a plan DAG."""
    seen = set()
    stack = [root]
    while stack:
        op = stack.pop()
        if op not in seen:
            seen.add(op)
            stack.extend(op.children())
    return seen


def _contains_kernel(root) -> bool:
    return any(isinstance(op, HRunKernel) for op in _plan_ops(root))


# -- grounding ------------------------------------------------------------


class _Ungroundable(Exception):
    """The grounding stops: over its gate limit, or an
    inclusion–exclusion below the root."""


class _Grounding(_PlanWalk):
    """The walker's arithmetic of gates: a hash-consed circuit over one
    instance and its gate builders.

    The builders fold constants only where the float arithmetic is exact
    (``x·1.0``, ``x·0.0`` on the non-negative values a plan computes,
    ``x+0.0``, ``1.0−1.0``, ``1.0−0.0``), and keep every other gate's
    inputs in the walker's operand order.
    """

    def __init__(self, instance: Instance, limit: int | None):
        super().__init__(instance)
        self.limit = limit
        self.circuit = Circuit(dedup=True)
        self.false = self.circuit.add_const(False)
        self.true = self.circuit.add_const(True)

    def _counted(self, gate: int) -> int:
        if self.limit is not None and len(self.circuit) > self.limit:
            raise _Ungroundable
        return gate

    def var(self, tuple_id: TupleId) -> int:
        return self._counted(self.circuit.add_var(tuple_id))

    def and_(self, inputs) -> int:
        kept = []
        for gate in inputs:
            if gate == self.false:
                return self.false
            if gate != self.true:
                kept.append(gate)
        return self._counted(self.circuit.add_and(kept))

    def or_(self, inputs) -> int:
        return self._counted(
            self.circuit.add_or([g for g in inputs if g != self.false])
        )

    def not_(self, gate: int) -> int:
        if gate == self.true:
            return self.false
        if gate == self.false:
            return self.true
        return self._counted(self.circuit.add_not(gate))

    def any_of(self, gates) -> int:
        """``1 − ∏(1 − g)``, the independent union, as ¬∧¬."""
        return self.not_(self.and_([self.not_(g) for g in gates]))

    def kernel(self, op: HRunKernel) -> int:
        return run_gates(
            op.run, op.k, columnar_layout(self.instance, op.k), self
        )

    def signed_sum(self, terms):
        raise _Ungroundable  # below the root: the interpreters keep it

    def ground(self, root) -> tuple[Circuit, tuple | None] | None:
        """:func:`ground_circuit`'s result for ``root``, or ``None`` when
        the grounding stops."""
        try:
            if isinstance(root, InclusionExclusion):
                terms = tuple(
                    (coefficient, _walk(child, {}, self))
                    for coefficient, child in root.terms
                )
                return self.circuit, terms
            self.circuit.set_output(_walk(root, {}, self))
        except _Ungroundable:
            return None
        return self.circuit, None


def ground_circuit(
    plan: LiftPlan | object, instance: Instance
) -> tuple[Circuit, tuple | None] | None:
    """Ground a plan over ``instance`` into one hash-consed circuit.

    Returns ``(circuit, terms)``.  Without inclusion–exclusion the
    circuit's output is the plan and ``terms`` is ``None``; a root
    inclusion–exclusion leaves the output unset and returns its
    ``(coefficient, gate)`` terms, whose signed sum is the plan.  Every
    gate of a sound plan's circuit is d-D (tests check it with
    :func:`repro.circuits.validation.assert_d_d`).  Returns ``None``
    only for an inclusion–exclusion below the root: the construction
    has no size limit (:func:`ground_plan` holds what an instance caches
    to :data:`GROUND_GATE_LIMIT`).
    """
    root = plan.root if isinstance(plan, LiftPlan) else plan
    return _Grounding(instance, None).ground(root)


def _ground_within_limit(
    plan: LiftPlan | object, instance: Instance
) -> tuple[Circuit, tuple | None] | None:
    """:func:`ground_circuit`, or ``None`` when the circuit would exceed
    :data:`GROUND_GATE_LIMIT` gates.  h-run kernels are held to that
    limit by :func:`_kernel_gate_bound` before any gate is built, so a
    large instance costs no thrown-away grounding."""
    root = plan.root if isinstance(plan, LiftPlan) else plan
    kernels = [op for op in _plan_ops(root) if isinstance(op, HRunKernel)]
    if kernels and _kernel_gate_bound(kernels, instance) > GROUND_GATE_LIMIT:
        return None
    return _Grounding(instance, GROUND_GATE_LIMIT).ground(root)


def _kernel_gate_bound(kernels: list, instance: Instance) -> int:
    """An upper bound on the gates ``kernels`` add to a grounding over
    ``instance``.  Gates of distinct groups never coincide, and an absent
    tuple only folds gates away, so no group adds more than the kernels
    grounded over one complete group.  That count, on a one-group
    layout, also holds one group's side and root gates, so scaling it by
    the group count covers every side value too."""
    bound = 0
    for k in sorted({op.k for op in kernels}):
        layout = columnar_layout(instance, k)
        one = HColumnarLayout(
            k=k,
            xs=(0,),
            ys=(0,),
            r_slots=((0, "R"),),
            t_slots=((0, "T"),),
            s_slots=tuple(((0, f"S{i}"),) for i in range(1, k + 1)),
        )
        g = _Grounding(Instance(), None)
        for op in kernels:
            if op.k == k:
                run_gates(op.run, k, one, g)
        bound += (len(g.circuit) - 2) * layout.nx * layout.ny
    return bound


class _PlanGrounding:
    """One plan over one instance's content: the calls that have
    interpreted it so far, then its grounded tape (``None`` when the plan
    keeps the interpreter)."""

    __slots__ = ("calls", "tape")

    def __init__(self):
        self.calls = 0
        self.tape = _NOT_GROUNDED


_NOT_GROUNDED = object()


def _plan_grounding(plan, instance: Instance) -> _PlanGrounding:
    return instance.cached_derivation(
        ("pqe.lift.ground", plan), lambda db: _PlanGrounding()
    )


def ground_plan(
    plan: LiftPlan | object, instance: Instance
) -> EvaluationTape | None:
    """The evaluation tape of :func:`ground_circuit`, built on the first
    call and cached per plan and instance content
    (:meth:`~repro.db.relation.Instance.cached_derivation`; only the
    tape and its generated code stay).  ``None`` — also cached — when
    the plan keeps the interpreter: an inclusion–exclusion below the
    root, or a circuit over :data:`GROUND_GATE_LIMIT` gates."""
    grounding = _plan_grounding(plan, instance)
    if grounding.tape is _NOT_GROUNDED:
        with instance.derivation_lock:
            if grounding.tape is _NOT_GROUNDED:
                grounded = _ground_within_limit(plan, instance)
                grounding.tape = (
                    None if grounded is None
                    else EvaluationTape.from_circuit(*grounded)
                )
    return grounding.tape


def _reused_tape(plan, instance: Instance) -> EvaluationTape | None:
    """The plan's grounded tape once ``instance``'s content has served it
    :data:`GROUND_AFTER_CALLS` calls, exact and float together (exact
    calls count only on plans without h-run kernels, the ones whose
    exact answers run the tape); ``None`` before that, and when the plan
    keeps the interpreter.  The count's increment and comparison run
    under the instance's derivation lock, so no call is lost between
    threads."""
    grounding = _plan_grounding(plan, instance)
    tape = grounding.tape
    if tape is _NOT_GROUNDED:
        with instance.derivation_lock:
            grounding.calls += 1
            reused = grounding.calls > GROUND_AFTER_CALLS
        tape = ground_plan(plan, instance) if reused else None
    return tape


def evaluate_plan(plan: LiftPlan | object, tid: TupleIndependentDatabase) -> Fraction:
    """Exact ``Pr(Q)`` of a lifted plan.  A plan without h-run kernels
    runs :func:`_walk` in :class:`_Exact` arithmetic until its instance
    is reused, then its grounded tape (:func:`_reused_tape`) on the
    tape's exact backend: integers over a common denominator, or
    Fractions when that denominator exceeds 64 bits.  Plans with
    kernels, and plans that do not ground, always run the walker, whose
    kernels sweep the columnar integers.  Every path is exact, so they
    agree as Fractions."""
    root = plan.root if isinstance(plan, LiftPlan) else plan
    if not _contains_kernel(root):
        tape = _reused_tape(plan, tid.instance)
        if tape is not None:
            return tape.evaluate(tid.probability_map())
    return _walk(root, {}, _Exact(tid))


def evaluate_plan_float(
    plan: LiftPlan | object, tid: TupleIndependentDatabase
) -> float:
    """Float ``Pr(Q)`` of a lifted plan: :func:`_walk` in :class:`_Float`
    arithmetic (numpy-columnar groups for single-atom projections, the
    chain-DP float sweeps for h-kernels) until its instance is reused,
    then its grounded tape (:func:`_reused_tape`) on the TID's memoized
    slot vector, unless the plan keeps the interpreter.  Both give the
    same bits."""
    tape = _reused_tape(plan, tid.instance)
    if tape is not None:
        return tape.evaluate_vectors([tid.slot_vector(tape)])[0]
    root = plan.root if isinstance(plan, LiftPlan) else plan
    return _walk(root, {}, _Float(tid))


def evaluate_plan_batch(
    plan: LiftPlan | object, tids: list
) -> list[float]:
    """Float ``Pr(Q)`` over many TIDs sharing one plan; per-TID results
    are independent of batch composition (the microbatcher's contract)."""
    return [evaluate_plan_float(plan, tid) for tid in tids]


def lifted_probability(
    query, tid: TupleIndependentDatabase, *, plan: LiftPlan | None = None
) -> Fraction:
    """Exact ``Pr(Q)`` by general lifted inference.

    :raises UnsafeQueryError: when no safe plan exists.
    """
    if plan is None:
        plan = lift_query(query)
    return evaluate_plan(plan, tid)


def lifted_probability_float(
    query, tid: TupleIndependentDatabase, *, plan: LiftPlan | None = None
) -> float:
    """The float backend of :func:`lifted_probability`."""
    if plan is None:
        plan = lift_query(query)
    return evaluate_plan_float(plan, tid)
