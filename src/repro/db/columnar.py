"""Columnar probability views of TIDs over the ``h_{k,i}`` schema.

The extensional safe-plan evaluator (:mod:`repro.pqe.safe_plans`) spends
its time in grouped reductions: per-``(x, y)`` chains over the ``S_i``
probabilities, per-``x`` products over ``y`` (the ``R`` side), per-``y``
products over ``x`` (the ``T`` side).  Walking ``TupleId`` dict lookups
per tuple per group pays hash-and-branch costs on every access; this
module materializes, once per TID, the *columns* those scans consume:

* the side domains ``xs`` / ``ys`` (sorted, as in the lifted plans) and
  their dense index maps — the group keys;
* per-relation probability columns: ``R`` over ``xs``, ``T`` over ``ys``,
  each ``S_i`` as a dense ``nx x ny`` grid in x-major order (absent
  tuples hold probability 0, matching the evaluator's convention), so
  grouping by ``x`` is a row, by ``y`` a column, and by ``(x, y)`` an
  element;
* two numeric encodings of every column: numpy ``float`` arrays for the
  vectorized backend, and integer numerators over one shared common
  denominator ``D`` for the exact backend — the same integer
  common-denominator trick
  :meth:`repro.circuits.evaluator.EvaluationTape.evaluate` uses, up to
  :data:`EXACT_DENOMINATOR_BITS` (``denominator`` is ``None`` beyond it
  and the exact caller falls back to :class:`~fractions.Fraction`
  arithmetic).

Caching is two-layered, both keyed by the existing version counters: the
*layout* (domains, index maps, present-tuple positions) depends only on
the instance's facts and lives in
:meth:`~repro.db.relation.Instance.cached_derivation`; the *filled*
columns additionally depend on ``pi`` and live in
:meth:`~repro.db.tid.TupleIndependentDatabase.cached_derivation`, so
probability updates rebuild only the numeric fill, never the layout.
Both cached objects are shared state — treat them as read-only.

Beyond the fixed h-schema, the same two-layer scheme serves *generalized*
views keyed by ``(relation, grouping positions)`` —
:func:`relation_column_values` (projection domains) and
:func:`relation_probability_columns` (per-group probability columns) —
which the lifted-inference IR of :mod:`repro.pqe.lift` consumes for its
projection sweeps over arbitrary schemas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as _np

from repro.db.relation import Instance, TupleId
from repro.db.tid import TupleIndependentDatabase

#: Common denominators above this many bits disable the exact integer
#: encoding, and the h-run kernels fall back to per-group Fractions.
#: The integer sweep's numbers grow with the instance, so its lead
#: shrinks with it: on q9 over ``complete_tid`` (2-vCPU VM) the fallback
#: wins from about 1,100 bits at 4x4, 500 at 10x10 and 280 at 19x19,
#: while at 180 bits the sweep is 8x faster at 4x4 and 2.8x at 19x19.
EXACT_DENOMINATOR_BITS = 192


@dataclass(frozen=True)
class HColumnarLayout:
    """The structural half of a columnar view: group keys and the dense
    positions of the present tuples.  Content-derived only — cached via
    :meth:`~repro.db.relation.Instance.cached_derivation`."""

    k: int
    xs: tuple  #: x-side active domain, sorted by repr
    ys: tuple  #: y-side active domain, sorted by repr
    #: present ``R`` facts as ``(x index, TupleId)``
    r_slots: tuple[tuple[int, TupleId], ...]
    #: present ``T`` facts as ``(y index, TupleId)``
    t_slots: tuple[tuple[int, TupleId], ...]
    #: per ``S_i`` (``i = 1..k``): present facts as flat x-major grid
    #: positions ``(x_index * ny + y_index, TupleId)``
    s_slots: tuple[tuple[tuple[int, TupleId], ...], ...]

    @property
    def nx(self) -> int:
        return len(self.xs)

    @property
    def ny(self) -> int:
        return len(self.ys)


_S_NAME = re.compile(r"S[1-9][0-9]*")


def is_h_fact(tuple_id: TupleId) -> bool:
    """Whether a fact matches an atom of the h-schema for some ``k``:
    ``R`` or ``T`` at arity 1, or ``S<i>`` at arity 2 with ``i`` a positive
    decimal without a leading zero (``S``, ``S01``, ``Score`` and ``S٣``
    match none).  :func:`columnar_layout` applies the same rule up to its
    ``k``."""
    name, arity = tuple_id.relation, len(tuple_id.values)
    if name in ("R", "T"):
        return arity == 1
    return arity == 2 and _S_NAME.fullmatch(name) is not None


def columnar_layout(instance: Instance, k: int) -> HColumnarLayout:
    """The (memoized) columnar layout of ``instance`` for the ``h_{k,i}``
    schema ``R, S1..Sk, T``.  Relations outside the schema, and facts of
    another arity than their atom's, are ignored, as world enumeration
    ignores them."""

    def build(db: Instance) -> HColumnarLayout:
        # An atom matches only facts of its own relation name and arity:
        # R and T are unary, S1..Sk binary ("Score", "S01" or "S٣" match
        # none of them).
        arity = {"R": 1, "T": 1, **{f"S{i}": 2 for i in range(1, k + 1)}}
        facts = [
            t for t in db.tuple_ids()
            if arity.get(t.relation) == len(t.values)
        ]
        xs: set = set()
        ys: set = set()
        for tuple_id in facts:
            if tuple_id.relation == "R":
                xs.add(tuple_id.values[0])
            elif tuple_id.relation == "T":
                ys.add(tuple_id.values[0])
            else:
                xs.add(tuple_id.values[0])
                ys.add(tuple_id.values[1])
        xs_sorted = tuple(sorted(xs, key=repr))
        ys_sorted = tuple(sorted(ys, key=repr))
        x_index = {x: i for i, x in enumerate(xs_sorted)}
        y_index = {y: j for j, y in enumerate(ys_sorted)}
        ny = len(ys_sorted)
        r_slots = []
        t_slots = []
        s_slots: list[list[tuple[int, TupleId]]] = [[] for _ in range(k)]
        for tuple_id in facts:
            name = tuple_id.relation
            if name == "R":
                r_slots.append((x_index[tuple_id.values[0]], tuple_id))
            elif name == "T":
                t_slots.append((y_index[tuple_id.values[0]], tuple_id))
            else:
                position = (
                    x_index[tuple_id.values[0]] * ny
                    + y_index[tuple_id.values[1]]
                )
                s_slots[int(name[1:]) - 1].append((position, tuple_id))
        return HColumnarLayout(
            k=k,
            xs=xs_sorted,
            ys=ys_sorted,
            r_slots=tuple(r_slots),
            t_slots=tuple(t_slots),
            s_slots=tuple(tuple(slots) for slots in s_slots),
        )

    return instance.cached_derivation(("db.columnar.layout", k), build)


class HColumns:
    """A filled columnar view: the layout plus probability columns in
    both numeric encodings.

    Float columns (always present): numpy arrays ``r_float`` over ``xs``,
    ``t_float`` over ``ys``, and ``s_float[i-1]`` an ``nx x ny`` grid for
    ``S_i``.

    Exact columns (present when every ``pi`` shares a common denominator
    ``D`` of at most :data:`EXACT_DENOMINATOR_BITS` bits): integer
    numerator lists ``r_num`` / ``t_num`` / flat x-major ``s_num[i-1]``
    with ``p = num / D``; ``denominator`` is ``None`` otherwise and exact
    callers fall back to :class:`~fractions.Fraction` arithmetic.
    """

    __slots__ = (
        "layout",
        "denominator",
        "r_num",
        "t_num",
        "s_num",
        "r_float",
        "t_float",
        "s_float",
    )

    def __init__(self, layout: HColumnarLayout, tid: TupleIndependentDatabase):
        self.layout = layout
        nx, ny, k = layout.nx, layout.ny, layout.k
        probability_of = tid.probability_of

        r_prob = [Fraction(0)] * nx
        for slot, tuple_id in layout.r_slots:
            r_prob[slot] = probability_of(tuple_id)
        t_prob = [Fraction(0)] * ny
        for slot, tuple_id in layout.t_slots:
            t_prob[slot] = probability_of(tuple_id)
        s_prob = [[Fraction(0)] * (nx * ny) for _ in range(k)]
        for i, slots in enumerate(layout.s_slots):
            column = s_prob[i]
            for slot, tuple_id in slots:
                column[slot] = probability_of(tuple_id)

        denominator = 1
        for column in (r_prob, t_prob, *s_prob):
            for p in column:
                q = p.denominator
                if q > 1:
                    denominator = denominator * q // gcd(denominator, q)
                    if denominator.bit_length() > EXACT_DENOMINATOR_BITS:
                        denominator = None
                        break
            if denominator is None:
                break
        self.denominator = denominator
        if denominator is not None:
            D = denominator
            self.r_num = [p.numerator * (D // p.denominator) for p in r_prob]
            self.t_num = [p.numerator * (D // p.denominator) for p in t_prob]
            self.s_num = [
                [p.numerator * (D // p.denominator) for p in column]
                for column in s_prob
            ]
        else:
            self.r_num = self.t_num = None
            self.s_num = None

        self.r_float = _np.array([float(p) for p in r_prob], dtype=float)
        self.t_float = _np.array([float(p) for p in t_prob], dtype=float)
        self.s_float = [
            _np.array([float(p) for p in column], dtype=float).reshape(nx, ny)
            for column in s_prob
        ]


@dataclass(frozen=True)
class ProbabilityColumns:
    """The *transportable* columnar encoding of a TID's numeric content:
    per-tuple numerator/denominator columns aligned with
    ``instance.tuple_ids()`` order.

    This is the payload the multiprocess serving backend publishes
    through ``multiprocessing.shared_memory`` — two int64 arrays are
    enough to rebuild every :class:`~fractions.Fraction` exactly on the
    far side, and the ``tuple_ids()`` order is content-determined, so
    both sides agree on the alignment without shipping the tuples
    themselves.  Entries whose numerator or denominator does not fit an
    int64 word are carried in ``overflow`` as ``(slot, numerator,
    denominator)`` triples (arbitrary-precision ints, pickled alongside
    the segment) and hold the sentinel ``0/0`` in the arrays.
    """

    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    overflow: tuple[tuple[int, int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.numerators)

    def fractions(self) -> list[Fraction]:
        """The per-tuple probabilities, ``tuple_ids()`` order."""
        probabilities = [
            Fraction(num, den) if den else None
            for num, den in zip(self.numerators, self.denominators)
        ]
        for slot, num, den in self.overflow:
            probabilities[slot] = Fraction(num, den)
        return probabilities


#: int64 payload bound for the shared-memory probability columns.
_WORD_BOUND = 1 << 63


def probability_columns(tid: TupleIndependentDatabase) -> ProbabilityColumns:
    """The (memoized) transportable columns of ``tid``, encoded from its
    :meth:`~repro.db.tid.TupleIndependentDatabase.probability_fingerprint`
    once per numeric content
    (:meth:`~repro.db.tid.TupleIndependentDatabase.cached_derivation`)."""
    return tid.cached_derivation(
        "db.columnar.probability_columns", _encode_columns
    )


def _encode_columns(tid: TupleIndependentDatabase) -> ProbabilityColumns:
    numerators: list[int] = []
    denominators: list[int] = []
    overflow: list[tuple[int, int, int]] = []
    for slot, (num, den) in enumerate(tid.probability_fingerprint()):
        if num < _WORD_BOUND and den < _WORD_BOUND:
            numerators.append(num)
            denominators.append(den)
        else:
            numerators.append(0)
            denominators.append(0)
            overflow.append((slot, num, den))
    return ProbabilityColumns(
        tuple(numerators), tuple(denominators), tuple(overflow)
    )


def apply_probability_columns(
    tid: TupleIndependentDatabase, columns: ProbabilityColumns
) -> None:
    """Rehydrate ``columns`` onto ``tid`` (same instance content on the
    receiving side — the alignment contract is ``tuple_ids()`` order)."""
    tuple_ids = tid.instance.tuple_ids()
    if len(tuple_ids) != len(columns):
        raise ValueError(
            f"probability columns carry {len(columns)} entries for an "
            f"instance with {len(tuple_ids)} tuples — instance content "
            f"mismatch across the process boundary"
        )
    for tuple_id, probability in zip(tuple_ids, columns.fractions()):
        tid.set_probability(tuple_id, probability)


def relation_column_values(
    instance: Instance, relation: str, position: int
) -> tuple:
    """The sorted distinct values of one relation column — the active
    domain a lifted independent-project ranges over.  Content-derived
    only, so it lives in ``cached_derivation``; undeclared relations and
    out-of-range positions yield the empty domain (the query side treats
    them as empty relations)."""

    def build(db: Instance) -> tuple:
        try:
            rel = db.relation(relation)
        except KeyError:
            return ()
        if not 0 <= position < rel.arity:
            return ()
        return tuple(
            sorted({values[position] for values in rel}, key=repr)
        )

    return instance.cached_derivation(
        ("db.columnar.column_values", relation, position), build
    )


def relation_grouping_layout(
    instance: Instance, relation: str, key_positions: tuple[int, ...]
) -> dict:
    """The structural half of a generalized columnar view: the relation's
    facts grouped by their projection onto ``key_positions``, each group
    a tuple of :class:`TupleId` s in the relation's deterministic order.
    Cached via ``cached_derivation``, like :func:`columnar_layout`."""

    def build(db: Instance) -> dict:
        try:
            rel = db.relation(relation)
        except KeyError:
            return {}
        if any(not 0 <= p < rel.arity for p in key_positions):
            return {}
        groups: dict[tuple, list[TupleId]] = {}
        for values in rel:
            key = tuple(values[p] for p in key_positions)
            groups.setdefault(key, []).append(TupleId(relation, values))
        return {key: tuple(ids) for key, ids in groups.items()}

    return instance.cached_derivation(
        ("db.columnar.grouping", relation, key_positions), build
    )


def relation_probability_columns(
    tid: TupleIndependentDatabase,
    relation: str,
    key_positions: tuple[int, ...],
) -> dict:
    """The filled generalized columnar view: per-group float probability
    columns (numpy arrays) for the facts of ``relation``
    grouped by ``key_positions`` — the kernel input of the lifted IR's
    vectorized projections.  The fill is memoized through
    :meth:`~repro.db.tid.TupleIndependentDatabase.cached_derivation`,
    exactly like the :func:`h_columns` fill; the layout half comes from
    :func:`relation_grouping_layout`.  Read-only shared cache state."""

    def build(t: TupleIndependentDatabase) -> dict:
        layout = relation_grouping_layout(t.instance, relation, key_positions)
        probability_of = t.probability_of
        return {
            key: _np.array(
                [float(probability_of(t)) for t in ids], dtype=float
            )
            for key, ids in layout.items()
        }

    return tid.cached_derivation(
        ("db.columnar.relation_columns", relation, key_positions), build
    )


def h_columns(tid: TupleIndependentDatabase, k: int) -> HColumns:
    """The (memoized) columnar view of ``tid`` for the ``h_{k,i}`` schema:
    the instance's :func:`columnar_layout`, filled once per ``k`` and
    numeric content
    (:meth:`~repro.db.tid.TupleIndependentDatabase.cached_derivation`),
    so mixed-k workloads never thrash and a ``set_probability`` rebuilds
    only the fill.  Shared cache state — read-only."""
    return tid.cached_derivation(
        ("db.columnar.h_columns", k),
        lambda t: HColumns(columnar_layout(t.instance, k), t),
    )
