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
columns additionally depend on ``pi`` and are memoized on the TID against
``(instance versions, probability version)``, so probability updates
rebuild only the numeric fill, never the layout.  Both cached objects are
shared state — treat them as read-only.

Beyond the fixed h-schema, the same two-layer scheme serves *generalized*
views keyed by ``(relation, grouping positions)`` —
:func:`relation_column_values` (projection domains) and
:func:`relation_probability_columns` (per-group probability columns) —
which the lifted-inference IR of :mod:`repro.pqe.lift` consumes for its
projection sweeps over arbitrary schemas.
"""

from __future__ import annotations

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


def _s_chain_index(name: str) -> int | None:
    """``i`` for a schema relation ``S<i>`` (ASCII digits only), ``None``
    for anything else — out-of-schema relations like ``"Score"`` must be
    ignored, not crash the parse, and non-ASCII digit names must never
    alias a genuine ``S_i`` grid."""
    suffix = name[1:]
    if not name.startswith("S") or not suffix:
        return None
    if not (suffix.isascii() and suffix.isdigit()):
        return None
    return int(suffix)


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


def columnar_layout(instance: Instance, k: int) -> HColumnarLayout:
    """The (memoized) columnar layout of ``instance`` for the ``h_{k,i}``
    schema ``R, S1..Sk, T``.  Relations outside the schema are ignored,
    like the lifted plans ignore them."""

    def build(db: Instance) -> HColumnarLayout:
        xs: set = set()
        ys: set = set()
        for tuple_id in db.tuple_ids():
            if tuple_id.relation == "R":
                xs.add(tuple_id.values[0])
            elif tuple_id.relation == "T":
                ys.add(tuple_id.values[0])
            elif tuple_id.relation.startswith("S"):
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
        for tuple_id in db.tuple_ids():
            name = tuple_id.relation
            if name == "R":
                r_slots.append((x_index[tuple_id.values[0]], tuple_id))
            elif name == "T":
                t_slots.append((y_index[tuple_id.values[0]], tuple_id))
            elif _s_chain_index(name) is not None:
                i = _s_chain_index(name)
                if 1 <= i <= k:
                    position = (
                        x_index[tuple_id.values[0]] * ny
                        + y_index[tuple_id.values[1]]
                    )
                    s_slots[i - 1].append((position, tuple_id))
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
    """The (memoized) transportable columns of ``tid`` — keyed, like the
    :func:`h_columns` fill, by ``(instance versions, probability
    version)``, so the encode cost is paid once per numeric content."""
    key = (tid.instance._versions(), tid.probability_version)
    cached = getattr(tid, "_probability_columns", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    numerators: list[int] = []
    denominators: list[int] = []
    overflow: list[tuple[int, int, int]] = []
    for slot, tuple_id in enumerate(tid.instance.tuple_ids()):
        p = tid.probability_of(tuple_id)
        num, den = p.numerator, p.denominator
        if num < _WORD_BOUND and den < _WORD_BOUND:
            numerators.append(num)
            denominators.append(den)
        else:
            numerators.append(0)
            denominators.append(0)
            overflow.append((slot, num, den))
    columns = ProbabilityColumns(
        tuple(numerators), tuple(denominators), tuple(overflow)
    )
    tid._probability_columns = (key, columns)
    return columns


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
    vectorized projections.  The fill is memoized on the TID against
    ``(instance versions, probability version)``, exactly like the
    :func:`h_columns` fill; the layout half comes from
    :func:`relation_grouping_layout`.  Read-only shared cache state."""
    version_key = (tid.instance._versions(), tid.probability_version)
    cache = getattr(tid, "_relation_columns_cache", None)
    if cache is None:
        cache = {}
        tid._relation_columns_cache = cache
    entry = cache.get((relation, key_positions))
    if entry is not None and entry[0] == version_key:
        return entry[1]
    layout = relation_grouping_layout(tid.instance, relation, key_positions)
    probability_of = tid.probability_of
    filled = {
        key: _np.array([float(probability_of(t)) for t in ids], dtype=float)
        for key, ids in layout.items()
    }
    cache[(relation, key_positions)] = (version_key, filled)
    return filled


def h_columns(tid: TupleIndependentDatabase, k: int) -> HColumns:
    """The (memoized) columnar view of ``tid`` for the ``h_{k,i}`` schema.

    The layout half is keyed by the instance's relation versions (via
    ``cached_derivation``); the numeric fill is additionally keyed by the
    TID's :attr:`~repro.db.tid.TupleIndependentDatabase.probability_version`,
    so inserts and ``set_probability`` calls invalidate exactly what they
    changed.  The returned view is shared cache state — read-only.
    """
    key = (tid.instance._versions(), tid.probability_version)
    cache = getattr(tid, "_columnar_cache", None)
    if cache is None:
        cache = {}
        tid._columnar_cache = cache
    entry = cache.get(k)  # one slot per k: mixed-k workloads never thrash
    if entry is not None and entry[0] == key:
        return entry[1]
    columns = HColumns(columnar_layout(tid.instance, k), tid)
    cache[k] = (key, columns)
    return columns
