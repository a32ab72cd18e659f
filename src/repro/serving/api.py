"""The request/response surface of the sharded PQE service.

One request is "evaluate ``Pr(Q_phi)`` on this TID"; the service answers
with a float probability, the engine that produced it, and — for sampled
answers — the error bar the :class:`AccuracyBudget` bought.  Requests and
responses are plain frozen dataclasses so they can cross thread (and
eventually process) boundaries without shared mutable state.

:class:`AccuracyBudget` itself lives in :mod:`repro.pqe.approximate`
(the sampling engine owns its semantics — adaptive waves, interval
choice, the worst-case sample arithmetic) and is re-exported here for
the serving surface.

Queries travel in one JSON-able wire form (:func:`encode_query` /
:func:`decode_query`): the gateway speaks it over TCP and the process
backend sends it down the worker pipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.core.boolean_function import BooleanFunction
from repro.db.tid import TupleIndependentDatabase
from repro.pqe.approximate import AccuracyBudget, Z_95  # noqa: F401
from repro.queries.cq import Atom, ConjunctiveQuery, Constant
from repro.queries.hqueries import HQuery
from repro.queries.ucq import UnionOfCQs


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work routed to a shard: a query over a TID, plus the
    accuracy budget to spend if the answer has to be sampled (``None``
    uses the service default).

    ``deadline_ms`` is the caller's latency budget, measured from
    admission: the shard checks it at admission, at dequeue, and between
    sampling waves, and resolves a late request with a typed
    :class:`~repro.serving.resilience.DeadlineExceeded` rather than
    running to completion for a caller that stopped listening.  ``None``
    means "run to completion" (the pre-resilience behavior, and the
    default).  ``priority`` breaks ties under load shedding: when the
    queue must reject someone, the newest *lowest-priority* request goes
    first, so a higher number means "shed me later".

    ``query`` is an :class:`~repro.queries.hqueries.HQuery` or any
    UCQ/CQ the general lifted engine accepts
    (:class:`~repro.queries.ucq.UnionOfCQs`,
    :class:`~repro.queries.cq.ConjunctiveQuery`); non-h queries route
    lifted → brute force → sampling on the shard.
    """

    query: HQuery | object
    tid: TupleIndependentDatabase
    budget: AccuracyBudget | None = None
    deadline_ms: float | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and not (
            isinstance(self.deadline_ms, (int, float))
            and math.isfinite(self.deadline_ms)
            and self.deadline_ms > 0
        ):
            raise ValueError(
                f"deadline_ms must be a positive finite number or None, "
                f"got {self.deadline_ms!r}"
            )
        if not isinstance(self.priority, int):
            raise ValueError(
                f"priority must be an int, got {self.priority!r}"
            )


@dataclass(frozen=True)
class QueryResponse:
    """One answered request.

    ``engine`` is ``"extensional"`` (safe monotone h-query, lifted
    columnar sweep), ``"lifted"`` (safe non-h UCQ/CQ, Dalvi–Suciu plan
    IR), ``"intensional"`` (batched d-D sweep), ``"brute_force"``
    (small hard instance), ``"karp_luby"`` (large hard UCQ) or
    ``"monte_carlo"`` (large hard non-monotone query).  ``batch_size``
    is the size of the microbatch the request was served in (1 when it
    rode alone); ``cache_hit`` whether the shard served cached state —
    a compiled d-D on the intensional route, an extensional plan on the
    extensional route.  ``half_width``/``samples``/``waves`` are zero for
    exact engines; for sampled answers ``samples`` is how many worlds the
    (budget-adaptive) sampler actually drew and ``waves`` how many
    growing waves it took to meet the accuracy target.

    ``degraded`` marks an answer the shard *downgraded* to the sampling
    route because the exact route was predicted to miss the request's
    deadline: the probability is an estimate under a deadline-derived
    :class:`AccuracyBudget`, always with a nonzero ``half_width`` (the
    Wilson interval is never degenerate) — a principled partial answer
    rather than a timeout.
    """

    probability: float
    engine: str
    shard: int
    cache_hit: bool = False
    batch_size: int = 1
    half_width: float = 0.0
    samples: int = 0
    waves: int = 0
    latency_ms: float = 0.0
    degraded: bool = False

    def to_payload(self) -> dict:
        """This response as a JSON-able dict (the gateway's wire form):
        every field, in declaration order.  Every field is a scalar, so
        a plain dict over them is the whole payload; ``asdict`` would
        deep-copy each value, about ten times the cost per reply."""
        return {name: getattr(self, name) for name in _RESPONSE_FIELDS}

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryResponse":
        """Rebuild a response serialized by :meth:`to_payload`."""
        return cls(**payload)


_RESPONSE_FIELDS = tuple(field.name for field in fields(QueryResponse))


def encode_query(query) -> dict:
    """A query's complete content in the JSON-able wire form.

    An h-query is ``{"k": k, "nvars": n, "table": truth table}``; a UCQ
    is ``{"ucq": [cq, ...]}`` and a bare CQ ``{"cq": cq}``, so each
    decodes back to its own type.  A CQ is a list of ``[relation,
    terms]`` atoms, where a term is a variable name string or
    ``{"const": value}`` for a constant.

    :raises TypeError: for any other query type.
    """
    if isinstance(query, HQuery):
        phi = query.phi
        return {"k": query.k, "nvars": phi.nvars, "table": phi.table}
    if isinstance(query, UnionOfCQs):
        return {"ucq": [_encode_cq(cq) for cq in query.disjuncts]}
    if isinstance(query, ConjunctiveQuery):
        return {"cq": _encode_cq(query)}
    raise TypeError(
        f"cannot encode query of type {type(query).__name__} for the wire"
    )


def decode_query(payload: dict):
    """The query :func:`encode_query` encoded (also after a JSON round
    trip, which turns tuples into lists).

    :raises ValueError: on a term that is neither a variable name nor
        ``{"const": value}``.
    """
    if "ucq" in payload:
        return UnionOfCQs(tuple(_decode_cq(cq) for cq in payload["ucq"]))
    if "cq" in payload:
        return _decode_cq(payload["cq"])
    return HQuery(
        payload["k"], BooleanFunction(payload["nvars"], payload["table"])
    )


def decode_values(values) -> tuple:
    """JSON arrays arrive as lists; facts and constants are hashable
    tuples."""
    return tuple(
        decode_values(value) if isinstance(value, list) else value
        for value in values
    )


def _encode_cq(cq: ConjunctiveQuery) -> list:
    return [
        [
            atom.relation,
            [
                {"const": term.value} if isinstance(term, Constant) else term
                for term in atom.terms
            ],
        ]
        for atom in cq.atoms
    ]


def _decode_term(term):
    if isinstance(term, str):
        return term
    if isinstance(term, dict) and set(term) == {"const"}:
        value = term["const"]
        return Constant(
            decode_values(value) if isinstance(value, list) else value
        )
    raise ValueError(f"bad query term on the wire: {term!r}")


def _decode_cq(atoms) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        tuple(
            Atom(relation, tuple(_decode_term(term) for term in terms))
            for relation, terms in atoms
        )
    )
