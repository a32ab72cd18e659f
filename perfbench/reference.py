"""Reference answers and the per-answer check.

The benchmark computes its own answer for every generated request and
holds every reply to it:

* exact routes must equal :func:`repro.pqe.engine.evaluate_batch`'s
  float bit for bit (the serving contract);
* seeded sampled routes must equal ``evaluate(..., budget=)`` under the
  same budget;
* on instances of at most :data:`ENUMERATION_LIMIT` tuples the exact
  answer must also equal world enumeration as a ``Fraction``.

Any other outcome -- a typed error, a ``degraded`` answer, the wrong
engine, a different float -- is a failure.
"""

from __future__ import annotations

from repro.core.boolean_function import BooleanFunction
from repro.pqe.approximate import AccuracyBudget
from repro.pqe.brute_force import probability_by_world_enumeration
from repro.pqe.engine import evaluate, evaluate_batch
from repro.queries.cq import Atom, ConjunctiveQuery, Constant
from repro.queries.hqueries import HQuery
from repro.queries.ucq import UnionOfCQs

from workloads import QUERIES

ENUMERATION_LIMIT = 9

#: The engine label each route's answers must carry.
ENGINES = {
    "extensional": ("extensional",),
    "intensional": ("intensional",),
    "lifted": ("lifted",),
    "brute_force": ("brute_force",),
    "sampling": ("karp_luby", "monte_carlo"),
}


def _term(term):
    if isinstance(term, str):
        return term
    value = term["const"]
    return Constant(tuple(value) if isinstance(value, list) else value)


def decode_query(payload: dict):
    """A query object from its wire form (the gateway's protocol)."""
    if "ucq" in payload:
        return UnionOfCQs(
            tuple(
                ConjunctiveQuery(
                    tuple(
                        Atom(relation, tuple(_term(t) for t in terms))
                        for relation, terms in atoms
                    )
                )
                for atoms in payload["ucq"]
            )
        )
    return HQuery(
        payload["k"], BooleanFunction(payload["nvars"], payload["table"])
    )


def budget_of(seed: int) -> AccuracyBudget:
    """The budget a sampled request with ``seed`` carries on the wire."""
    return AccuracyBudget(epsilon=0.1, seed=seed)


class References:
    """Reference floats for one workload, computed on first use and
    memoized per ``(query, instance, map version, budget seed)``."""

    def __init__(self, workload):
        self._workload = workload
        self._floats: dict[tuple, float] = {}
        self._instances: dict = {}

    def _instance(self, name):
        instance = self._instances.get(name)
        if instance is None:
            instance = self._workload.entry(name).instance()
            self._instances[name] = instance
        return instance

    def prepare(self, refs) -> None:
        """Compute every missing reference in ``refs`` with one
        ``evaluate_batch`` per exact ``(query, instance)``."""
        groups: dict[tuple, set] = {}
        for ref in refs:
            if ref in self._floats or ref[0] is None:
                continue
            query, name, version, seed = ref
            if seed is not None:
                self._floats[ref] = self._sampled(query, name, version, seed)
            else:
                groups.setdefault((query, name), set()).add(version)
        for (query, name), versions in groups.items():
            entry = self._workload.entry(name)
            instance = self._instance(name)
            ordered = sorted(versions)
            tids = [entry.tid(v, instance) for v in ordered]
            decoded = decode_query(QUERIES[query])
            floats = evaluate_batch(decoded, tids).probabilities
            for version, tid, value in zip(ordered, tids, floats):
                if len(tid) <= ENUMERATION_LIMIT:
                    exact = evaluate(decoded, tid).probability
                    truth = probability_by_world_enumeration(decoded, tid)
                    if exact != truth or float(truth) != value:
                        raise AssertionError(
                            f"engine disagrees with world enumeration on "
                            f"{query}/{name}: {exact} != {truth}"
                        )
                self._floats[(query, name, version, None)] = value

    def _sampled(self, query, name, version, seed) -> float:
        tid = self._workload.entry(name).tid(version, self._instance(name))
        result = evaluate(decode_query(QUERIES[query]), tid,
                          budget=budget_of(seed))
        return float(result.probability)

    def expected(self, ref) -> float:
        if ref not in self._floats:
            self.prepare([ref])
        return self._floats[ref]


def check(references: References, op, reply: dict | None) -> str | None:
    """``None`` when ``reply`` is a correct answer to ``op``, else why
    not."""
    if reply is None:
        return "no reply"
    if not reply.get("ok"):
        return f"{reply.get('error')}: {reply.get('message')}"
    if op.kind == "register":
        return None
    response = reply["response"]
    if response.get("degraded"):
        return "degraded answer"
    if response["engine"] not in ENGINES[op.route]:
        return f"engine {response['engine']} on the {op.route} route"
    expected = references.expected(op.ref)
    if float(response["probability"]).hex() != float(expected).hex():
        return (
            f"probability {response['probability']!r} != reference "
            f"{expected!r}"
        )
    return None

