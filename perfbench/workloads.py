"""Seeded inputs for the benchmark's two workloads.

Everything a run sends is made here from ``--seed``: the catalog (the
``register`` messages), the warm-up pass, and one endless op stream per
connection.  The same seed gives the same catalog and the same streams;
how far a run consumes a stream depends only on how fast the system
answers.  The server receives nothing but these generated messages.

Probability maps come from small seeded pools, so every answer's
reference is cheap to compute once per distinct ``(query, instance,
map)`` while each request still travels as a fresh wire message.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from repro.db.generator import complete_tid
from repro.db.relation import Instance, TupleId
from repro.db.tid import TupleIndependentDatabase

WORKLOADS = ("mixed-routes", "update-reeval")

#: The server's ShardedService: its backend and shard count.  The traced
#: run builds services of the same shape, on both backends.
BACKEND = "processes"
SHARDS = 2

#: Open-loop offered rate per workload, in operations per second.  Fixed
#: once, from the closed-loop wall-clock capacity measured on the commit
#: that introduced the benchmark (a 2-vCPU VM whose capacity more than
#: halves when other guests load its host): at most half of the capacity
#: the box keeps in its slowest periods (190 ops/s on mixed-routes, 490
#: on update-reeval), so a slow period tips the open loop neither into a
#: growing backlog nor into queueing that the benchmark's steal and
#: speed correction (``run.reference_time``) cannot take out.  Never
#: re-derived.
RATES = {
    "mixed-routes": 100.0,
    "update-reeval": 170.0,
}

# The h-queries travel in the gateway's wire form: k, nvars, truth table.
Q9 = {"k": 3, "nvars": 4, "table": 65152}
#: Zero Euler characteristic but not monotone: the paper's special case,
#: compiled to a d-D circuit (the intensional route).
ZERO_EULER = {"k": 3, "nvars": 4, "table": 9369}
#: h_{3,0} or ... or h_{3,3}: #P-hard and monotone (Karp-Luby).
HARD_UCQ = {"k": 3, "nvars": 4, "table": 65534}
#: #P-hard and not monotone (Monte Carlo).
HARD_NON_MONOTONE = {"k": 3, "nvars": 4, "table": 32632}
#: R(x), S(x, y) or T(z): a safe union outside the h-schema (lifted).
SAFE_UCQ = {
    "ucq": [
        [["R", ["x"]], ["S", ["x", "y"]]],
        [["T", ["z"]]],
    ]
}

#: Deadline per route in ``mixed-routes``: many times each route's p99
#: at the offered rate, so the deadline and degradation checks run on
#: every request without firing.
DEADLINE_MS = {
    "extensional": 400.0,
    "intensional": 400.0,
    "lifted": 400.0,
    "sampling": 800.0,
    "brute_force": 400.0,
}


@dataclass
class Entry:
    """One catalog instance: its facts and a pool of probability maps
    (numerator/denominator pairs aligned with ``facts``)."""

    name: str
    relations: list
    facts: list  # [relation, values]
    pool: list  # [[[num, den], ...], ...]
    replicas: int = 1

    def register(self, message_id, version: int = 0) -> dict:
        """The wire ``register`` message for probability map ``version``."""
        return {
            "op": "register",
            "id": message_id,
            "instance": self.name,
            "relations": self.relations,
            "facts": [
                [relation, values, pair]
                for (relation, values), pair in zip(
                    self.facts, self.pool[version]
                )
            ],
            "replicas": self.replicas,
        }

    def instance(self) -> Instance:
        instance = Instance()
        for relation, arity in self.relations:
            instance.declare(relation, arity)
        for relation, values in self.facts:
            instance.add(relation, tuple(values))
        return instance

    def tid(self, version: int, instance: Instance | None = None):
        """A fresh TID for map ``version``, built the way the gateway
        builds it (facts in wire order, exact rationals); pass
        ``instance`` to share one already built from these facts."""
        if instance is None:
            instance = self.instance()
        tid = TupleIndependentDatabase(instance)
        for (relation, values), (num, den) in zip(
            self.facts, self.pool[version]
        ):
            tid.set_probability(
                TupleId(relation, tuple(values)), Fraction(num, den)
            )
        return tid


@dataclass
class Op:
    """One generated operation.  ``ref`` keys the reference answer:
    ``(query name, instance name, map version, budget seed or None)``."""

    kind: str  # "query" or "register"
    instance: str
    message: dict
    route: str
    ref: tuple


@dataclass
class Workload:
    name: str
    seed: int
    connections: int
    rate: float
    journal: bool
    catalog: list
    warmup: list
    streams: list = field(default_factory=list)

    def entry(self, name: str) -> Entry:
        return next(e for e in self.catalog if e.name == name)


def _pool(rng: random.Random, count: int, size: int) -> list:
    return [
        [[rng.randint(1, 15), 16] for _ in range(size)]
        for _ in range(count)
    ]


def _h_entry(rng, name, n_left, n_right, maps, replicas=1) -> Entry:
    tid = complete_tid(3, n_left, n_right)
    facts = [[t.relation, list(t.values)] for t in tid.instance.tuple_ids()]
    relations = [["R", 1], ["S1", 2], ["S2", 2], ["S3", 2], ["T", 1]]
    return Entry(
        name, relations, facts, _pool(rng, maps, len(facts)), replicas
    )


def _relational_entry(rng, name, domain, maps) -> Entry:
    facts = []
    for x in range(domain):
        facts.append(["R", [x]])
        facts.append(["T", [x]])
        for y in range(domain):
            facts.append(["S", [x, y]])
    relations = [["R", 1], ["S", 2], ["T", 1]]
    return Entry(name, relations, facts, _pool(rng, maps, len(facts)))


QUERIES = {
    "q9": Q9,
    "zero_euler": ZERO_EULER,
    "hard_ucq": HARD_UCQ,
    "hard_nm": HARD_NON_MONOTONE,
    "safe_ucq": SAFE_UCQ,
}


def _query(op_id, entry, query, route, version=0, budget_seed=None,
           deadline_ms=None, key=None) -> Op:
    message = {
        "op": "query",
        "id": op_id,
        "instance": entry.name,
        "query": QUERIES[query],
    }
    if budget_seed is not None:
        message["budget"] = {"epsilon": 0.1, "seed": budget_seed}
    if deadline_ms is not None:
        message["deadline_ms"] = deadline_ms
    if key is not None:
        message["idempotency_key"] = key
    return Op("query", entry.name, message, route,
              (query, entry.name, version, budget_seed))


#: The two routes the paper compares, as (query, route): a safe plan
#: for q9 and a compiled d-D circuit for the zero-Euler query.
READS = (("q9", "extensional"), ("zero_euler", "intensional"))


def _warmup(entries, reads) -> list:
    """The set-up's warm-up pass: each ``(query, route)`` in ``reads``
    on each entry."""
    return [
        _query(i, entry, query, route)
        for i, (entry, (query, route)) in enumerate(
            itertools.product(entries, reads))
    ]


def _ids(conn: int):
    """Op ids unique across a run's connections and phases."""
    counter = 0
    while True:
        counter += 1
        yield (conn + 1) * 10_000_000 + counter


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


#: mixed-routes traffic: (weight, query, route, instance names).
_MIXED = (
    (0.30, "q9", "extensional", ("big",)),
    (0.30, "zero_euler", "intensional", ("zd3x4", "zd4x3", "zd4x4")),
    (0.20, "safe_ucq", "lifted", ("rel16",)),
    (0.05, "hard_ucq", "sampling", ("hard33",)),
    (0.05, "hard_nm", "sampling", ("hard33",)),
    (0.10, "hard_ucq", "brute_force", ("tiny5",)),
)
_BUDGET_SEEDS = 8


def mixed_routes(seed: int) -> Workload:
    rng = random.Random(f"mixed-routes:{seed}")
    catalog = [
        _h_entry(rng, "big", 19, 19, 1, replicas=2),
        # Facts distinct from hard33's: two names over the same facts
        # with different probabilities race in the shared-memory
        # registry (a segment re-published before its stale twin is
        # unlinked), which fails requests at this commit.
        _h_entry(rng, "zd3x4", 3, 4, 1, replicas=2),
        _h_entry(rng, "zd4x3", 4, 3, 1, replicas=2),
        _h_entry(rng, "zd4x4", 4, 4, 1, replicas=2),
        _relational_entry(rng, "rel16", 16, 1),
        _h_entry(rng, "hard33", 3, 3, 1),
        _h_entry(rng, "tiny5", 1, 1, 1),
    ]
    by_name = {e.name: e for e in catalog}
    warmup = []
    for _, query, route, names in _MIXED:
        for name in names:
            warmup.append(
                _query(len(warmup), by_name[name], query, route,
                       budget_seed=0 if route == "sampling" else None,
                       deadline_ms=DEADLINE_MS[route])
            )
    weights = [w for w, *_ in _MIXED]

    def stream(conn):
        rng = random.Random(f"mixed-routes:{seed}:{conn}")
        ids = _ids(conn)
        while True:
            _, query, route, names = rng.choices(_MIXED, weights)[0]
            budget_seed = (
                rng.randrange(_BUDGET_SEEDS) if route == "sampling" else None
            )
            yield _query(next(ids), by_name[rng.choice(names)], query,
                         route, budget_seed=budget_seed,
                         deadline_ms=DEADLINE_MS[route])

    return Workload(
        "mixed-routes", seed, 2, RATES["mixed-routes"], False, catalog,
        warmup, [stream(0), stream(1)],
    )


_UPDATE_MAPS = 32


def update_reeval(seed: int) -> Workload:
    rng = random.Random(f"update-reeval:{seed}")
    catalog = [
        _h_entry(rng, f"u{a}x{b}", a, b, _UPDATE_MAPS)
        for a, b in ((3, 3), (3, 4), (4, 3), (4, 4))
    ]
    warmup = _warmup(catalog, READS)

    def stream(conn):
        # Each connection owns half of the instances, so a read always
        # follows the writes to its instance in one ordered pipe and
        # its reference is the last map written there.
        rng = random.Random(f"update-reeval:{seed}:{conn}")
        ids = _ids(conn)
        owned = catalog[conn::2]
        version = {e.name: 0 for e in owned}
        while True:
            entry = rng.choice(owned)
            op_id = next(ids)
            if rng.random() < 0.2:
                choices = [
                    v for v in range(_UPDATE_MAPS) if v != version[entry.name]
                ]
                version[entry.name] = rng.choice(choices)
                yield Op("register", entry.name,
                         entry.register(op_id, version[entry.name]),
                         "register", (None, entry.name,
                                      version[entry.name], None))
            else:
                query, route = rng.choice(READS)
                yield _query(op_id, entry, query, route,
                             version=version[entry.name],
                             key=f"s{seed}-{op_id}")

    return Workload(
        "update-reeval", seed, 2, RATES["update-reeval"], True, catalog,
        warmup, [stream(0), stream(1)],
    )


BUILDERS = {
    "mixed-routes": mixed_routes,
    "update-reeval": update_reeval,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
