"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.boolean_function import BooleanFunction
from repro.db.generator import random_tid
from repro.db.tid import TupleIndependentDatabase
from repro.queries.hqueries import phi_9


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG, reseeded per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def phi9() -> BooleanFunction:
    """The paper's running example phi_9."""
    return phi_9()


@pytest.fixture
def slot_vector_reads(monkeypatch) -> list:
    """The TIDs whose :meth:`TupleIndependentDatabase.slot_vector` the
    test reads, one entry per read: a tape ran over each of them."""
    reads = []
    slot_vector = TupleIndependentDatabase.slot_vector

    def spy(tid, tape):
        reads.append(tid)
        return slot_vector(tid, tape)

    monkeypatch.setattr(TupleIndependentDatabase, "slot_vector", spy)
    return reads


def random_zero_euler(nvars: int, rng: random.Random) -> BooleanFunction:
    """A random non-constant function with zero Euler characteristic,
    built by pairing up equal numbers of even- and odd-size models."""
    while True:
        phi = BooleanFunction.random(nvars, rng)
        if phi.euler_characteristic() == 0 and 0 < phi.sat_count():
            return phi


def small_random_tid(k: int, rng: random.Random, max_tuples: int = 13):
    """A random TID small enough for brute-force validation."""
    for _ in range(50):
        tid = random_tid(k, 2, 2, rng, tuple_density=0.45)
        if 0 < len(tid) <= max_tuples:
            return tid
    raise RuntimeError("could not draw a small TID")
