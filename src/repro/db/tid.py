"""Tuple-independent databases (TIDs) and their possible-world semantics.

Section 2 of the paper: a TID is a pair ``(D, pi)`` of a relational instance
and a probability per tuple; it induces the product distribution over
sub-instances ``D' ⊆ D`` where each tuple is kept independently with its
probability.  Probabilities are stored as exact :class:`fractions.Fraction`
values so that the three evaluation engines of :mod:`repro.pqe` can be
compared with exact equality in tests.

Sampling lives here too, in two forms:

* :func:`exact_bernoulli` + :meth:`TupleIndependentDatabase.sample_world` —
  one world at a time off a ``random.Random``;
* :class:`WorldSampler` / :class:`DrawStream` — the batched counter-based
  draw stream of the sampling engine: every draw is addressed by an
  absolute ``(lane, index)`` counter and produced by a SplitMix64 word
  generator plus top-bits rejection, so the numpy vector path emits
  exactly the integers of the scalar definition
  :func:`_py_uniform_below`, draws never shift when neighbors are
  skipped, and a growing sample prefix is stable under any wave
  schedule.  Exact-integer-draw semantics per tuple are preserved: a
  draw for probability ``p = a/q`` is a uniform integer below ``q``
  compared against ``a`` — zero float bias, like
  :func:`exact_bernoulli`.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Hashable, Iterator, Mapping, Sequence
from fractions import Fraction
from weakref import WeakKeyDictionary

import numpy as _np

from repro.db.relation import Instance, TupleId


class TupleIndependentDatabase:
    """A TID ``(D, pi)``: an instance plus per-tuple probabilities.

    Tuples never assigned a probability default to probability 1
    (deterministic facts), matching common practice.
    """

    def __init__(self, instance: Instance | None = None):
        self.instance = instance if instance is not None else Instance()
        self._prob: dict[TupleId, Fraction] = {}
        self._prob_version = 0  # Bumped per pi mutation; keys derived caches.

    def add(
        self,
        relation: str,
        values: tuple[Hashable, ...],
        prob: Fraction | int | str | float = 1,
    ) -> TupleId:
        """Insert a fact with its probability.

        Probabilities are normalized to :class:`Fraction`; floats are
        converted via ``Fraction(str(p))`` to keep decimal literals exact.

        :raises ValueError: if the probability is outside ``[0, 1]``.
        """
        fraction = _as_fraction(prob)
        if not 0 <= fraction <= 1:
            raise ValueError(f"probability {prob!r} outside [0, 1]")
        tuple_id = self.instance.add(relation, values)
        self._prob[tuple_id] = fraction
        self._prob_version += 1
        return tuple_id

    def probability_of(self, tuple_id: TupleId) -> Fraction:
        """``pi(t)`` (1 for facts never explicitly weighted)."""
        return self._prob.get(tuple_id, Fraction(1))

    @property
    def probability_version(self) -> int:
        """A counter bumped on every ``pi`` mutation (``add`` /
        :meth:`set_probability`).  Together with the instance's relation
        versions it keys caches of anything derived from the *numeric*
        content of the TID — e.g. the columnar probability arrays of
        :mod:`repro.db.columnar` — the way
        :meth:`~repro.db.relation.Instance.cached_derivation` keys caches
        of purely structural state."""
        return self._prob_version

    def set_probability(
        self, tuple_id: TupleId, prob: Fraction | int | str | float
    ) -> None:
        """Update one tuple's probability (the paper's motivating reuse
        scenario: update ``pi`` and re-evaluate a compiled lineage)."""
        fraction = _as_fraction(prob)
        if not 0 <= fraction <= 1:
            raise ValueError(f"probability {prob!r} outside [0, 1]")
        if not self.instance.has(tuple_id.relation, tuple_id.values):
            raise KeyError(f"unknown tuple {tuple_id}")
        self._prob[tuple_id] = fraction
        self._prob_version += 1

    def probability_map(self) -> dict[TupleId, Fraction]:
        """``pi`` as a dict over all facts of the instance."""
        return {t: self.probability_of(t) for t in self.instance.tuple_ids()}

    def probability_floats(self) -> dict[TupleId, float]:
        """:meth:`probability_map` as correctly rounded floats, for the
        float evaluation paths.

        Memoized against ``probability_version`` and the instance's
        relation versions, like :meth:`probability_fingerprint`, so a
        TID re-evaluated under unchanged probabilities converts them
        once.  Callers share the returned dict and must not mutate it.
        """
        versions = (self._prob_version, self.instance.content_fingerprint())
        cached = getattr(self, "_prob_floats", None)
        if cached is not None and cached[0] == versions:
            return cached[1]
        floats = {
            t: float(self.probability_of(t))
            for t in self.instance.tuple_ids()
        }
        self._prob_floats = (versions, floats)
        return floats

    def slot_vector(self, tape) -> list[float]:
        """``tape``'s variable slots resolved against
        :meth:`probability_floats` (its
        :meth:`~repro.circuits.evaluator.EvaluationTape.probability_vector`),
        memoized per tape under the same key as :meth:`probability_floats`:
        a :meth:`set_probability` invalidates every vector, and they are
        dropped with the TID.  The tapes are held weakly, so a tape that
        its cache evicts frees its vector.  Read-only, like the float
        map."""
        versions = (self._prob_version, self.instance.content_fingerprint())
        cached = getattr(self, "_slot_vectors", None)
        if cached is None or cached[0] != versions:
            cached = self._slot_vectors = (versions, WeakKeyDictionary())
        vectors = cached[1]
        vector = vectors.get(tape)
        if vector is None:
            vector = vectors[tape] = tape.probability_vector(
                self.probability_floats()
            )
        return vector

    def probability_fingerprint(self) -> tuple:
        """A hashable value identifying the *numeric* content of the TID:
        per-tuple ``(numerator, denominator)`` pairs in ``tuple_ids()``
        order.

        The sampling layer groups concurrent hard-query requests whose
        instances share a content fingerprint; two such requests may be
        served one shared sampling sweep only when their probabilities
        agree as well, which this fingerprint decides.  Memoized against
        ``probability_version`` and the instance's relation versions.
        """
        versions = (self._prob_version, self.instance.content_fingerprint())
        cached = getattr(self, "_prob_fingerprint", None)
        if cached is not None and cached[0] == versions:
            return cached[1]
        fingerprint = tuple(
            (p.numerator, p.denominator)
            for p in (
                self.probability_of(t) for t in self.instance.tuple_ids()
            )
        )
        self._prob_fingerprint = (versions, fingerprint)
        return fingerprint

    def probability_digest(self) -> int:
        """A process-stable 64-bit blake2b digest of
        :meth:`probability_fingerprint`.

        Where the fingerprint is the full per-tuple numeric content,
        the digest is its compact *address*: the serving layer dedups
        fused microbatch twins on it, and the multiprocess backend uses
        ``(Instance.shard_key(), probability_digest())`` as the
        content-addressed key under which a probability column is
        published to worker processes — stable across processes (unlike
        ``hash()`` under ``PYTHONHASHSEED``) and across the fork
        boundary.  Memoized with the fingerprint.
        """
        versions = (self._prob_version, self.instance.content_fingerprint())
        cached = getattr(self, "_prob_digest", None)
        if cached is not None and cached[0] == versions:
            return cached[1]
        payload = repr(self.probability_fingerprint()).encode()
        digest = int.from_bytes(
            hashlib.blake2b(payload, digest_size=8).digest(), "big"
        )
        self._prob_digest = (versions, digest)
        return digest

    def world_probability(self, present: frozenset[TupleId]) -> Fraction:
        """``Pr(D')`` of Section 2: the product over kept and dropped
        tuples."""
        probability = Fraction(1)
        for tuple_id in self.instance.tuple_ids():
            p = self.probability_of(tuple_id)
            probability *= p if tuple_id in present else (1 - p)
        return probability

    def possible_worlds(
        self,
    ) -> Iterator[tuple[frozenset[TupleId], Fraction, Instance]]:
        """Enumerate all ``2^|D|`` worlds with their probabilities.

        Exponential — reserved for the brute-force oracle and tests.
        """
        tuple_ids = self.instance.tuple_ids()
        for picks in itertools.product([False, True], repeat=len(tuple_ids)):
            present = frozenset(
                t for t, keep in zip(tuple_ids, picks) if keep
            )
            yield (
                present,
                self.world_probability(present),
                self.instance.restrict_to(present),
            )

    def sample_world(self, rng: random.Random) -> frozenset[TupleId]:
        """Draw one world from the TID distribution.

        Each tuple's inclusion is decided by :func:`exact_bernoulli`, so
        probabilities with no binary-float representation (1/3, 1/7, ...)
        are sampled bias-free — the samplers in
        :mod:`repro.pqe.approximate` inherit the exactness guarantee the
        rest of the repo gets from :class:`~fractions.Fraction`.
        """
        return frozenset(
            t
            for t in self.instance.tuple_ids()
            if exact_bernoulli(rng, self.probability_of(t))
        )

    def __len__(self) -> int:
        return len(self.instance)

    def __repr__(self) -> str:
        return f"TupleIndependentDatabase({self.instance!r})"


def _as_fraction(prob: Fraction | int | str | float) -> Fraction:
    if isinstance(prob, float):
        return Fraction(str(prob))
    return Fraction(prob)


def exact_bernoulli(rng: random.Random, p: Fraction) -> bool:
    """An exact coin flip: ``True`` with probability *exactly* ``p``.

    ``rng.random() < float(p)`` succeeds with the probability of the
    nearest 53-bit float, not of ``p`` — a bias of up to ``2**-53`` per
    draw that compounds over the per-tuple draws of a sampled world and
    contradicts the repo's exact-:class:`Fraction` guarantees.  A uniform
    integer below the denominator costs the same and has zero bias:
    ``randrange(q)`` is uniform on ``{0, ..., q-1}``, so the draw lands
    below the numerator with probability exactly ``p``.
    """
    p = Fraction(p)
    return rng.randrange(p.denominator) < p.numerator


# ----------------------------------------------------------------------
# Counter-based exact draw stream (the vectorized sampling substrate)
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  #: SplitMix64 counter increment
_ROUND_SALT = 0xD1342543DE82EF95  #: decorrelates rejection retries
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """The SplitMix64 finalizer: a 64-bit bijective mix whose outputs
    over any counter sequence pass as independent uniform words."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    x ^= x >> 31
    return x


def _stream_base(seed: int, lane: int) -> int:
    """The per-``(seed, lane)`` base offset of a draw stream.  Lanes keep
    logically distinct draw kinds (world cells, clause selection) on
    non-overlapping counter sequences under one seed."""
    return _mix64(_mix64(seed & _MASK64) ^ ((lane * _GOLDEN) & _MASK64))


def _word(base: int, counter: int, round_: int) -> int:
    """Word ``round_`` of draw ``counter``: all arithmetic is mod 2**64,
    so the numpy uint64 path computes the identical value."""
    return _mix64(
        (base + counter * _GOLDEN + round_ * _ROUND_SALT) & _MASK64
    )


def _py_uniform_below(base: int, counter: int, bound: int) -> int:
    """An exact uniform integer in ``[0, bound)`` for one counter.

    Top-``k`` bits of successive words (``k`` minimal with
    ``2**k >= bound``) are rejection-sampled: each candidate is uniform on
    ``[0, 2**k)``, so the accepted value is uniform on ``[0, bound)``
    *exactly* — the counter-stream analogue of the integer draws behind
    :func:`exact_bernoulli`, with no float grid anywhere.  Bounds beyond
    64 bits concatenate ``ceil(k/64)`` words per round (big-int path),
    so exotic common denominators stay exact too.
    """
    if bound <= 1:
        return 0
    k = (bound - 1).bit_length()
    if k <= 64:
        shift = 64 - k
        round_ = 0
        while True:
            value = _word(base, counter, round_) >> shift
            if value < bound:
                return value
            round_ += 1
    chunks = (k + 63) // 64
    shift = 64 * chunks - k
    round_ = 0
    while True:
        acc = 0
        for j in range(chunks):
            acc = (acc << 64) | _word(base, counter, round_ * chunks + j)
        value = acc >> shift
        if value < bound:
            return value
        round_ += 1


#: Bounds whose draws the numpy path vectorizes; wider bounds go through
#: :func:`_py_uniform_below`.  63 bits keeps every intermediate
#: comfortably inside uint64 comparisons.
_VECTOR_BOUND_BITS = 63


def _np_mix64(x, scratch=None):
    """:func:`_mix64` over a uint64 array, in place (wrapping semantics
    match the masked Python arithmetic bit for bit).  ``x`` is consumed;
    ``scratch`` is an optional same-shape uint64 work buffer."""
    if scratch is None or scratch.shape != x.shape:
        scratch = _np.empty_like(x)
    _np.right_shift(x, _np.uint64(30), out=scratch)
    x ^= scratch
    x *= _np.uint64(_MIX_A)
    _np.right_shift(x, _np.uint64(27), out=scratch)
    x ^= scratch
    x *= _np.uint64(_MIX_B)
    _np.right_shift(x, _np.uint64(31), out=scratch)
    x ^= scratch
    return x


def _np_uniform_below(base: int, counters, bound: int, scratch=None):
    """Vectorized :func:`_py_uniform_below` for ``(bound - 1).bit_length()
    <= _VECTOR_BOUND_BITS``: identical words, identical rejection
    schedule, identical accepted values — per element, regardless of what
    its neighbors rejected (counters are independent).

    ``counters`` is preserved; power-of-two bounds take a no-rejection
    fast path (every top-``k``-bits candidate is already below the
    bound)."""
    k = (bound - 1).bit_length()
    shift = _np.uint64(64 - k)
    bound_v = _np.uint64(bound)
    with _np.errstate(over="ignore"):
        words = counters * _np.uint64(_GOLDEN)
        words += _np.uint64(base)
        _np_mix64(words, scratch)
        values = words
        values >>= shift
        if bound & (bound - 1) == 0:
            return values  # candidates are uniform on [0, bound) already
        pending = values >= bound_v
        round_ = 0
        while pending.any():
            round_ += 1
            salt = _np.uint64(
                (base + round_ * _ROUND_SALT) & _MASK64
            )
            retry = counters[pending] * _np.uint64(_GOLDEN)
            retry += salt
            _np_mix64(retry)
            retry >>= shift
            values[pending] = retry
            pending[pending] = retry >= bound_v
    return values


class DrawStream:
    """One seeded lane of exact uniform integer draws, addressed by
    absolute index.

    ``below(bound, start, count)`` returns draws ``start ..
    start + count - 1`` — the same integers whether drawn in one call or
    any partition into waves; ``draw(bound, index)`` is one of them.
    """

    def __init__(self, seed: int, lane: int = 0):
        self._base = _stream_base(seed, lane)

    def below(self, bound: int, start: int, count: int):
        """``count`` exact uniform draws in ``[0, bound)`` — an ``int64``
        numpy array when the bound fits 63 bits (the cast is lossless
        and spares the hot caller a per-element boxing roundtrip), a
        list of Python ints for wider bounds."""
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        if (bound - 1).bit_length() > _VECTOR_BOUND_BITS:
            return [
                _py_uniform_below(self._base, index, bound)
                for index in range(start, start + count)
            ]
        if bound == 1:
            return _np.zeros(count, dtype=_np.int64)
        counters = _np.uint64(start) + _np.arange(count, dtype=_np.uint64)
        return _np_uniform_below(self._base, counters, bound).astype(
            _np.int64
        )

    def draw(self, bound: int, index: int) -> int:
        """Draw ``index`` alone, on the scalar path: the per-call
        policies (retry jitter, fault lanes) take one value at
        a time, where building arrays would cost more than the draw."""
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        return _py_uniform_below(self._base, index, bound)


class WorldSampler:
    """Batched exact-Bernoulli world sampling on the counter stream.

    Column ``t`` of row ``s`` is 1 iff the uniform integer draw at
    counter ``(start + s) * n_tuples + t`` lands below the tuple's
    probability numerator — the batched form of
    :meth:`TupleIndependentDatabase.sample_world`'s per-tuple exact
    draws.  Deterministic tuples (probability 0 or 1) consume no draws;
    because the stream is counter-addressed, skipping them shifts
    nothing.  ``sample`` returns a ``count × n_tuples`` numpy ``uint8``
    0/1 matrix.
    """

    def __init__(
        self,
        probabilities: Sequence[Fraction],
        seed: int,
        lane: int = 0,
    ):
        self._n = len(probabilities)
        self._base = _stream_base(seed, lane)
        self._certain: list[tuple[int, int]] = []
        small: dict[int, tuple[list[int], list[int]]] = {}
        self._big: list[tuple[int, int, int]] = []
        for column, p in enumerate(probabilities):
            p = Fraction(p)
            if p.denominator == 1:
                self._certain.append((column, 1 if p.numerator >= 1 else 0))
            elif (p.denominator - 1).bit_length() <= _VECTOR_BOUND_BITS:
                cols, nums = small.setdefault(p.denominator, ([], []))
                cols.append(column)
                nums.append(p.numerator)
            else:
                self._big.append((column, p.numerator, p.denominator))
        self._small = sorted(small.items())

    @property
    def n_tuples(self) -> int:
        return self._n

    def sample(self, start: int, count: int):
        """Worlds ``start .. start + count - 1`` as a 0/1 matrix."""
        worlds = _np.zeros((count, self._n), dtype=_np.uint8)
        for column, present in self._certain:
            if present:
                worlds[:, column] = 1
        if self._small and count:
            golden = _np.uint64(_GOLDEN)
            with _np.errstate(over="ignore"):
                row_base = (
                    _np.uint64(start)
                    + _np.arange(count, dtype=_np.uint64)
                ) * _np.uint64(self._n)
                # Pre-multiplied counter pieces: the draw words are
                # mix64(base + counter * GOLDEN) and the counter is
                # row_base + column, so one broadcast add of the two
                # premultiplied halves builds base + counter * GOLDEN
                # directly — no full-size multiply pass per group.
                row_words = row_base * golden + _np.uint64(self._base)
            scratch = None
            for denominator, (cols, nums) in self._small:
                cols_arr = _np.array(cols, dtype=_np.uint64)
                if denominator & (denominator - 1) == 0:
                    # Power-of-two bound: the top-k candidate is already
                    # uniform on [0, bound) — no rejection, no counters.
                    with _np.errstate(over="ignore"):
                        words = (
                            row_words[:, None]
                            + (cols_arr * golden)[None, :]
                        )
                    if scratch is None or scratch.shape != words.shape:
                        scratch = _np.empty_like(words)
                    _np_mix64(words, scratch)
                    words >>= _np.uint64(
                        64 - (denominator - 1).bit_length()
                    )
                    values = words
                else:
                    with _np.errstate(over="ignore"):
                        counters = (
                            row_base[:, None] + cols_arr[None, :]
                        )
                    if scratch is None or scratch.shape != counters.shape:
                        scratch = _np.empty_like(counters)
                    values = _np_uniform_below(
                        self._base, counters, denominator, scratch
                    )
                worlds[:, cols] = (
                    values < _np.array(nums, dtype=_np.uint64)
                ).astype(_np.uint8)
        for column, numerator, denominator in self._big:
            for s in range(count):
                counter = (start + s) * self._n + column
                draw = _py_uniform_below(self._base, counter, denominator)
                worlds[s, column] = 1 if draw < numerator else 0
        return worlds


def valuation_probability(
    prob: Mapping[Hashable, Fraction], valuation: frozenset[Hashable]
) -> Fraction:
    """Definition B.2: the probability of one valuation under independent
    variables — product of ``p`` over members and ``1 - p`` over the rest of
    the mapping's domain."""
    probability = Fraction(1)
    for label, p in prob.items():
        probability *= p if label in valuation else (1 - p)
    return probability
