"""Compiled evaluation tapes: the fast path for d-D probability.

:mod:`repro.circuits.probability` states the d-D payoff — probability is
one bottom-up pass — but walking :class:`~repro.circuits.circuit.Gate`
objects gate-by-gate pays Python's full dispatch cost (enum identity
checks, attribute loads, dict lookups) on every gate of every pass.  This
module flattens a circuit once into an immutable post-order *evaluation
tape*: parallel arrays of opcodes and input-index spans, with variable
gates resolved to dense *slots*.  The tape is the unit of reuse for the
paper's motivating workloads (re-evaluation after probability updates,
sensitivity sweeps, Monte-Carlo batches over many probability maps):

* :meth:`EvaluationTape.gate_values` / :meth:`EvaluationTape.evaluate` —
  the exact backend, an interpreter over the tape arrays that is generic
  in the numeric type (``fractions.Fraction`` in, ``Fraction`` out) and
  reproduces the reference per-gate loop bit for bit;
* :meth:`EvaluationTape.evaluate_floats` — the fast ``float`` backend: the
  tape is lazily code-generated into one Python function of straight-line
  arithmetic (a statement per live gate), so a pass costs bytecode only;
* :meth:`EvaluationTape.evaluate_batch` — batched probability: ``B``
  probability maps are evaluated in one sweep by running the generated
  function over per-slot numpy rows (a batch of one runs it on Python
  floats, with the same bits);
* :meth:`EvaluationTape.world_masks` — the Boolean backend and the
  package's only Boolean gate loop: one big-int op per gate evaluates a
  batch of worlds at once (bit ``s`` = world ``s``).  Sampled worlds
  (:meth:`EvaluationTape.evaluate_worlds`), single assignments
  (:meth:`Circuit.evaluate`), truth tables, model enumeration and both
  determinism checks run on it; :func:`world_chunks` feeds it all
  ``2**n`` worlds in fixed-size chunks.

Tapes are immutable; :func:`tape_for` memoizes them per circuit (weakly,
keyed by the circuit's append-only fingerprint), so repeated evaluation
never re-walks the gate arena.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import gcd

import numpy as _np

from repro.circuits.circuit import Circuit, GateKind

Number = Fraction | float

#: Tape opcodes (one byte each; CONST is split by payload so the
#: interpreter needs no payload array).
OP_VAR = 0
OP_CONST_FALSE = 1
OP_CONST_TRUE = 2
OP_NOT = 3
OP_AND = 4
OP_OR = 5

#: Above this many live gates the float backend stays on the interpreter
#: instead of code generation (compiling a function of millions of
#: statements costs more than it saves on a handful of passes).
CODEGEN_GATE_LIMIT = 500_000

#: Maximum operands folded into one generated expression; wider gates are
#: accumulated over several statements to keep the AST shallow.
_CODEGEN_CHUNK = 32

#: Worlds per chunk of :func:`world_chunks` (a power of two): it caps
#: every gate mask of a chunk pass at 8 KiB.
WORLD_CHUNK = 1 << 16


class EvaluationTape:
    """An immutable post-order flattening of a :class:`Circuit`.

    Node ``i`` of the tape is gate ``i`` of the arena (arena ids are dense
    and topologically ordered, so arena order *is* a post-order).  The
    structure is four parallel arrays — ``opcodes``, per-node operand
    (variable slot for ``VAR``, span start for ``NOT``/``AND``/``OR``),
    span length, and one flat ``args`` array of input node indices — plus
    the variable labels in slot order.

    A tape's value is its ``output`` node, or, when ``terms`` is set, the
    signed sum ``Σ coefficient · node`` over its ``(coefficient, node)``
    pairs, added in term order from zero: the root inclusion–exclusion of
    a grounded lifted plan (:func:`repro.pqe.lift.ground_plan`).  The sum
    is arithmetic outside the circuit, so :meth:`world_masks` only ever
    sees the term gates, and :meth:`evaluate_worlds` refuses such a tape.
    """

    __slots__ = (
        "opcodes",
        "operands",
        "arity",
        "args",
        "var_labels",
        "output",
        "live",
        "terms",
        "_float_fn",
        "__weakref__",
    )

    def __init__(
        self,
        opcodes: array,
        operands: array,
        arity: array,
        args: array,
        var_labels: tuple[Hashable, ...],
        output: int | None,
        live: array,
        terms: tuple[tuple[int, int], ...] | None = None,
    ):
        self.opcodes = opcodes
        self.operands = operands
        self.arity = arity
        self.args = args
        self.var_labels = var_labels
        self.output = output
        self.live = live
        self.terms = terms
        self._float_fn = None

    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit,
        terms: Sequence[tuple[int, int]] | None = None,
    ) -> "EvaluationTape":
        """Flatten ``circuit``.  A designated output is optional: without
        one the whole arena is live and only :meth:`gate_values` works.
        With ``terms`` (``(coefficient, gate id)`` pairs) the tape's value
        is their signed sum and the live part is what the term gates
        reach; the circuit's output is ignored."""
        output = None if terms is not None else _output_of(circuit)
        n = len(circuit)
        opcodes = array("b", bytes(n))
        operands = array("q", [0]) * n
        arity = array("q", [0]) * n
        args = array("q")
        var_labels: list[Hashable] = []
        for gate_id, gate in circuit.gates():
            kind = gate.kind
            if kind is GateKind.VAR:
                operands[gate_id] = len(var_labels)
                var_labels.append(gate.payload)
            elif kind is GateKind.CONST:
                opcodes[gate_id] = (
                    OP_CONST_TRUE if gate.payload else OP_CONST_FALSE
                )
            else:
                if kind is GateKind.NOT:
                    opcodes[gate_id] = OP_NOT
                elif kind is GateKind.AND:
                    opcodes[gate_id] = OP_AND
                else:
                    opcodes[gate_id] = OP_OR
                operands[gate_id] = len(args)
                arity[gate_id] = len(gate.inputs)
                args.extend(gate.inputs)
        if terms is not None:
            terms = tuple(terms)
            live = array(
                "q", sorted(circuit.reachable_from(g for _, g in terms))
            )
        elif output is None:
            live = array("q", range(n))
        else:
            live = array("q", sorted(circuit.reachable_from_output()))
        return cls(
            opcodes, operands, arity, args, tuple(var_labels), output, live,
            terms,
        )

    def __len__(self) -> int:
        return len(self.opcodes)

    # ------------------------------------------------------------------
    # Exact backend: interpreter over the tape arrays
    # ------------------------------------------------------------------

    def gate_values(
        self, prob: Mapping[Hashable, Number]
    ) -> list[Number]:
        """Per-gate probabilities for *every* node of the tape, indexed by
        gate id — the tape form of the reference bottom-up pass, with
        identical numeric semantics (missing labels default to 0)."""
        return self._interpret(prob, range(len(self.opcodes)))

    def evaluate(self, prob: Mapping[Hashable, Number]) -> Number:
        """``Pr(circuit)`` by evaluating only the live (output-reachable)
        nodes; exact for :class:`Fraction` inputs.

        Exact maps run on the integer common-denominator backend when the
        probabilities admit a small common denominator (the result is the
        same canonical ``Fraction`` either way); other maps — and exotic
        denominators — use the generic interpreter.
        """
        result = self._evaluate_common_denominator(prob)
        if result is not None:
            return result
        one = one_like(prob)
        values = self._interpret(prob, self.live)
        return self._result(values.__getitem__, one - one)

    def _output(self) -> int:
        if self.output is None:
            raise ValueError("circuit has no designated output gate")
        return self.output

    def _result(self, value_of, zero: Number) -> Number:
        """The tape's value from a per-node ``value_of``: the output's, or
        the signed sum of the term nodes added in term order to ``zero``
        (as :func:`repro.pqe.lift.evaluate_plan_float` adds them)."""
        if self.terms is None:
            return value_of(self._output())
        total = zero
        for coefficient, node in self.terms:
            total += coefficient * value_of(node)
        return total

    def _evaluate_common_denominator(
        self, prob: Mapping[Hashable, Number]
    ) -> Fraction | None:
        """The exact fast path: gate values as ``(numerator, exponent)``
        pairs denoting ``numerator / D**exponent`` for one common
        denominator ``D`` of every slot probability.

        Python-``int`` arithmetic replaces per-operation ``Fraction``
        normalization (two gcds and an object per multiply); the single
        ``Fraction(n, D**e)`` at the output canonicalizes, so the result
        is bit-identical to the interpreter's.  Returns ``None`` — caller
        falls back to the interpreter — when the map is not exact
        (first value float, mirroring :func:`one_like`), the common
        denominator exceeds 64 bits, or an exponent outruns
        ``#slots + 2`` (possible only on non-decomposable circuits, where
        repeated subcircuits inflate the scale).
        """
        if self.output is None and self.terms is None:
            return None
        if not isinstance(one_like(prob), Fraction):
            return None
        get = prob.get
        values = []
        denominator = 1
        for label in self.var_labels:
            value = get(label, 0)
            if isinstance(value, Fraction):
                q = value.denominator
                if q > 1:
                    denominator = denominator * q // gcd(denominator, q)
                    if denominator.bit_length() > 64:
                        return None
            elif not isinstance(value, int):
                return None  # a float slot: keep interpreter semantics
            values.append(value)
        D = denominator
        exponent_limit = len(values) + 2
        powers = [1, D]  # powers[i] = D**i, grown on demand
        opcodes = self.opcodes
        operands = self.operands
        arity = self.arity
        args = self.args
        nums = [0] * len(opcodes)
        exps = [0] * len(opcodes)
        for i in self.live:
            op = opcodes[i]
            if op == OP_VAR:
                value = values[operands[i]]
                if isinstance(value, Fraction):
                    nums[i] = value.numerator * (D // value.denominator)
                else:
                    nums[i] = value * D
                exps[i] = 1
            elif op == OP_AND:
                start = operands[i]
                product = 1
                exponent = 0
                for j in range(start, start + arity[i]):
                    a = args[j]
                    product *= nums[a]
                    exponent += exps[a]
                if exponent > exponent_limit:
                    return None
                nums[i] = product
                exps[i] = 0 if product == 0 else exponent
            elif op == OP_OR:
                start = operands[i]
                top = start + arity[i]
                exponent = 0
                for j in range(start, top):
                    e = exps[args[j]]
                    if e > exponent:
                        exponent = e
                while len(powers) <= exponent:
                    powers.append(powers[-1] * D)
                total = 0
                for j in range(start, top):
                    a = args[j]
                    e = exps[a]
                    total += (
                        nums[a]
                        if e == exponent
                        else nums[a] * powers[exponent - e]
                    )
                nums[i] = total
                exps[i] = 0 if total == 0 else exponent
            elif op == OP_NOT:
                a = args[operands[i]]
                exponent = exps[a]
                while len(powers) <= exponent:
                    powers.append(powers[-1] * D)
                nums[i] = powers[exponent] - nums[a]
                exps[i] = exponent
            elif op == OP_CONST_TRUE:
                nums[i] = 1
            # OP_CONST_FALSE keeps the zero initialization.

        def fraction(node: int) -> Fraction:
            exponent = exps[node]
            while len(powers) <= exponent:
                powers.append(powers[-1] * D)
            return Fraction(nums[node], powers[exponent])

        return self._result(fraction, Fraction(0))

    def _interpret(
        self, prob: Mapping[Hashable, Number], nodes: Iterable[int]
    ) -> list[Number]:
        one = one_like(prob)
        zero = one - one
        opcodes = self.opcodes
        operands = self.operands
        arity = self.arity
        args = self.args
        labels = self.var_labels
        get = prob.get
        values: list[Number] = [0] * len(opcodes)
        for i in nodes:
            op = opcodes[i]
            if op == OP_VAR:
                values[i] = get(labels[operands[i]], 0)
            elif op == OP_AND:
                start = operands[i]
                product = one
                for j in range(start, start + arity[i]):
                    product = product * values[args[j]]
                values[i] = product
            elif op == OP_OR:
                start = operands[i]
                total = zero
                for j in range(start, start + arity[i]):
                    total = total + values[args[j]]
                values[i] = total
            elif op == OP_NOT:
                values[i] = one - values[args[operands[i]]]
            elif op == OP_CONST_TRUE:
                values[i] = one
            else:
                values[i] = zero
        return values

    # ------------------------------------------------------------------
    # Float backend: code generation
    # ------------------------------------------------------------------

    def probability_vector(
        self, prob: Mapping[Hashable, Number]
    ) -> list[float]:
        """``prob`` resolved to the tape's variable slots, as floats."""
        get = prob.get
        return [float(get(label, 0)) for label in self.var_labels]

    def evaluate_floats(
        self, prob: Mapping[Hashable, Number] | Sequence[float]
    ) -> float:
        """``Pr(circuit)`` in floating point via the compiled tape.

        ``prob`` may be a probability map or a pre-resolved slot vector
        (as produced by :meth:`probability_vector`).
        """
        vector = (
            self.probability_vector(prob)
            if isinstance(prob, Mapping)
            else prob
        )
        return float(self._compiled()(vector))

    def evaluate_batch(
        self,
        probs: Sequence[Mapping[Hashable, Number]] | None = None,
        *,
        matrix: Sequence[Sequence[float]] | None = None,
    ) -> list[float]:
        """``Pr(circuit)`` for a batch of probability maps in one sweep.

        Pass either ``probs`` (one mapping per batch member) or ``matrix``
        (one row of floats per *slot*, each of the batch length — the
        transposed layout the backend consumes directly).  The generated
        function runs once over per-slot numpy vectors.
        """
        if (probs is None) == (matrix is None):
            raise ValueError("pass exactly one of probs= or matrix=")
        if probs is not None:
            batch_size = len(probs)
            rows = [
                [float(p.get(label, 0)) for p in probs]
                for label in self.var_labels
            ]
        else:
            if not self.var_labels:
                # With zero slots the matrix layout cannot encode a batch
                # size; fail loudly instead of returning an empty batch.
                raise ValueError(
                    "the tape has no variable slots, so matrix= cannot "
                    "express a batch size; pass probs= instead"
                )
            rows = [list(map(float, row)) for row in matrix]
            if len(rows) != len(self.var_labels):
                raise ValueError(
                    f"matrix has {len(rows)} rows; the tape has "
                    f"{len(self.var_labels)} variable slots"
                )
            batch_size = len(rows[0])
            if any(len(row) != batch_size for row in rows):
                raise ValueError("ragged batch matrix")
        return self._sweep(rows, batch_size)

    def evaluate_vectors(
        self, vectors: Sequence[Sequence[float]]
    ) -> list[float]:
        """``Pr(circuit)`` for a batch of pre-resolved float slot vectors
        — one per batch member, as produced by :meth:`probability_vector`
        (and memoized per TID by
        :meth:`~repro.db.tid.TupleIndependentDatabase.slot_vector`).

        The microbatch entry of the serving layer's tape routes
        (:func:`repro.serving.shard.compute`): each distinct probability
        map of a group is resolved to a slot vector once, and the whole
        group then shares a single sweep.  A batch of one runs the
        generated function on its vector directly, as :meth:`_sweep`
        would after transposing it.  Equivalent to :meth:`evaluate_batch`
        on the corresponding maps, float for float.
        """
        width = len(self.var_labels)
        for vector in vectors:
            if len(vector) != width:
                raise ValueError(
                    f"slot vector of length {len(vector)}; the tape has "
                    f"{width} variable slots"
                )
        if len(vectors) == 1:
            return [float(self._compiled()(vectors[0]))]
        rows = [
            [float(vector[slot]) for vector in vectors]
            for slot in range(width)
        ]
        return self._sweep(rows, len(vectors))

    # ------------------------------------------------------------------
    # Boolean backend: batched world (indicator) evaluation
    # ------------------------------------------------------------------

    def evaluate_worlds(self, worlds) -> list[bool]:
        """The circuit's *Boolean* value on a batch of 0/1 slot rows.

        ``worlds`` is a ``samples × slots`` 0/1 matrix (numpy array or
        anything :func:`numpy.asarray` reads as one), one possible world
        per row.  Unlike the probability backends — whose ∨-as-sum is
        only meaningful on deterministic circuits — this evaluates honest
        Boolean semantics (∧ = all, ∨ = any, ¬ = complement), so it
        computes the exact indicator of *any* circuit, non-deterministic
        DNF lineages included.  That is what the Monte-Carlo route of
        :mod:`repro.pqe.approximate` needs: the lineage circuit of a
        #P-hard query is never a d-D, but its indicator on a sampled
        world is still one tape sweep.

        The columns are bit-packed via ``np.packbits`` into one slot mask
        each, then :meth:`world_masks` covers the whole batch.
        """
        output = self._output()
        worlds = _np.asarray(worlds, dtype=_np.uint8)
        samples = len(worlds)
        if samples == 0:
            return []
        if worlds.ndim != 2 or worlds.shape[1] != len(self.var_labels):
            raise ValueError(
                f"world rows of shape {worlds.shape[1:]}; the tape has "
                f"{len(self.var_labels)} variable slots"
            )
        packed = _np.packbits(worlds, axis=0, bitorder="little")
        masks = [
            int.from_bytes(packed[:, slot].tobytes(), "little")
            for slot in range(len(self.var_labels))
        ]
        out = self.world_masks(masks, (1 << samples) - 1)[output]
        return [bool(out >> s & 1) for s in range(samples)]

    def world_masks(
        self,
        masks: Sequence[int],
        full: int,
        nodes: Iterable[int] | None = None,
    ) -> list[int]:
        """Every node's Boolean value on a batch of worlds, as bitmasks.

        The one Boolean gate loop of :mod:`repro.circuits`.  Bit ``s`` of
        ``masks[slot]`` is the slot's variable in world ``s``, and
        ``full`` has one bit per world.  Returns a list indexed by node
        whose entry ``i`` holds node ``i``'s truth in world ``s`` at bit
        ``s``: ∧ is AND and ∨ is OR over the input masks, ¬ complements
        within ``full``, and the constants are ``full`` and 0.  Evaluates
        the live nodes, or ``nodes`` (ascending) when given; every other
        entry stays 0.
        """
        opcodes = self.opcodes
        operands = self.operands
        arity = self.arity
        args = self.args
        values = [0] * len(opcodes)
        for i in self.live if nodes is None else nodes:
            op = opcodes[i]
            if op == OP_VAR:
                values[i] = masks[operands[i]]
            elif op == OP_AND:
                start = operands[i]
                mask = full
                for j in range(start, start + arity[i]):
                    mask &= values[args[j]]
                values[i] = mask
            elif op == OP_OR:
                start = operands[i]
                mask = 0
                for j in range(start, start + arity[i]):
                    mask |= values[args[j]]
                values[i] = mask
            elif op == OP_NOT:
                values[i] = full ^ values[args[operands[i]]]
            elif op == OP_CONST_TRUE:
                values[i] = full
            # OP_CONST_FALSE keeps the zero initialization.
        return values

    def _sweep(
        self, rows: list[list[float]], batch_size: int
    ) -> list[float]:
        """Run the compiled function over per-slot rows (the shared
        backend of :meth:`evaluate_batch` and :meth:`evaluate_vectors`).

        A batch of one runs the function on Python floats, as
        :meth:`evaluate_floats` does: one-element numpy rows would pay a
        ufunc dispatch per gate for nothing.  The function is
        straight-line ``+``/``*``/``1.0-`` code, and both numeric types
        round every such operation correctly in binary64, so the two
        paths return the same bits.
        """
        if batch_size == 0:
            return []
        if batch_size == 1:
            return [float(self._compiled()([row[0] for row in rows]))]
        stacked = (
            _np.array(rows, dtype=float)
            if rows
            else _np.empty((0, batch_size))
        )
        result = self._compiled()(stacked)
        if _np.ndim(result) == 0:  # constant output: broadcast
            return [float(result)] * batch_size
        return [float(x) for x in result]

    def _compiled(self):
        if self._float_fn is None:
            if self.terms is None:
                self._output()
            if len(self.live) > CODEGEN_GATE_LIMIT:
                self._float_fn = self._interpreted_float_fn()
            else:
                self._float_fn = _codegen(self)
        return self._float_fn

    def _interpreted_float_fn(self):
        """Interpreter-backed stand-in for the generated function, used
        beyond :data:`CODEGEN_GATE_LIMIT` (same calling convention)."""

        def run(vector):
            prob = dict(zip(self.var_labels, vector))
            values = self._interpret(prob, self.live)
            return self._result(values.__getitem__, 0.0)

        return run


def _codegen(tape: EvaluationTape):
    """Generate one straight-line Python function evaluating the live part
    of the tape over a slot vector ``V`` (floats or numpy rows); a term
    tape returns ``0.0 + c1*v1 + c2*v2 + ...`` in term order."""
    opcodes = tape.opcodes
    operands = tape.operands
    arity = tape.arity
    args = tape.args
    lines = ["def _tape_fn(V):"]
    emit = lines.append
    for i in tape.live:
        op = opcodes[i]
        if op == OP_VAR:
            emit(f" v{i}=V[{operands[i]}]")
        elif op == OP_CONST_TRUE:
            emit(f" v{i}=1.0")
        elif op == OP_CONST_FALSE:
            emit(f" v{i}=0.0")
        elif op == OP_NOT:
            emit(f" v{i}=1.0-v{args[operands[i]]}")
        else:
            start = operands[i]
            inputs = [f"v{args[j]}" for j in range(start, start + arity[i])]
            joiner = "*" if op == OP_AND else "+"
            emit(f" v{i}={joiner.join(inputs[:_CODEGEN_CHUNK])}")
            for at in range(_CODEGEN_CHUNK, len(inputs), _CODEGEN_CHUNK):
                chunk = joiner.join(inputs[at : at + _CODEGEN_CHUNK])
                emit(f" v{i}=v{i}{joiner}{chunk}")
    if tape.terms is None:
        emit(f" return v{tape.output}")
    else:
        emit(" r=0.0")
        for coefficient, node in tape.terms:
            emit(f" r=r+({coefficient})*v{node}")
        emit(" return r")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<evaluation-tape>", "exec"), namespace)
    return namespace["_tape_fn"]


def one_like(prob: Mapping[Hashable, Number]) -> Number:
    """The multiplicative unit matching the numeric type of ``prob``:
    :class:`Fraction` for exact maps (and for empty maps), ``1.0`` for
    float maps — the convention of the reference pass."""
    for value in prob.values():
        if isinstance(value, Fraction):
            return Fraction(1)
        return 1.0
    return Fraction(1)


def world_chunks(n: int) -> Iterator[tuple[list[int], int, int]]:
    """All ``2**n`` worlds over ``n`` variable positions, in chunks of at
    most :data:`WORLD_CHUNK` worlds, for :meth:`EvaluationTape.world_masks`.

    World ``w`` sets position ``j`` true iff bit ``j`` of ``w`` is set.
    Each chunk is ``(masks, full, first)``: bit ``s`` of ``masks[j]`` is
    position ``j`` in world ``first + s``, and ``full`` has one bit per
    world of the chunk.
    """
    width = min(1 << n, WORLD_CHUNK)
    full = (1 << width) - 1
    # Position j repeats 2**j zeros then 2**j ones.  When that period
    # fits in a chunk the mask is the same in every chunk; otherwise the
    # position is constant within a chunk, bit j of its first world.
    periodic = [
        full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
        for j in range(width.bit_length() - 1)
    ]
    for first in range(0, 1 << n, width):
        constant = [
            full if first >> j & 1 else 0 for j in range(len(periodic), n)
        ]
        yield periodic + constant, full, first


# ----------------------------------------------------------------------
# Per-circuit tape cache
# ----------------------------------------------------------------------

_TAPE_CACHE: "weakref.WeakKeyDictionary[Circuit, tuple[tuple[int, int], EvaluationTape]]" = (
    weakref.WeakKeyDictionary()
)


def _output_of(circuit: Circuit) -> int | None:
    try:
        return circuit.output
    except ValueError:
        return None


def tape_for(circuit: Circuit) -> EvaluationTape:
    """The memoized evaluation tape of ``circuit``.

    Circuits are append-only, so ``(gate count, output id)`` fingerprints
    the arena: growing the circuit or re-designating the output invalidates
    the cached tape, and nothing else can.
    """
    fingerprint = (len(circuit), _output_of(circuit))
    entry = _TAPE_CACHE.get(circuit)
    if entry is not None and entry[0] == fingerprint:
        return entry[1]
    tape = EvaluationTape.from_circuit(circuit)
    _TAPE_CACHE[circuit] = (fingerprint, tape)
    return tape
