"""Boolean circuits with ∧, ∨, ¬, variable and constant gates.

These are the carrier objects of the intensional approach (Section 2 of the
paper): lineages are compiled into circuits whose ∧-gates are *decomposable*
(inputs over disjoint variable sets) and whose ∨-gates are *deterministic*
(inputs capture disjoint Boolean functions) — the class d-D.  The circuit
class itself is agnostic: decomposability and determinism are checked by
:mod:`repro.circuits.validation`, and probability computation for validated
d-Ds lives in :mod:`repro.circuits.probability`.

A circuit is a DAG of :class:`Gate` objects addressed by integer ids inside
a :class:`Circuit` arena, with one designated output gate.  Variables are
arbitrary hashable labels (in this package: tuple identifiers of a database).
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence


class GateKind(enum.Enum):
    """The five kinds of gates a circuit may contain."""

    VAR = "var"
    NOT = "not"
    AND = "and"
    OR = "or"
    CONST = "const"


class Gate:
    """One gate of a circuit: a kind, input gate ids, and a payload.

    The payload is the variable label for ``VAR`` gates and the Boolean value
    for ``CONST`` gates; it is ``None`` otherwise.
    """

    __slots__ = ("kind", "inputs", "payload")

    def __init__(
        self, kind: GateKind, inputs: tuple[int, ...], payload: object = None
    ):
        self.kind = kind
        self.inputs = inputs
        self.payload = payload

    def __repr__(self) -> str:
        if self.kind is GateKind.VAR:
            return f"Gate(VAR {self.payload!r})"
        if self.kind is GateKind.CONST:
            return f"Gate(CONST {self.payload!r})"
        return f"Gate({self.kind.name} <- {self.inputs})"


#: Int opcodes for cons-table keys (hashing an enum member is a Python-
#: level call; these stay on the C fast path).
_CONS_NOT, _CONS_AND, _CONS_OR = 0, 1, 2


class Circuit:
    """A Boolean circuit: an arena of gates plus a designated output.

    Gates are created through the ``add_*`` methods, which return gate ids.
    Structural sharing is encouraged: the builder methods hash-cons variable
    and constant gates, and callers may reuse any gate id as input to many
    gates.  The circuit is append-only; ids are dense and topologically
    ordered (inputs always have smaller ids), which the evaluators exploit.

    With ``dedup=True`` the hash-consing extends to ¬/∧/∨ gates: an
    ``add_*`` call whose (kind, inputs) pair was already built returns the
    existing gate id instead of appending a duplicate.  Consing merges only
    *syntactically* identical gates, so every gate keeps its Boolean
    function and the d-D properties (decomposability, determinism) are
    preserved verbatim — probabilities are bit-identical with or without
    it.  The default stays append-only for callers that rely on one id per
    ``add_*`` call (e.g. structural tests counting construction steps).
    ``dedup_hits`` counts the calls served from the cons table: the arena
    would hold ``len(circuit) + dedup_hits`` gates without sharing.
    """

    def __init__(self, dedup: bool = False) -> None:
        self._gates: list[Gate] = []
        self._var_ids: dict[Hashable, int] = {}
        self._const_ids: dict[bool, int] = {}
        self._cons: dict[tuple, int] | None = {} if dedup else None
        self.dedup_hits = 0
        self._non_nnf_nots = 0  # ¬-gates over non-variable inputs
        self._output: int | None = None
        self._frozen = False

    @property
    def dedup(self) -> bool:
        """Whether ¬/∧/∨ gates are hash-consed (set at construction)."""
        return self._cons is not None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_var(self, label: Hashable) -> int:
        """Add (or fetch) the variable gate for ``label``."""
        if label in self._var_ids:
            return self._var_ids[label]
        gate_id = self._append(Gate(GateKind.VAR, (), label))
        self._var_ids[label] = gate_id
        return gate_id

    def add_const(self, value: bool) -> int:
        """Add (or fetch) a constant gate."""
        value = bool(value)
        if value in self._const_ids:
            return self._const_ids[value]
        gate_id = self._append(Gate(GateKind.CONST, (), value))
        self._const_ids[value] = gate_id
        return gate_id

    def add_not(self, input_id: int) -> int:
        """Add a ¬-gate over an existing gate."""
        self._check_ids([input_id])
        if self._cons is None:
            return self._append(Gate(GateKind.NOT, (input_id,)))
        return self._consed(_CONS_NOT, GateKind.NOT, (input_id,))

    def add_and(self, input_ids: Iterable[int]) -> int:
        """Add an ∧-gate; an empty input list denotes the constant True."""
        ids = tuple(input_ids)
        self._check_ids(ids)
        if not ids:
            return self.add_const(True)
        if len(ids) == 1:
            return ids[0]
        if self._cons is None:
            return self._append(Gate(GateKind.AND, ids))
        return self._consed(_CONS_AND, GateKind.AND, ids)

    def add_or(self, input_ids: Iterable[int]) -> int:
        """Add an ∨-gate; an empty input list denotes the constant False."""
        ids = tuple(input_ids)
        self._check_ids(ids)
        if not ids:
            return self.add_const(False)
        if len(ids) == 1:
            return ids[0]
        if self._cons is None:
            return self._append(Gate(GateKind.OR, ids))
        return self._consed(_CONS_OR, GateKind.OR, ids)

    def _consed(self, code: int, kind: GateKind, ids: tuple[int, ...]) -> int:
        # Cons keys carry an int opcode instead of the GateKind member:
        # key hashing is the hot operation and enum hashing is a Python-
        # level call.
        key = (code, ids)
        found = self._cons.get(key)
        if found is not None:
            self.dedup_hits += 1
            return found
        gate_id = self._append(Gate(kind, ids))
        self._cons[key] = gate_id
        return gate_id

    #: Opcodes of precompiled gate programs (see
    #: :meth:`replay_gates` and :mod:`repro.obdd.to_circuit`).
    OP_CONST, OP_VAR, OP_NOT, OP_AND, OP_OR = range(5)

    def replay_gates(
        self,
        ops: list[tuple[int, int, int]],
        slots: list[int],
        slot_to_gate: list[int],
        labels: Sequence[Hashable],
    ) -> None:
        """Instantiate slots of a precompiled gate program into the arena.

        A program is a list of ``(opcode, a, b)`` triples addressed by
        *slot* index: ``OP_CONST`` builds the constant ``a``; ``OP_VAR``
        the variable ``labels[a]``; ``OP_NOT``/``OP_AND``/``OP_OR`` gates
        over the slots ``a`` (and ``b``).  ``slots`` lists the slots to
        materialize, dependencies first; ``slot_to_gate`` is the dense
        slot→gate table of this arena (-1 for absent), which doubles as
        the skip set — across many roots each gate is built once per
        arena — and receives every new gate id.

        The program itself is already hash-consed at build time
        (:mod:`repro.obdd.to_circuit` builds one per OBDD manager), so
        the replay performs no cons lookups: per gate it is one tuple
        load, one ``Gate`` construction and two list writes — the
        cheapest possible arena instantiation, which is what makes cold
        compilation of many queries over one database scale.  Replayed
        ∧/∨ gates are therefore *not* registered in a dedup arena's cons
        table (¬-gates are, because distinct programs share them through
        the arena's global variable gates; identical ∧/∨ gates later
        requested through ``add_*`` are appended anew — harmless for
        semantics, merely a missed sharing opportunity).
        """
        if self._frozen:
            raise ValueError("circuit is frozen; derive a copy instead")
        gates = self._gates
        append = gates.append
        var_ids = self._var_ids
        cons = self._cons
        hits = 0
        VAR_KIND, NOT_KIND = GateKind.VAR, GateKind.NOT
        AND_KIND, OR_KIND = GateKind.AND, GateKind.OR
        for slot in slots:
            if slot_to_gate[slot] != -1:
                continue
            op, a, b = ops[slot]
            if op == 3:  # OP_AND
                append(Gate(AND_KIND, (slot_to_gate[a], slot_to_gate[b])))
                slot_to_gate[slot] = len(gates) - 1
            elif op == 4:  # OP_OR
                append(Gate(OR_KIND, (slot_to_gate[a], slot_to_gate[b])))
                slot_to_gate[slot] = len(gates) - 1
            elif op == 2:  # OP_NOT (always over a variable slot)
                ids = (slot_to_gate[a],)
                if cons is None:
                    append(Gate(NOT_KIND, ids))
                    slot_to_gate[slot] = len(gates) - 1
                else:
                    # ¬v is the one gate distinct programs (one per side
                    # manager) can share — variables are global to the
                    # arena — so it alone keeps the cons table round trip.
                    key = (_CONS_NOT, ids)
                    built = cons.get(key)
                    if built is None:
                        append(Gate(NOT_KIND, ids))
                        built = len(gates) - 1
                        cons[key] = built
                    else:
                        hits += 1
                    slot_to_gate[slot] = built
            elif op == 1:  # OP_VAR
                label = labels[a]
                var_gate = var_ids.get(label)
                if var_gate is None:
                    append(Gate(VAR_KIND, (), label))
                    var_gate = len(gates) - 1
                    var_ids[label] = var_gate
                slot_to_gate[slot] = var_gate
            else:  # OP_CONST
                slot_to_gate[slot] = self.add_const(bool(a))
        self.dedup_hits += hits

    def set_output(self, gate_id: int) -> None:
        """Designate the output gate."""
        if self._frozen:
            raise ValueError("circuit is frozen; derive a copy instead")
        self._check_ids([gate_id])
        self._output = gate_id

    def freeze(self) -> None:
        """Make the circuit immutable: any further gate addition or output
        re-designation raises.  Used by caches that share one circuit among
        many holders (grow a copy via ``operations.copy_into`` instead)."""
        self._frozen = True

    def _append(self, gate: Gate) -> int:
        if self._frozen:
            raise ValueError("circuit is frozen; derive a copy instead")
        if (
            gate.kind is GateKind.NOT
            and self._gates[gate.inputs[0]].kind is not GateKind.VAR
        ):
            self._non_nnf_nots += 1
        self._gates.append(gate)
        return len(self._gates) - 1

    def _check_ids(self, ids: Iterable[int]) -> None:
        for gate_id in ids:
            if not 0 <= gate_id < len(self._gates):
                raise ValueError(f"unknown gate id {gate_id}")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def output(self) -> int:
        """The id of the output gate.

        :raises ValueError: if no output has been designated.
        """
        if self._output is None:
            raise ValueError("circuit has no designated output gate")
        return self._output

    def gate(self, gate_id: int) -> Gate:
        """The gate with the given id."""
        return self._gates[gate_id]

    def __len__(self) -> int:
        """Number of gates (the paper's notion of circuit size up to wires)."""
        return len(self._gates)

    def num_wires(self) -> int:
        """Total number of wires (gate inputs)."""
        return sum(len(g.inputs) for g in self._gates)

    def gates(self) -> Iterator[tuple[int, Gate]]:
        """Iterate over ``(id, gate)`` pairs in topological order."""
        return iter(enumerate(self._gates))

    def variables(self) -> frozenset[Hashable]:
        """All variable labels appearing in the circuit."""
        return frozenset(self._var_ids)

    def var_id(self, label: Hashable) -> int:
        """The gate id of a variable label."""
        return self._var_ids[label]

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, assignment: Mapping[Hashable, bool]) -> bool:
        """Evaluate the output under a total assignment of the variables.

        Missing variables default to False (absent tuples), matching the
        valuation-as-subset convention of the paper.  A one-world pass of
        the evaluation tape's Boolean backend.
        """
        from repro.circuits.evaluator import tape_for

        output = self.output
        tape = tape_for(self)
        masks = [
            1 if assignment.get(label, False) else 0
            for label in tape.var_labels
        ]
        return bool(tape.world_masks(masks, 1)[output])

    def gate_variable_sets(self) -> list[frozenset[Hashable]]:
        """``Vars(g)`` for every gate: the variable labels with a directed
        path to the gate (used by the decomposability check)."""
        sets: list[frozenset[Hashable]] = [frozenset()] * len(self._gates)
        for gate_id, gate in enumerate(self._gates):
            if gate.kind is GateKind.VAR:
                sets[gate_id] = frozenset([gate.payload])
            elif gate.kind is GateKind.CONST:
                sets[gate_id] = frozenset()
            else:
                combined: set[Hashable] = set()
                for input_id in gate.inputs:
                    combined |= sets[input_id]
                sets[gate_id] = frozenset(combined)
        return sets

    def models_by_enumeration(self) -> Iterator[frozenset[Hashable]]:
        """All satisfying assignments, as the sets of variables set to True.

        Exponential in the number of variables — only for validation on
        small instances.  Models come in ``itertools.product`` order over
        the labels sorted by ``repr`` (the first label varies slowest).
        """
        from repro.circuits.operations import circuit_to_boolean_function

        # Table variable i is order[i], so ascending table masks are
        # product order over the sorted labels.
        order = sorted(self._var_ids, key=repr)[::-1]
        table = circuit_to_boolean_function(self, order)
        for mask in table.satisfying_masks():
            yield frozenset(
                label for i, label in enumerate(order) if mask >> i & 1
            )

    def reachable_from_output(self) -> set[int]:
        """Gate ids reachable from the output (the live part of the arena)."""
        return self.reachable_from([self.output])

    def reachable_from(self, gate_ids: Iterable[int]) -> set[int]:
        """Gate ids reachable from any of ``gate_ids``."""
        seen: set[int] = set()
        stack = list(gate_ids)
        while stack:
            gate_id = stack.pop()
            if gate_id in seen:
                continue
            seen.add(gate_id)
            stack.extend(self._gates[gate_id].inputs)
        return seen

    def is_nnf(self) -> bool:
        """Whether the circuit is in negation normal form: every ¬-gate's
        input is a variable gate (Section 2).  O(1): the count of
        offending ¬-gates is maintained at construction (bulk decision-
        gate expansion only ever negates variables)."""
        return self._non_nnf_nots == 0

    def stats(self) -> dict[str, int]:
        """Gate-count statistics by kind, plus wires (for the benches)."""
        counts = {kind.name: 0 for kind in GateKind}
        for gate in self._gates:
            counts[gate.kind.name] += 1
        counts["TOTAL"] = len(self._gates)
        counts["WIRES"] = self.num_wires()
        return counts

    def __repr__(self) -> str:
        return f"Circuit({len(self._gates)} gates, {len(self._var_ids)} vars)"
