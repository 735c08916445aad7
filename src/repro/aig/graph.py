"""And-inverter graph with latches (sequential AIG).

Literal convention follows the AIGER format: a node with index ``i`` has the
positive literal ``2*i`` and the negated literal ``2*i + 1``; literal 0 is
constant false and literal 1 constant true.  Node index 0 is reserved for the
constant; inputs, latches and AND gates receive increasing indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

AigerLiteral = int


def aig_negate(lit: AigerLiteral) -> AigerLiteral:
    """Negate an AIG literal."""
    return lit ^ 1


def aig_is_negated(lit: AigerLiteral) -> bool:
    """Return True if the literal is the negated phase of its node."""
    return bool(lit & 1)


@dataclass
class Latch:
    """A sequential element: current-state literal, next-state literal, reset value."""

    literal: AigerLiteral
    next_literal: AigerLiteral = 0
    reset: int = 0
    name: str = ""


class AIG:
    """A mutable and-inverter graph with primary inputs, latches and outputs."""

    FALSE: AigerLiteral = 0
    TRUE: AigerLiteral = 1

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._next_index = 1  # index 0 is the constant node
        self.inputs: List[AigerLiteral] = []
        self.input_names: Dict[AigerLiteral, str] = {}
        self.latches: List[Latch] = []
        self.outputs: List[Tuple[str, AigerLiteral]] = []
        #: bad-state outputs (property violations), as in AIGER 1.9
        self.bad: List[Tuple[str, AigerLiteral]] = []
        #: invariant constraints, as in AIGER 1.9: every cycle of a trace
        #: must satisfy each of them
        self.constraints: List[AigerLiteral] = []
        # and gates: output literal -> (left literal, right literal)
        self.ands: Dict[AigerLiteral, Tuple[AigerLiteral, AigerLiteral]] = {}
        # structural hashing: (left, right) -> output literal
        self._strash: Dict[Tuple[AigerLiteral, AigerLiteral], AigerLiteral] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(self) -> AigerLiteral:
        literal = 2 * self._next_index
        self._next_index += 1
        return literal

    def add_input(self, name: str = "") -> AigerLiteral:
        """Add a primary input and return its positive literal."""
        literal = self._new_node()
        self.inputs.append(literal)
        if name:
            self.input_names[literal] = name
        return literal

    def add_latch(self, name: str = "", reset: int = 0) -> Latch:
        """Add a latch (its next-state literal is set later with :meth:`set_latch_next`)."""
        literal = self._new_node()
        latch = Latch(literal=literal, reset=reset, name=name)
        self.latches.append(latch)
        return latch

    def set_latch_next(self, latch: Latch, next_literal: AigerLiteral) -> None:
        """Define the next-state function of a latch."""
        latch.next_literal = next_literal

    def add_and(self, left: AigerLiteral, right: AigerLiteral) -> AigerLiteral:
        """Add (or reuse) an AND gate and return its output literal.

        Performs constant propagation and structural hashing, the standard
        lightweight simplifications of AIG packages.
        """
        if left > right:
            left, right = right, left
        # constant and trivial cases
        if left == self.FALSE or right == self.FALSE:
            return self.FALSE
        if left == self.TRUE:
            return right
        if right == self.TRUE:
            return left
        if left == right:
            return left
        if left == aig_negate(right):
            return self.FALSE
        cached = self._strash.get((left, right))
        if cached is not None:
            return cached
        output = self._new_node()
        self.ands[output] = (left, right)
        self._strash[(left, right)] = output
        return output

    # -- derived gates -----------------------------------------------------
    def add_or(self, left: AigerLiteral, right: AigerLiteral) -> AigerLiteral:
        return aig_negate(self.add_and(aig_negate(left), aig_negate(right)))

    def add_xor(self, left: AigerLiteral, right: AigerLiteral) -> AigerLiteral:
        return self.add_or(
            self.add_and(left, aig_negate(right)),
            self.add_and(aig_negate(left), right),
        )

    def add_xnor(self, left: AigerLiteral, right: AigerLiteral) -> AigerLiteral:
        return aig_negate(self.add_xor(left, right))

    def add_mux(self, sel: AigerLiteral, then_lit: AigerLiteral, else_lit: AigerLiteral) -> AigerLiteral:
        """Return ``sel ? then_lit : else_lit``."""
        return self.add_or(self.add_and(sel, then_lit), self.add_and(aig_negate(sel), else_lit))

    def add_and_list(self, literals: Iterable[AigerLiteral]) -> AigerLiteral:
        result = self.TRUE
        for literal in literals:
            result = self.add_and(result, literal)
        return result

    def add_or_list(self, literals: Iterable[AigerLiteral]) -> AigerLiteral:
        result = self.FALSE
        for literal in literals:
            result = self.add_or(result, literal)
        return result

    def add_output(self, name: str, literal: AigerLiteral) -> None:
        """Add a primary output."""
        self.outputs.append((name, literal))

    def add_bad(self, name: str, literal: AigerLiteral) -> None:
        """Add a bad-state (property violation) output."""
        self.bad.append((name, literal))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_ands(self) -> int:
        return len(self.ands)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_latches(self) -> int:
        return len(self.latches)

    @property
    def max_variable(self) -> int:
        return self._next_index - 1

    def stats(self) -> Dict[str, int]:
        """Return AIG size statistics."""
        return {
            "inputs": self.num_inputs,
            "latches": self.num_latches,
            "ands": self.num_ands,
            "outputs": len(self.outputs),
            "bad": len(self.bad),
        }

    # ------------------------------------------------------------------
    # evaluation (reference semantics, used in tests)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        input_values: Dict[AigerLiteral, bool],
        latch_values: Dict[AigerLiteral, bool],
    ) -> Dict[AigerLiteral, bool]:
        """Evaluate every node given input and latch values; returns node literal -> value."""
        values: Dict[AigerLiteral, bool] = {self.FALSE: False}
        for literal in self.inputs:
            values[literal] = bool(input_values.get(literal, False))
        for latch in self.latches:
            values[latch.literal] = bool(latch_values.get(latch.literal, False))
        # AND nodes were created in topological order (children exist before parents)
        for output, (left, right) in self.ands.items():
            values[output] = self._value_of(left, values) and self._value_of(right, values)
        return values

    def _value_of(self, literal: AigerLiteral, values: Dict[AigerLiteral, bool]) -> bool:
        base = values[literal & ~1]
        return not base if aig_is_negated(literal) else base

    def literal_value(self, literal: AigerLiteral, values: Dict[AigerLiteral, bool]) -> bool:
        """Look up a literal's value in an evaluation result."""
        if literal == self.FALSE:
            return False
        if literal == self.TRUE:
            return True
        return self._value_of(literal, values)

    def simulate(self, input_sequence: List[Dict[AigerLiteral, bool]]) -> List[Dict[str, bool]]:
        """Simulate the sequential AIG from the reset state; returns bad-output values per cycle."""
        latch_values = {latch.literal: bool(latch.reset) for latch in self.latches}
        results: List[Dict[str, bool]] = []
        for inputs in input_sequence:
            values = self.evaluate(inputs, latch_values)
            # bad entries last: a bad output and a plain output may share a
            # property's name, and the documented value is the *bad* one
            results.append(
                {name: self.literal_value(lit, values) for name, lit in self.outputs + self.bad}
            )
            latch_values = {
                latch.literal: self.literal_value(latch.next_literal, values)
                for latch in self.latches
            }
        return results
