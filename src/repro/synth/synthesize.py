"""RTL-to-transition-system synthesis.

The synthesizer consumes an elaborated design (see
:mod:`repro.verilog.elaborate`) and produces the flat word-level
:class:`repro.netlist.TransitionSystem` that all downstream flows share:

* each register assigned in a clocked ``always`` block becomes a state
  variable whose next-state function is obtained by symbolic execution of the
  block (respecting blocking/non-blocking assignment order),
* combinational ``always`` blocks and continuous assignments become wires,
* module boundaries become wire aliases for the port connections, with
  hierarchical dotted names (``fifo.head``) preserving the structure,
* 1-D memories are scalarized into one register (or wire) per word,
* SVA ``assert property`` items become safety properties, and ``assume
  property`` items environment constraints.

Designs with combinational loops, transparent latches (incompletely assigned
combinational signals) or multiple clocks are rejected, which matches the
limitations of v2c stated in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exprs import (
    Expr,
    bv_and,
    bv_const,
    bv_eq,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_not,
    bv_or,
    bv_resize,
    bv_shl,
    bv_var,
    bv_zero_extend,
    collect_vars,
    constant_fold,
    simplify,
)
from repro.exprs.nodes import Const
from repro.netlist import TransitionSystem
from repro.synth.expr_convert import (
    ConversionError,
    Scope,
    coerce_to,
    convert,
    convert_condition,
)
from repro.verilog import ast
from repro.verilog.elaborate import (
    ElaboratedDesign,
    ElaboratedInstance,
    ElaborationError,
    Signal,
    elaborate,
)
from repro.verilog.parser import parse_source


class SynthesisError(Exception):
    """Raised when a design cannot be synthesized into a transition system."""


#: names conventionally recognised as clocks even without an edge use
_CLOCK_NAME_HINTS = {"clk", "clock", "clk_i", "i_clk"}

#: maximum number of iterations when unrolling procedural for loops
MAX_LOOP_UNROLL = 4096


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def synthesize_source(
    text: str,
    top: Optional[str] = None,
    parameter_overrides: Optional[Dict[str, int]] = None,
    name: Optional[str] = None,
) -> TransitionSystem:
    """Parse, elaborate and synthesize Verilog source text."""
    design = elaborate(parse_source(text), top=top, parameter_overrides=parameter_overrides)
    return synthesize(design, name=name)


def synthesize_file(
    path: str,
    top: Optional[str] = None,
    parameter_overrides: Optional[Dict[str, int]] = None,
) -> TransitionSystem:
    """Synthesize a Verilog file."""
    with open(path, "r", encoding="utf-8") as handle:
        return synthesize_source(handle.read(), top=top, parameter_overrides=parameter_overrides)


def synthesize(design: ElaboratedDesign, name: Optional[str] = None) -> TransitionSystem:
    """Synthesize an elaborated design into a transition system."""
    builder = _Synthesizer(design)
    system = builder.run()
    if name:
        system.name = name
    return system


# ---------------------------------------------------------------------------
# symbolic execution of procedural blocks
# ---------------------------------------------------------------------------


@dataclass
class _ProcState:
    """Mutable state of the symbolic executor for one procedural block."""

    reader: Dict[str, Expr] = field(default_factory=dict)  # blocking view
    nonblocking: Dict[str, Expr] = field(default_factory=dict)
    assigned: Set[str] = field(default_factory=set)

    def copy(self) -> "_ProcState":
        return _ProcState(dict(self.reader), dict(self.nonblocking), set(self.assigned))


class _ProcExecutor:
    """Symbolically executes one always/initial block of one instance."""

    def __init__(self, instance: ElaboratedInstance, clocked: bool) -> None:
        self.instance = instance
        self.clocked = clocked

    # -- helpers ---------------------------------------------------------
    def _flat(self, word: str) -> str:
        return self.instance.prefixed(word)

    def _hold_value(self, word: str, width: int) -> Expr:
        return bv_var(self._flat(word), width)

    def _scope(self, state: _ProcState) -> Scope:
        return Scope(self.instance, state.reader)

    def _word_width(self, word: str) -> int:
        if word in self.instance.signals:
            return self.instance.signals[word].width
        # scalarized memory word: strip the trailing "__<index>" suffix
        base = word.rsplit("__", 1)[0]
        return self.instance.signal(base).width

    # -- execution ---------------------------------------------------------
    def execute(self, body: ast.VStmt) -> _ProcState:
        state = _ProcState()
        self._exec(body, state)
        return state

    def _exec(self, stmt: ast.VStmt, state: _ProcState) -> None:
        if isinstance(stmt, ast.SNull) or isinstance(stmt, ast.SSystemCall):
            return
        if isinstance(stmt, ast.SBlock):
            for inner in stmt.statements:
                self._exec(inner, state)
            return
        if isinstance(stmt, ast.SAssign):
            self._exec_assign(stmt, state)
            return
        if isinstance(stmt, ast.SIf):
            self._exec_if(stmt, state)
            return
        if isinstance(stmt, ast.SCase):
            self._exec(self._desugar_case(stmt), state)
            return
        if isinstance(stmt, ast.SFor):
            self._exec_for(stmt, state)
            return
        raise SynthesisError(f"unsupported statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.SFor, state: _ProcState) -> None:
        self._exec_assign(stmt.init, state)
        for _ in range(MAX_LOOP_UNROLL):
            condition = constant_fold(
                simplify(convert_condition(stmt.condition, self._scope(state)))
            )
            if not isinstance(condition, Const):
                raise SynthesisError(
                    "for-loop condition does not reduce to a constant during unrolling"
                )
            if condition.value == 0:
                return
            self._exec(stmt.body, state)
            self._exec_assign(stmt.update, state)
        raise SynthesisError(f"for-loop exceeded {MAX_LOOP_UNROLL} iterations")

    def _exec_if(self, stmt: ast.SIf, state: _ProcState) -> None:
        condition = simplify(convert_condition(stmt.condition, self._scope(state)))
        if isinstance(condition, Const):
            branch = stmt.then_branch if condition.value else stmt.else_branch
            if branch is not None:
                self._exec(branch, state)
            return
        then_state = state.copy()
        else_state = state.copy()
        self._exec(stmt.then_branch, then_state)
        if stmt.else_branch is not None:
            self._exec(stmt.else_branch, else_state)
        self._merge(condition, then_state, else_state, state)

    def _merge(
        self,
        condition: Expr,
        then_state: _ProcState,
        else_state: _ProcState,
        state: _ProcState,
    ) -> None:
        # blocking view
        for word in set(then_state.reader) | set(else_state.reader):
            width = self._word_width(word)
            base = state.reader.get(word, self._hold_value(word, width))
            then_value = then_state.reader.get(word, base)
            else_value = else_state.reader.get(word, base)
            if then_value == else_value:
                state.reader[word] = then_value
            else:
                state.reader[word] = bv_ite(condition, then_value, else_value)
        # non-blocking view: default is the pending value, else the register itself
        for word in set(then_state.nonblocking) | set(else_state.nonblocking):
            width = self._word_width(word)
            base = state.nonblocking.get(word, self._hold_value(word, width))
            then_value = then_state.nonblocking.get(word, base)
            else_value = else_state.nonblocking.get(word, base)
            if then_value == else_value:
                state.nonblocking[word] = then_value
            else:
                state.nonblocking[word] = bv_ite(condition, then_value, else_value)
        state.assigned |= then_state.assigned | else_state.assigned

    def _desugar_case(self, stmt: ast.SCase) -> ast.VStmt:
        """Lower a case statement into an if/else chain (priority semantics)."""
        default_body: ast.VStmt = ast.SNull()
        arms: List[Tuple[List[ast.VExpr], ast.VStmt]] = []
        for item in stmt.items:
            if item.labels is None:
                default_body = item.body
            else:
                arms.append((item.labels, item.body))
        result: ast.VStmt = default_body
        for labels, body in reversed(arms):
            condition: Optional[ast.VExpr] = None
            for label in labels:
                comparison = ast.EBinary(op="==", left=stmt.subject, right=label)
                condition = (
                    comparison
                    if condition is None
                    else ast.EBinary(op="||", left=condition, right=comparison)
                )
            result = ast.SIf(condition=condition, then_branch=body, else_branch=result)
        return result

    # -- assignments ---------------------------------------------------------
    def _exec_assign(self, stmt: ast.SAssign, state: _ProcState) -> None:
        scope = self._scope(state)
        value = convert(stmt.value, scope)
        self._assign_target(stmt.target, value, stmt.blocking, state)

    def _assign_target(
        self, target: ast.VExpr, value: Expr, blocking: bool, state: _ProcState
    ) -> None:
        if isinstance(target, ast.EIdent):
            self._assign_word_target(target.name, value, blocking, state)
            return
        if isinstance(target, ast.EConcat):
            self._assign_concat(target, value, blocking, state)
            return
        if isinstance(target, ast.EIndex) and isinstance(target.base, ast.EIdent):
            self._assign_indexed(target, value, blocking, state)
            return
        if isinstance(target, ast.ERange) and isinstance(target.base, ast.EIdent):
            self._assign_range(target, value, blocking, state)
            return
        raise SynthesisError(f"unsupported assignment target {target!r}")

    def _assign_concat(
        self, target: ast.EConcat, value: Expr, blocking: bool, state: _ProcState
    ) -> None:
        widths = []
        for part in target.parts:
            widths.append(self._target_width(part))
        total = sum(widths)
        value = coerce_to(value, total)
        # first part is the most significant
        position = total
        for part, width in zip(target.parts, widths):
            position -= width
            piece = bv_extract(value, position + width - 1, position)
            self._assign_target(part, piece, blocking, state)

    def _target_width(self, target: ast.VExpr) -> int:
        if isinstance(target, ast.EIdent):
            return self.instance.signal(target.name).width
        if isinstance(target, ast.EIndex):
            return 1
        if isinstance(target, ast.ERange) and isinstance(target.base, ast.EIdent):
            scope = Scope(self.instance)
            from repro.synth.expr_convert import _const_value  # local import to avoid cycle

            msb = _const_value(target.msb, scope)
            lsb = _const_value(target.lsb, scope)
            return abs(msb - lsb) + 1
        raise SynthesisError(f"unsupported concat target part {target!r}")

    def _assign_word_target(
        self, name: str, value: Expr, blocking: bool, state: _ProcState
    ) -> None:
        signal = self.instance.signal(name)
        if signal.is_memory:
            raise SynthesisError(f"memory {name!r} must be assigned through an index")
        self._store(name, coerce_to(value, signal.width), blocking, state)

    def _assign_indexed(
        self, target: ast.EIndex, value: Expr, blocking: bool, state: _ProcState
    ) -> None:
        name = target.base.name
        signal = self.instance.signal(name)
        scope = self._scope(state)
        index = convert(target.index, scope)
        index_const = constant_fold(simplify(index))
        if signal.is_memory:
            value = coerce_to(value, signal.width)
            words = signal.word_names()
            if isinstance(index_const, Const):
                offset = index_const.value - signal.array_lo
                if not 0 <= offset < signal.array_size:
                    raise SynthesisError(
                        f"memory index {index_const.value} out of range for {name!r}"
                    )
                self._store(words[offset], value, blocking, state)
                return
            for offset, word in enumerate(words):
                address = bv_const(offset + signal.array_lo, index.width)
                old = self._current_value(word, signal.width, blocking, state)
                self._store(
                    word, bv_ite(bv_eq(index, address), value, old), blocking, state
                )
            return
        # bit-select on a scalar signal: read-modify-write
        old = self._current_value(name, signal.width, blocking, state)
        bit = coerce_to(value, 1)
        if isinstance(index_const, Const):
            position = (
                index_const.value - signal.lsb
                if signal.msb >= signal.lsb
                else signal.lsb - index_const.value
            )
            if not 0 <= position < signal.width:
                raise SynthesisError(f"bit index out of range in assignment to {name!r}")
            mask = bv_const(((1 << signal.width) - 1) ^ (1 << position), signal.width)
            update = bv_shl(
                coerce_to(bit, signal.width), bv_const(position, signal.width)
            )
        else:
            shift = coerce_to(index, signal.width)
            mask = bv_not(bv_shl(bv_const(1, signal.width), shift))
            update = bv_shl(coerce_to(bit, signal.width), shift)
        new_value = bv_or(bv_and(old, mask), update)
        self._store(name, new_value, blocking, state)

    def _assign_range(
        self, target: ast.ERange, value: Expr, blocking: bool, state: _ProcState
    ) -> None:
        name = target.base.name
        signal = self.instance.signal(name)
        scope = self._scope(state)
        from repro.synth.expr_convert import _const_value

        msb = _const_value(target.msb, scope)
        lsb = _const_value(target.lsb, scope)
        if signal.msb >= signal.lsb:
            hi = msb - signal.lsb
            lo = lsb - signal.lsb
        else:
            hi = signal.lsb - lsb
            lo = signal.lsb - msb
        if not (0 <= lo <= hi < signal.width):
            raise SynthesisError(f"part-select out of range in assignment to {name!r}")
        width = hi - lo + 1
        old = self._current_value(name, signal.width, blocking, state)
        piece = coerce_to(value, width)
        mask_value = ((1 << signal.width) - 1) ^ (((1 << width) - 1) << lo)
        mask = bv_const(mask_value, signal.width)
        update = bv_shl(
            coerce_to(piece, signal.width), bv_const(lo, signal.width)
        )
        new_value = bv_or(bv_and(old, mask), update)
        self._store(name, new_value, blocking, state)

    def _current_value(
        self, word: str, width: int, blocking: bool, state: _ProcState
    ) -> Expr:
        if not blocking and word in state.nonblocking:
            return state.nonblocking[word]
        if word in state.reader:
            return state.reader[word]
        return self._hold_value(word, width)

    def _store(self, word: str, value: Expr, blocking: bool, state: _ProcState) -> None:
        value = simplify(value)
        if blocking:
            state.reader[word] = value
        else:
            state.nonblocking[word] = value
        state.assigned.add(word)


# ---------------------------------------------------------------------------
# the synthesizer
# ---------------------------------------------------------------------------


class _Synthesizer:
    """Builds the flat transition system from an elaborated design."""

    def __init__(self, design: ElaboratedDesign) -> None:
        self.design = design
        self.register_next: Dict[str, Expr] = {}
        self.register_width: Dict[str, int] = {}
        self.register_init: Dict[str, int] = {}
        self.wire_defs: Dict[str, Expr] = {}
        self.wire_width: Dict[str, int] = {}
        self.properties: List[Tuple[str, Expr]] = []
        self.constraints: List[Expr] = []
        self.clock_nets: Set[str] = set()
        self.declared: Dict[str, int] = {}  # flat name -> width for every word

    # -- top-level -------------------------------------------------------
    def run(self) -> TransitionSystem:
        self._collect_clocks()
        for instance in self.design.all_instances():
            self._declare_words(instance)
        for instance in self.design.all_instances():
            try:
                self._process_instance(instance)
            except (ConversionError, ElaborationError) as error:
                raise SynthesisError(
                    f"in module {instance.module_name} ({instance.path or 'top'}): {error}"
                ) from error
        return self._build_system()

    # -- clock identification -----------------------------------------------
    def _collect_clocks(self) -> None:
        """Find clock nets: signals used with an edge in any sensitivity list.

        Clock nets are traced through simple identifier port connections so
        that the top-level clock input is recognised as a clock even though
        the edge use happens inside a child instance.
        """
        parents: Dict[str, str] = {}

        def find(name: str) -> str:
            root = name
            while parents.get(root, root) != root:
                root = parents[root]
            parents[name] = root
            return root

        def union(a: str, b: str) -> None:
            parents[find(a)] = find(b)

        edge_signals: Set[str] = set()
        for instance in self.design.all_instances():
            for block in instance.always_blocks:
                if not block.sensitivity:
                    continue
                for item in block.sensitivity:
                    if item.edge is not None:
                        edge_signals.add(instance.prefixed(item.signal))
            for child in instance.children:
                for port, expr in child.port_map.items():
                    if isinstance(expr, ast.EIdent) and expr.name in instance.signals:
                        union(
                            child.design.prefixed(port),
                            instance.prefixed(expr.name),
                        )
        # union-find closure: mark every net connected to an edge signal
        edge_roots = {find(sig) for sig in edge_signals}
        all_names = set(parents) | edge_signals
        self.clock_nets = {name for name in all_names if find(name) in edge_roots}
        self.clock_nets |= edge_signals
        # conventional clock names on the top module are treated as clocks too
        for signal in self.design.top.signals.values():
            if signal.direction == "input" and signal.name.lower() in _CLOCK_NAME_HINTS:
                self.clock_nets.add(self.design.top.prefixed(signal.name))

    def _is_clock(self, flat_name: str) -> bool:
        return flat_name in self.clock_nets

    # -- declarations ------------------------------------------------------
    def _declare_words(self, instance: ElaboratedInstance) -> None:
        for signal in instance.signals.values():
            for word in signal.word_names():
                self.declared[instance.prefixed(word)] = signal.width

    # -- per-instance processing ---------------------------------------------
    def _process_instance(self, instance: ElaboratedInstance) -> None:
        self._process_always_blocks(instance)
        self._process_continuous_assigns(instance)
        self._process_initial_blocks(instance)
        self._process_child_connections(instance)
        self._process_assertions(instance)
        self._apply_declared_inits(instance)

    def _block_is_clocked(self, block: ast.AlwaysBlock) -> bool:
        if not block.sensitivity:
            return False
        return any(item.edge is not None for item in block.sensitivity)

    def _process_always_blocks(self, instance: ElaboratedInstance) -> None:
        clocks_in_instance: Set[str] = set()
        for block in instance.always_blocks:
            if self._block_is_clocked(block):
                for item in block.sensitivity:
                    if item.edge is not None:
                        clocks_in_instance.add(item.signal)
        for block in instance.always_blocks:
            executor = _ProcExecutor(instance, clocked=self._block_is_clocked(block))
            state = executor.execute(block.body)
            if self._block_is_clocked(block):
                self._commit_clocked(instance, state)
            else:
                self._commit_combinational(instance, state)

    def _commit_clocked(self, instance: ElaboratedInstance, state: _ProcState) -> None:
        # non-blocking assignments take priority for the registered value;
        # blocking-assigned registers use their final blocking value.
        next_values: Dict[str, Expr] = {}
        for word in state.assigned:
            if word in state.nonblocking:
                next_values[word] = state.nonblocking[word]
            elif word in state.reader:
                next_values[word] = state.reader[word]
        for word, expr in next_values.items():
            flat = instance.prefixed(word)
            if self._is_clock(flat):
                continue
            if flat in self.register_next:
                raise SynthesisError(
                    f"register {flat!r} is assigned in more than one clocked block"
                )
            if flat in self.wire_defs:
                raise SynthesisError(
                    f"signal {flat!r} is driven both combinationally and by a clocked block"
                )
            width = self.declared[flat]
            self.register_next[flat] = simplify(coerce_to(expr, width))
            self.register_width[flat] = width

    def _commit_combinational(self, instance: ElaboratedInstance, state: _ProcState) -> None:
        final: Dict[str, Expr] = {}
        final.update(state.reader)
        final.update(state.nonblocking)
        for word, expr in final.items():
            flat = instance.prefixed(word)
            if self._is_clock(flat):
                continue
            width = self.declared[flat]
            definition = simplify(coerce_to(expr, width))
            self._check_no_self_reference(flat, definition)
            self._add_wire(flat, definition, width)

    def _check_no_self_reference(self, flat: str, definition: Expr) -> None:
        if any(var.name == flat for var in collect_vars(definition)):
            raise SynthesisError(
                f"combinational signal {flat!r} depends on itself "
                "(incomplete assignment infers a latch, which is not supported)"
            )

    def _add_wire(self, flat: str, definition: Expr, width: int) -> None:
        if flat in self.wire_defs:
            raise SynthesisError(f"signal {flat!r} has multiple combinational drivers")
        if flat in self.register_next:
            raise SynthesisError(
                f"signal {flat!r} is driven both combinationally and by a clocked block"
            )
        self.wire_defs[flat] = definition
        self.wire_width[flat] = width

    def _process_continuous_assigns(self, instance: ElaboratedInstance) -> None:
        scope = Scope(instance)
        for item in instance.assigns:
            if not isinstance(item.target, ast.EIdent):
                raise SynthesisError(
                    f"continuous assignment to {item.target!r} is not supported "
                    "(only whole-signal targets)"
                )
            name = item.target.name
            signal = instance.signal(name)
            if signal.is_memory:
                raise SynthesisError(f"continuous assignment to memory {name!r}")
            definition = simplify(coerce_to(convert(item.value, scope), signal.width))
            flat = instance.prefixed(name)
            self._check_no_self_reference(flat, definition)
            self._add_wire(flat, definition, signal.width)

    def _process_initial_blocks(self, instance: ElaboratedInstance) -> None:
        for block in instance.initial_blocks:
            executor = _ProcExecutor(instance, clocked=True)
            state = executor.execute(block.body)
            merged: Dict[str, Expr] = {}
            merged.update(state.reader)
            merged.update(state.nonblocking)
            for word, expr in merged.items():
                folded = constant_fold(simplify(expr))
                if not isinstance(folded, Const):
                    raise SynthesisError(
                        f"initial value of {word!r} does not reduce to a constant"
                    )
                self.register_init[instance.prefixed(word)] = folded.value

    def _apply_declared_inits(self, instance: ElaboratedInstance) -> None:
        for signal in instance.signals.values():
            if signal.init is None:
                continue
            for word in signal.word_names():
                self.register_init.setdefault(instance.prefixed(word), signal.init)

    def _process_child_connections(self, instance: ElaboratedInstance) -> None:
        scope = Scope(instance)
        for child in instance.children:
            child_instance = child.design
            for port, expr in child.port_map.items():
                if expr is None:
                    continue
                signal = child_instance.signal(port)
                flat_port = child_instance.prefixed(port)
                if signal.direction == "input":
                    if self._is_clock(flat_port):
                        continue
                    definition = simplify(coerce_to(convert(expr, scope), signal.width))
                    self._add_wire(flat_port, definition, signal.width)
                elif signal.direction == "output":
                    if not isinstance(expr, ast.EIdent):
                        raise SynthesisError(
                            f"output port {port!r} of {child.instance_name!r} must be "
                            "connected to a simple signal"
                        )
                    parent_signal = instance.signal(expr.name)
                    flat_parent = instance.prefixed(expr.name)
                    definition = coerce_to(
                        bv_var(flat_port, signal.width), parent_signal.width
                    )
                    self._add_wire(flat_parent, definition, parent_signal.width)
                else:
                    raise SynthesisError("inout ports are not supported")

    def _process_assertions(self, instance: ElaboratedInstance) -> None:
        scope = Scope(instance)
        for assertion in instance.assertions:
            expr = convert_condition(assertion.expr, scope)
            if assertion.assume:
                self.constraints.append(simplify(expr))
                continue
            name = (
                f"{instance.path}.{assertion.name}" if instance.path else assertion.name
            )
            self.properties.append((name, simplify(expr)))

    # -- final assembly -------------------------------------------------------
    def _build_system(self) -> TransitionSystem:
        top = self.design.top
        system = TransitionSystem(top.module_name)
        system.source = top.module_name

        top_inputs = {
            top.prefixed(signal.name)
            for signal in top.signals.values()
            if signal.direction == "input"
        }

        # classify every declared word
        for flat, width in self.declared.items():
            if self._is_clock(flat):
                continue
            if flat in self.register_next:
                init = self.register_init.get(flat, 0)
                system.add_state_var(flat, width, init=init, next_expr=self.register_next[flat])
            elif flat in self.wire_defs:
                system.add_wire(flat, self.wire_defs[flat])
            elif flat in top_inputs:
                system.add_input(flat, width)
            else:
                # undriven signal (e.g. unconnected child input): free input
                system.add_input(flat, width)

        for name, expr in self.properties:
            system.add_property(name, expr)
        for expr in self.constraints:
            system.add_constraint(expr)

        system.validate()
        return system
