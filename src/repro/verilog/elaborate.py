"""Elaboration: parameter resolution, signal tables and hierarchy expansion.

Elaboration turns the parsed AST into a tree of :class:`ElaboratedInstance`
objects, one per module instance, with

* all parameters resolved to integer values (including ``#(...)`` overrides),
* a signal table giving the width, kind and direction of every declared
  signal (including 1-D memories),
* the procedural blocks, continuous assignments and assertions of the module
  carried over for the synthesizer.

The synthesizer (:mod:`repro.synth`) consumes this tree to build the flat
word-level transition system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.verilog import ast
from repro.verilog.lexer import VerilogSyntaxError


class ElaborationError(Exception):
    """Raised when a design cannot be elaborated."""


@dataclass
class Signal:
    """A declared signal with resolved geometry."""

    name: str
    width: int
    msb: int
    lsb: int
    kind: str  # 'wire' | 'reg' | 'integer'
    direction: Optional[str] = None  # 'input' | 'output' | 'inout' | None
    signed: bool = False
    array_size: Optional[int] = None  # number of words when the signal is a memory
    array_lo: int = 0
    init: Optional[int] = None

    @property
    def is_memory(self) -> bool:
        return self.array_size is not None

    def word_names(self) -> List[str]:
        """Scalarized word names for a memory signal."""
        if not self.is_memory:
            return [self.name]
        return [f"{self.name}__{index}" for index in range(self.array_size)]


@dataclass
class ChildInstance:
    """An instantiated sub-module with its resolved port map."""

    instance_name: str
    design: "ElaboratedInstance"
    port_map: Dict[str, Optional[ast.VExpr]] = field(default_factory=dict)


@dataclass
class ElaboratedInstance:
    """One elaborated module instance."""

    module_name: str
    instance_name: str
    path: str  # hierarchical path of this instance ('' for the top module)
    params: Dict[str, int] = field(default_factory=dict)
    signals: Dict[str, Signal] = field(default_factory=dict)
    assigns: List[ast.ContAssign] = field(default_factory=list)
    always_blocks: List[ast.AlwaysBlock] = field(default_factory=list)
    initial_blocks: List[ast.InitialBlock] = field(default_factory=list)
    assertions: List[ast.AssertProperty] = field(default_factory=list)
    children: List[ChildInstance] = field(default_factory=list)

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise ElaborationError(
                f"unknown signal {name!r} in module {self.module_name!r}"
            ) from None

    def inputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.direction == "input"]

    def outputs(self) -> List[Signal]:
        return [s for s in self.signals.values() if s.direction == "output"]

    def prefixed(self, name: str) -> str:
        """Return the flat hierarchical name of a local signal."""
        return f"{self.path}.{name}" if self.path else name


@dataclass
class ElaboratedDesign:
    """The full elaborated design: the instance tree rooted at the top module."""

    top: ElaboratedInstance
    source: ast.SourceUnit

    def all_instances(self) -> List[ElaboratedInstance]:
        """Return all instances in depth-first pre-order."""
        result: List[ElaboratedInstance] = []

        def walk(instance: ElaboratedInstance) -> None:
            result.append(instance)
            for child in instance.children:
                walk(child.design)

        walk(self.top)
        return result


# ---------------------------------------------------------------------------
# constant expression evaluation (parameters, ranges, replication counts)
# ---------------------------------------------------------------------------


def eval_const(expr: ast.VExpr, env: Dict[str, int]) -> int:
    """Evaluate a constant AST expression under a parameter environment."""
    if isinstance(expr, ast.ENumber):
        return expr.value
    if isinstance(expr, ast.EIdent):
        if expr.name in env:
            return env[expr.name]
        raise ElaborationError(f"non-constant identifier {expr.name!r} in constant expression")
    if isinstance(expr, ast.EUnary):
        value = eval_const(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(value == 0)
        raise ElaborationError(f"unsupported unary operator {expr.op!r} in constant expression")
    if isinstance(expr, ast.EBinary):
        left = eval_const(expr.left, env)
        right = eval_const(expr.right, env)
        operations = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left // right if right else 0,
            "%": lambda: left % right if right else 0,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "**": lambda: left**right,
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "<": lambda: int(left < right),
            "<=": lambda: int(left <= right),
            ">": lambda: int(left > right),
            ">=": lambda: int(left >= right),
            "&&": lambda: int(bool(left) and bool(right)),
            "||": lambda: int(bool(left) or bool(right)),
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
        }
        if expr.op not in operations:
            raise ElaborationError(f"unsupported operator {expr.op!r} in constant expression")
        return operations[expr.op]()
    if isinstance(expr, ast.ETernary):
        return (
            eval_const(expr.then_value, env)
            if eval_const(expr.cond, env)
            else eval_const(expr.else_value, env)
        )
    if isinstance(expr, ast.EFunctionCall) and expr.name == "$clog2":
        value = eval_const(expr.args[0], env)
        bits = 0
        value -= 1
        while value > 0:
            bits += 1
            value >>= 1
        return bits
    raise ElaborationError(f"unsupported constant expression {expr!r}")


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------


MAX_HIERARCHY_DEPTH = 64


def elaborate(
    source: ast.SourceUnit,
    top: Optional[str] = None,
    parameter_overrides: Optional[Dict[str, int]] = None,
) -> ElaboratedDesign:
    """Elaborate a parsed source unit.

    ``top`` defaults to the last module in the file (the usual convention for
    single-file benchmark designs).  ``parameter_overrides`` apply to the top
    module only.
    """
    if not source.modules:
        raise ElaborationError("no modules in source")
    if top is None:
        top = list(source.modules)[-1]
    if top not in source.modules:
        raise ElaborationError(f"top module {top!r} not found")
    instance = _elaborate_module(
        source,
        source.modules[top],
        instance_name=top,
        path="",
        overrides=parameter_overrides or {},
        depth=0,
    )
    return ElaboratedDesign(top=instance, source=source)


def _elaborate_module(
    source: ast.SourceUnit,
    module: ast.Module,
    instance_name: str,
    path: str,
    overrides: Dict[str, int],
    depth: int,
) -> ElaboratedInstance:
    if depth > MAX_HIERARCHY_DEPTH:
        raise ElaborationError("module hierarchy too deep (recursive instantiation?)")

    instance = ElaboratedInstance(
        module_name=module.name, instance_name=instance_name, path=path
    )

    # 1. resolve parameters in declaration order, applying overrides
    params: Dict[str, int] = {}
    for item in module.items_of_type(ast.ParamDecl):
        if not item.local and item.name in overrides:
            params[item.name] = overrides[item.name]
        else:
            params[item.name] = eval_const(item.value, params)
    instance.params = params

    # 2. build the signal table
    port_directions: Dict[str, str] = {}
    for item in module.items_of_type(ast.PortDecl):
        port_directions[item.name] = item.direction
        width, msb, lsb = _range_geometry(item.range, params)
        instance.signals[item.name] = Signal(
            name=item.name,
            width=width,
            msb=msb,
            lsb=lsb,
            kind="reg" if item.is_reg else "wire",
            direction=item.direction,
            signed=item.signed,
        )
    for item in module.items_of_type(ast.NetDecl):
        width, msb, lsb = _range_geometry(item.range, params)
        if item.kind == "integer":
            width, msb, lsb = 32, 31, 0
        array_size = None
        array_lo = 0
        if item.array is not None:
            bound_a = eval_const(item.array.msb, params)
            bound_b = eval_const(item.array.lsb, params)
            array_lo = min(bound_a, bound_b)
            array_size = abs(bound_a - bound_b) + 1
        init_value = eval_const(item.init, params) if item.init is not None else None
        existing = instance.signals.get(item.name)
        if existing is not None:
            # e.g. "output q;" followed by "reg q;" — merge the two declarations
            existing.kind = item.kind if item.kind != "wire" else existing.kind
            if item.range is not None:
                existing.width, existing.msb, existing.lsb = width, msb, lsb
            if init_value is not None:
                existing.init = init_value
            continue
        instance.signals[item.name] = Signal(
            name=item.name,
            width=width,
            msb=msb,
            lsb=lsb,
            kind=item.kind,
            direction=port_directions.get(item.name),
            signed=item.signed,
            array_size=array_size,
            array_lo=array_lo,
            init=init_value,
        )

    # ports named in the header but never declared default to 1-bit wires
    for port_name in module.port_order:
        if port_name not in instance.signals:
            instance.signals[port_name] = Signal(
                name=port_name, width=1, msb=0, lsb=0, kind="wire", direction="input"
            )

    # 3. carry over behavioural items
    instance.assigns = list(module.items_of_type(ast.ContAssign))
    instance.always_blocks = list(module.items_of_type(ast.AlwaysBlock))
    instance.initial_blocks = list(module.items_of_type(ast.InitialBlock))
    instance.assertions = list(module.items_of_type(ast.AssertProperty))

    # 4. elaborate child instances
    for item in module.items_of_type(ast.Instance):
        if item.module_name not in source.modules:
            raise ElaborationError(
                f"module {item.module_name!r} instantiated in {module.name!r} is not defined"
            )
        child_module = source.modules[item.module_name]
        child_overrides = _resolve_parameter_overrides(item, child_module, params)
        child_path = f"{path}.{item.instance_name}" if path else item.instance_name
        child = _elaborate_module(
            source,
            child_module,
            instance_name=item.instance_name,
            path=child_path,
            overrides=child_overrides,
            depth=depth + 1,
        )
        port_map = _resolve_port_map(item, child_module)
        instance.children.append(
            ChildInstance(instance_name=item.instance_name, design=child, port_map=port_map)
        )
    return instance


def _range_geometry(rng: Optional[ast.Range], params: Dict[str, int]):
    if rng is None:
        return 1, 0, 0
    msb = eval_const(rng.msb, params)
    lsb = eval_const(rng.lsb, params)
    width = abs(msb - lsb) + 1
    return width, msb, lsb


def _resolve_parameter_overrides(
    item: ast.Instance, child_module: ast.Module, parent_params: Dict[str, int]
) -> Dict[str, int]:
    """Turn ``#(...)`` overrides into a name -> value map for the child."""
    declared = [p.name for p in child_module.items_of_type(ast.ParamDecl) if not p.local]
    overrides: Dict[str, int] = {}
    positional_index = 0
    for connection in item.parameters:
        value = eval_const(connection.expr, parent_params) if connection.expr else 0
        if connection.name is not None:
            overrides[connection.name] = value
        else:
            if positional_index >= len(declared):
                raise ElaborationError(
                    f"too many positional parameters for {child_module.name!r}"
                )
            overrides[declared[positional_index]] = value
            positional_index += 1
    return overrides


def _resolve_port_map(
    item: ast.Instance, child_module: ast.Module
) -> Dict[str, Optional[ast.VExpr]]:
    """Return a map from child port name to the parent-side expression."""
    ports = child_module.port_order
    port_map: Dict[str, Optional[ast.VExpr]] = {}
    positional_index = 0
    for connection in item.connections:
        if connection.name is not None:
            if connection.name not in ports:
                raise ElaborationError(
                    f"module {child_module.name!r} has no port {connection.name!r}"
                )
            port_map[connection.name] = connection.expr
        else:
            if positional_index >= len(ports):
                raise ElaborationError(
                    f"too many positional connections for {child_module.name!r}"
                )
            port_map[ports[positional_index]] = connection.expr
            positional_index += 1
    return port_map
