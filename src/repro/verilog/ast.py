"""Abstract syntax tree for the supported Verilog subset.

The AST mirrors the source closely; widths, parameters and hierarchy are
resolved later by :mod:`repro.verilog.elaborate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class VExpr:
    """Base class of Verilog expression nodes."""


@dataclass
class ENumber(VExpr):
    """Integer literal, optionally with an explicit width (``8'hFF``)."""

    value: int
    width: Optional[int] = None


@dataclass
class EIdent(VExpr):
    """Reference to a named signal, parameter or genvar."""

    name: str


@dataclass
class EUnary(VExpr):
    """Unary operator application (``~a``, ``!a``, ``-a``, ``&a``, ...)."""

    op: str
    operand: VExpr


@dataclass
class EBinary(VExpr):
    """Binary operator application."""

    op: str
    left: VExpr
    right: VExpr


@dataclass
class ETernary(VExpr):
    """Conditional operator ``cond ? a : b``."""

    cond: VExpr
    then_value: VExpr
    else_value: VExpr


@dataclass
class EConcat(VExpr):
    """Concatenation ``{a, b, c}`` (first part is most significant)."""

    parts: List[VExpr]


@dataclass
class EReplicate(VExpr):
    """Replication ``{N{expr}}``."""

    count: VExpr
    value: VExpr


@dataclass
class EIndex(VExpr):
    """Bit-select or memory word select ``name[index]``."""

    base: VExpr
    index: VExpr


@dataclass
class ERange(VExpr):
    """Constant part-select ``name[msb:lsb]``."""

    base: VExpr
    msb: VExpr
    lsb: VExpr


@dataclass
class EFunctionCall(VExpr):
    """Call of a user function or of the supported system functions."""

    name: str
    args: List[VExpr]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class VStmt:
    """Base class of procedural statements."""


@dataclass
class SNull(VStmt):
    """Empty statement (a stray semicolon)."""


@dataclass
class SBlock(VStmt):
    """``begin ... end`` sequential block."""

    statements: List[VStmt] = field(default_factory=list)


@dataclass
class SAssign(VStmt):
    """Procedural assignment; ``blocking`` selects ``=`` vs ``<=``."""

    target: VExpr
    value: VExpr
    blocking: bool


@dataclass
class SIf(VStmt):
    """``if``/``else`` statement."""

    condition: VExpr
    then_branch: VStmt
    else_branch: Optional[VStmt] = None


@dataclass
class CaseItem:
    """One arm of a case statement; ``labels`` is None for ``default``."""

    labels: Optional[List[VExpr]]
    body: VStmt


@dataclass
class SCase(VStmt):
    """``case`` / ``casez`` statement."""

    subject: VExpr
    items: List[CaseItem]
    kind: str = "case"


@dataclass
class SFor(VStmt):
    """``for`` loop with constant bounds (unrolled during elaboration)."""

    init: SAssign
    condition: VExpr
    update: SAssign
    body: VStmt


@dataclass
class SSystemCall(VStmt):
    """A system task call such as ``$display`` (ignored by synthesis)."""

    name: str
    args: List[VExpr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# module items
# ---------------------------------------------------------------------------


class VItem:
    """Base class of module items."""


@dataclass
class Range:
    """A ``[msb:lsb]`` range declaration (expressions, resolved at elaboration)."""

    msb: VExpr
    lsb: VExpr


@dataclass
class PortDecl(VItem):
    """Port declaration (direction, optional range, optional ``reg``)."""

    direction: str  # 'input' | 'output' | 'inout'
    name: str
    range: Optional[Range] = None
    is_reg: bool = False
    signed: bool = False


@dataclass
class NetDecl(VItem):
    """``wire``/``reg``/``integer`` declaration (possibly a 1-D memory)."""

    kind: str  # 'wire' | 'reg' | 'integer'
    name: str
    range: Optional[Range] = None
    array: Optional[Range] = None
    signed: bool = False
    init: Optional[VExpr] = None


@dataclass
class ParamDecl(VItem):
    """``parameter`` or ``localparam`` declaration."""

    name: str
    value: VExpr
    local: bool = False


@dataclass
class ContAssign(VItem):
    """Continuous assignment ``assign lhs = rhs;``."""

    target: VExpr
    value: VExpr


@dataclass
class SensitivityItem:
    """One entry of a sensitivity list: ``posedge sig``, ``negedge sig`` or ``sig``."""

    edge: Optional[str]  # 'posedge' | 'negedge' | None
    signal: str


@dataclass
class AlwaysBlock(VItem):
    """``always @(...) stmt``; ``sensitivity`` is None for ``always @*``."""

    sensitivity: Optional[List[SensitivityItem]]
    body: VStmt


@dataclass
class InitialBlock(VItem):
    """``initial stmt`` — used for register initialisation."""

    body: VStmt


@dataclass
class PortConnection:
    """Port connection of an instance; ``name`` is None for positional style."""

    name: Optional[str]
    expr: Optional[VExpr]


@dataclass
class Instance(VItem):
    """Module instantiation."""

    module_name: str
    instance_name: str
    parameters: List[PortConnection] = field(default_factory=list)
    connections: List[PortConnection] = field(default_factory=list)


@dataclass
class AssertProperty(VItem):
    """SVA-style safety assertion ``label: assert property (@(posedge clk) expr);``,
    or with ``assume`` an environment assumption ``assume property (expr);``."""

    name: str
    expr: VExpr
    clock: Optional[str] = None
    assume: bool = False


@dataclass
class Module:
    """A Verilog module definition."""

    name: str
    port_order: List[str] = field(default_factory=list)
    items: List[VItem] = field(default_factory=list)

    def items_of_type(self, item_type) -> List[VItem]:
        """Return all items of a given AST class."""
        return [item for item in self.items if isinstance(item, item_type)]


@dataclass
class SourceUnit:
    """A parsed source file: an ordered collection of modules."""

    modules: Dict[str, Module] = field(default_factory=dict)

    def add(self, module: Module) -> None:
        self.modules[module.name] = module

    def module(self, name: str) -> Module:
        return self.modules[name]
