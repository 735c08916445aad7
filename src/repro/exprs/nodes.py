"""Expression node classes and smart constructors.

The IR is a small fixed-width bit-vector language.  Every expression has a
bit-width (``width``); the 1-bit width doubles as the Boolean sort.  Nodes are
immutable and hashable so they can be shared, cached and used as dictionary
keys throughout the tool flow.

Operator set
------------

========== ================================ =========================
kind       operators                         result width
========== ================================ =========================
bitwise    not, and, or, xor, xnor, nand,    width of operands
           nor
arithmetic neg, add, sub, mul, udiv, urem    width of operands
shifts     shl, lshr, ashr                   width of first operand
compare    eq, ne, ult, ule, ugt, uge,       1
           slt, sle, sgt, sge
reduction  redand, redor, redxor             1
structure  concat, extract, zext, sext, ite  as constructed
========== ================================ =========================

All arithmetic is modular in the operand width.  Signed comparisons interpret
operands in two's complement.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union


# ---------------------------------------------------------------------------
# helper arithmetic on Python ints
# ---------------------------------------------------------------------------


def mask(width: int) -> int:
    """Return the all-ones bit mask for ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return (1 << width) - 1


def to_unsigned(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits, interpreted as unsigned."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as a two's-complement int."""
    value = value & mask(width)
    if value >= (1 << (width - 1)) and width > 0:
        return value - (1 << width)
    return value


# ---------------------------------------------------------------------------
# node classes
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all expression nodes.

    Subclasses are :class:`Const`, :class:`Var` and :class:`Op`.  Instances
    are immutable; convenience Python operators build new nodes (``a + b`` is
    ``bv_add(a, b)``, ``a & b`` is ``bv_and(a, b)``, ...).
    """

    __slots__ = ("width", "_hash")

    width: int

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"expression width must be positive, got {width}")
        object.__setattr__(self, "width", width)

    # immutability ---------------------------------------------------------
    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Expr nodes are immutable")

    # operator sugar ---------------------------------------------------------
    def __add__(self, other: "ExprLike") -> "Expr":
        return bv_add(self, coerce(other, self.width))

    def __sub__(self, other: "ExprLike") -> "Expr":
        return bv_sub(self, coerce(other, self.width))

    def __mul__(self, other: "ExprLike") -> "Expr":
        return bv_mul(self, coerce(other, self.width))

    def __and__(self, other: "ExprLike") -> "Expr":
        return bv_and(self, coerce(other, self.width))

    def __or__(self, other: "ExprLike") -> "Expr":
        return bv_or(self, coerce(other, self.width))

    def __xor__(self, other: "ExprLike") -> "Expr":
        return bv_xor(self, coerce(other, self.width))

    def __invert__(self) -> "Expr":
        return bv_not(self)

    def __neg__(self) -> "Expr":
        return bv_neg(self)

    def __lshift__(self, other: "ExprLike") -> "Expr":
        return bv_shl(self, coerce(other, self.width))

    def __rshift__(self, other: "ExprLike") -> "Expr":
        return bv_lshr(self, coerce(other, self.width))

    def eq(self, other: "ExprLike") -> "Expr":
        """Equality comparison, returning a 1-bit expression."""
        return bv_eq(self, coerce(other, self.width))

    def ne(self, other: "ExprLike") -> "Expr":
        """Disequality comparison, returning a 1-bit expression."""
        return bv_ne(self, coerce(other, self.width))

    def ult(self, other: "ExprLike") -> "Expr":
        return bv_ult(self, coerce(other, self.width))

    def ule(self, other: "ExprLike") -> "Expr":
        return bv_ule(self, coerce(other, self.width))

    def ugt(self, other: "ExprLike") -> "Expr":
        return bv_ugt(self, coerce(other, self.width))

    def uge(self, other: "ExprLike") -> "Expr":
        return bv_uge(self, coerce(other, self.width))

    def extract(self, hi: int, lo: int) -> "Expr":
        """Extract bit slice ``[hi:lo]`` (inclusive) as in Verilog part-select."""
        return bv_extract(self, hi, lo)

    def bit(self, index: int) -> "Expr":
        """Extract a single bit as a 1-bit expression."""
        return bv_extract(self, index, index)

    def children(self) -> Tuple["Expr", ...]:
        """Return the child expressions (empty for leaves)."""
        return ()

    def is_const(self, value: int | None = None) -> bool:
        """Return True if this node is a constant (optionally of a given value)."""
        return False


class Const(Expr):
    """Bit-vector constant of a fixed width."""

    __slots__ = ("value",)

    def __init__(self, value: int, width: int):
        super().__init__(width)
        object.__setattr__(self, "value", to_unsigned(int(value), width))
        object.__setattr__(self, "_hash", hash(("const", self.value, width)))

    def __repr__(self) -> str:
        return f"{self.width}'d{self.value}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Const)
            and other.value == self.value
            and other.width == self.width
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # slots + the defensive __setattr__ break default pickling; rebuild
        # through the constructor instead (certificates cross process
        # boundaries in the portfolio)
        return (Const, (self.value, self.width))

    def is_const(self, value: int | None = None) -> bool:
        return value is None or self.value == value


class Var(Expr):
    """Named bit-vector variable (a wire, register or input signal)."""

    __slots__ = ("name",)

    def __init__(self, name: str, width: int):
        super().__init__(width)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name, width)))

    def __repr__(self) -> str:
        return f"{self.name}[{self.width}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Var)
            and other.name == self.name
            and other.width == self.width
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Var, (self.name, self.width))


class Op(Expr):
    """Operator application node.

    ``op`` is one of the strings in :data:`BV_OPS`; ``args`` are the child
    expressions and ``params`` carries integer parameters (the ``hi``/``lo``
    bounds of an extract, the extension amount of zext/sext).
    """

    __slots__ = ("op", "args", "params")

    def __init__(self, op: str, args: Iterable[Expr], width: int, params: Tuple[int, ...] = ()):
        super().__init__(width)
        args = tuple(args)
        if op not in BV_OPS:
            raise ValueError(f"unknown operator {op!r}")
        for arg in args:
            if not isinstance(arg, Expr):
                raise TypeError(f"operator argument must be Expr, got {type(arg)!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "_hash", hash((op, args, width, self.params)))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        if self.params:
            inner += ", " + ", ".join(str(p) for p in self.params)
        return f"{self.op}({inner})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Op)
            and other.op == self.op
            and other.width == self.width
            and other.params == self.params
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Op, (self.op, self.args, self.width, self.params))

    def children(self) -> Tuple[Expr, ...]:
        return self.args


ExprLike = Union[Expr, int, bool]

#: The set of all operator names accepted by :class:`Op`.
BV_OPS = frozenset(
    {
        # bitwise
        "not",
        "and",
        "or",
        "xor",
        "xnor",
        "nand",
        "nor",
        # arithmetic
        "neg",
        "add",
        "sub",
        "mul",
        "udiv",
        "urem",
        # shifts
        "shl",
        "lshr",
        "ashr",
        # comparisons (result width 1)
        "eq",
        "ne",
        "ult",
        "ule",
        "ugt",
        "uge",
        "slt",
        "sle",
        "sgt",
        "sge",
        # reductions (result width 1)
        "redand",
        "redor",
        "redxor",
        # structural
        "concat",
        "extract",
        "zext",
        "sext",
        "ite",
    }
)

#: Boolean sort width.
BOOL = 1

#: The constant true / false 1-bit expressions.
TRUE = Const(1, 1)
FALSE = Const(0, 1)


def coerce(value: ExprLike, width: int) -> Expr:
    """Coerce a Python int/bool to a constant of ``width``; pass Exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value), width)
    if isinstance(value, int):
        return Const(value, width)
    raise TypeError(f"cannot coerce {value!r} to an expression")


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def bv_const(value: int, width: int) -> Const:
    """Build a constant of the given value and width."""
    return Const(value, width)


def bv_var(name: str, width: int) -> Var:
    """Build a named variable of the given width."""
    return Var(name, width)


def _require_same_width(a: Expr, b: Expr, op: str) -> None:
    if a.width != b.width:
        raise ValueError(f"{op}: operand widths differ ({a.width} vs {b.width})")


def _binary(op: str, a: Expr, b: Expr, width: int | None = None) -> Expr:
    _require_same_width(a, b, op)
    return Op(op, (a, b), width if width is not None else a.width)


def bv_not(a: Expr) -> Expr:
    """Bitwise complement."""
    return Op("not", (a,), a.width)


def bv_neg(a: Expr) -> Expr:
    """Two's-complement negation."""
    return Op("neg", (a,), a.width)


def bv_and(a: Expr, b: Expr) -> Expr:
    return _binary("and", a, b)


def bv_or(a: Expr, b: Expr) -> Expr:
    return _binary("or", a, b)


def bv_xor(a: Expr, b: Expr) -> Expr:
    return _binary("xor", a, b)


def bv_xnor(a: Expr, b: Expr) -> Expr:
    return _binary("xnor", a, b)


def bv_nand(a: Expr, b: Expr) -> Expr:
    return _binary("nand", a, b)


def bv_nor(a: Expr, b: Expr) -> Expr:
    return _binary("nor", a, b)


def bv_add(a: Expr, b: Expr) -> Expr:
    return _binary("add", a, b)


def bv_sub(a: Expr, b: Expr) -> Expr:
    return _binary("sub", a, b)


def bv_mul(a: Expr, b: Expr) -> Expr:
    return _binary("mul", a, b)


def bv_udiv(a: Expr, b: Expr) -> Expr:
    """Unsigned division; division by zero yields the all-ones vector."""
    return _binary("udiv", a, b)


def bv_urem(a: Expr, b: Expr) -> Expr:
    """Unsigned remainder; remainder by zero yields the dividend."""
    return _binary("urem", a, b)


def bv_shl(a: Expr, b: Expr) -> Expr:
    """Logical shift left; shift amounts >= width yield zero."""
    return Op("shl", (a, b), a.width)


def bv_lshr(a: Expr, b: Expr) -> Expr:
    """Logical shift right."""
    return Op("lshr", (a, b), a.width)


def bv_ashr(a: Expr, b: Expr) -> Expr:
    """Arithmetic shift right (sign-preserving)."""
    return Op("ashr", (a, b), a.width)


def bv_concat(*parts: Expr) -> Expr:
    """Concatenate bit-vectors; the first argument forms the most significant bits."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat requires at least one operand")
    if len(parts) == 1:
        return parts[0]
    width = sum(p.width for p in parts)
    return Op("concat", parts, width)


def bv_extract(a: Expr, hi: int, lo: int) -> Expr:
    """Extract bits ``hi`` down to ``lo`` (inclusive, Verilog-style part-select)."""
    if not (0 <= lo <= hi < a.width):
        raise ValueError(f"extract [{hi}:{lo}] out of range for width {a.width}")
    if lo == 0 and hi == a.width - 1:
        return a
    return Op("extract", (a,), hi - lo + 1, params=(hi, lo))


def bv_zero_extend(a: Expr, extra: int) -> Expr:
    """Zero-extend by ``extra`` bits."""
    if extra < 0:
        raise ValueError("zero_extend amount must be non-negative")
    if extra == 0:
        return a
    return Op("zext", (a,), a.width + extra, params=(extra,))


def bv_sign_extend(a: Expr, extra: int) -> Expr:
    """Sign-extend by ``extra`` bits."""
    if extra < 0:
        raise ValueError("sign_extend amount must be non-negative")
    if extra == 0:
        return a
    return Op("sext", (a,), a.width + extra, params=(extra,))


def bv_resize(a: Expr, width: int, signed: bool = False) -> Expr:
    """Resize ``a`` to ``width`` bits by truncation or (zero/sign) extension."""
    if width == a.width:
        return a
    if width < a.width:
        return bv_extract(a, width - 1, 0)
    if signed:
        return bv_sign_extend(a, width - a.width)
    return bv_zero_extend(a, width - a.width)


def bv_eq(a: Expr, b: Expr) -> Expr:
    return _binary("eq", a, b, width=1)


def bv_ne(a: Expr, b: Expr) -> Expr:
    return _binary("ne", a, b, width=1)


def bv_ult(a: Expr, b: Expr) -> Expr:
    return _binary("ult", a, b, width=1)


def bv_ule(a: Expr, b: Expr) -> Expr:
    return _binary("ule", a, b, width=1)


def bv_ugt(a: Expr, b: Expr) -> Expr:
    return _binary("ugt", a, b, width=1)


def bv_uge(a: Expr, b: Expr) -> Expr:
    return _binary("uge", a, b, width=1)


def bv_slt(a: Expr, b: Expr) -> Expr:
    return _binary("slt", a, b, width=1)


def bv_sle(a: Expr, b: Expr) -> Expr:
    return _binary("sle", a, b, width=1)


def bv_sgt(a: Expr, b: Expr) -> Expr:
    return _binary("sgt", a, b, width=1)


def bv_sge(a: Expr, b: Expr) -> Expr:
    return _binary("sge", a, b, width=1)


def bv_ite(cond: Expr, then_expr: Expr, else_expr: Expr) -> Expr:
    """If-then-else; ``cond`` must be a 1-bit expression."""
    if cond.width != 1:
        cond = bv_ne(cond, Const(0, cond.width))
    _require_same_width(then_expr, else_expr, "ite")
    return Op("ite", (cond, then_expr, else_expr), then_expr.width)


def bv_reduce_and(a: Expr) -> Expr:
    """Verilog ``&a`` reduction."""
    return Op("redand", (a,), 1)


def bv_reduce_or(a: Expr) -> Expr:
    """Verilog ``|a`` reduction."""
    return Op("redor", (a,), 1)


def bv_reduce_xor(a: Expr) -> Expr:
    """Verilog ``^a`` reduction (parity)."""
    return Op("redxor", (a,), 1)


# ---------------------------------------------------------------------------
# Boolean helpers (1-bit expressions)
# ---------------------------------------------------------------------------


def to_bool(a: Expr) -> Expr:
    """Convert a bit-vector to its Verilog truth value (non-zero test)."""
    if a.width == 1:
        return a
    return bv_ne(a, Const(0, a.width))


def bool_not(a: Expr) -> Expr:
    """Logical negation of a truth value."""
    return bv_not(to_bool(a))


def bool_and(*args: Expr) -> Expr:
    """Logical conjunction of truth values (n-ary, identity TRUE)."""
    result: Expr = TRUE
    for arg in args:
        result = bv_and(result, to_bool(arg))
    return result


def bool_or(*args: Expr) -> Expr:
    """Logical disjunction of truth values (n-ary, identity FALSE)."""
    result: Expr = FALSE
    for arg in args:
        result = bv_or(result, to_bool(arg))
    return result


def bool_implies(a: Expr, b: Expr) -> Expr:
    """Logical implication ``a -> b`` of truth values."""
    return bool_or(bool_not(a), to_bool(b))
