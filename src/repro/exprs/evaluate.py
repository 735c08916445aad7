"""Concrete evaluation of expressions under a variable assignment.

Evaluation implements the same semantics that the bit-blaster and the
generated ANSI-C software-netlist use, so it serves as the reference model in
equivalence tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

from repro.exprs.nodes import Const, Expr, Op, Var, mask, to_signed, to_unsigned


class EvaluationError(Exception):
    """Raised when an expression cannot be evaluated (e.g. an unbound variable)."""


def _eval_udiv(a: int, b: int, width: int) -> int:
    # Division by zero yields all-ones, matching SMT-LIB bvudiv and the
    # behaviour the C code generator emits (guarded division).
    if b == 0:
        return mask(width)
    return a // b


def _eval_urem(a: int, b: int, width: int) -> int:
    if b == 0:
        return a
    return a % b


_BINARY_EVAL: Dict[str, Callable[[int, int, int], int]] = {
    "and": lambda a, b, w: a & b,
    "or": lambda a, b, w: a | b,
    "xor": lambda a, b, w: a ^ b,
    "xnor": lambda a, b, w: to_unsigned(~(a ^ b), w),
    "nand": lambda a, b, w: to_unsigned(~(a & b), w),
    "nor": lambda a, b, w: to_unsigned(~(a | b), w),
    "add": lambda a, b, w: to_unsigned(a + b, w),
    "sub": lambda a, b, w: to_unsigned(a - b, w),
    "mul": lambda a, b, w: to_unsigned(a * b, w),
    "udiv": _eval_udiv,
    "urem": _eval_urem,
    "eq": lambda a, b, w: int(a == b),
    "ne": lambda a, b, w: int(a != b),
    "ult": lambda a, b, w: int(a < b),
    "ule": lambda a, b, w: int(a <= b),
    "ugt": lambda a, b, w: int(a > b),
    "uge": lambda a, b, w: int(a >= b),
}


def evaluate(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate ``expr`` under ``env`` (variable name -> unsigned value).

    The result is the unsigned value of the expression, truncated to its
    width.  Raises :class:`EvaluationError` for unbound variables.
    """
    cache: Dict[int, int] = {}

    def rec(node: Expr) -> int:
        key = id(node)
        if key in cache:
            return cache[key]
        value = _eval_node(node, env, rec)
        cache[key] = value
        return value

    return rec(expr)


def _eval_node(node: Expr, env: Mapping[str, int], rec) -> int:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise EvaluationError(f"unbound variable {node.name!r}")
        return to_unsigned(int(env[node.name]), node.width)
    assert isinstance(node, Op)
    op = node.op
    width = node.width

    if op in _BINARY_EVAL:
        a = rec(node.args[0])
        b = rec(node.args[1])
        operand_width = node.args[0].width
        if op in ("xnor", "nand", "nor", "add", "sub", "mul", "udiv", "urem"):
            return _BINARY_EVAL[op](a, b, operand_width)
        return _BINARY_EVAL[op](a, b, operand_width)

    if op == "not":
        return to_unsigned(~rec(node.args[0]), width)
    if op == "neg":
        return to_unsigned(-rec(node.args[0]), width)
    if op == "shl":
        a = rec(node.args[0])
        sh = rec(node.args[1])
        if sh >= width:
            return 0
        return to_unsigned(a << sh, width)
    if op == "lshr":
        a = rec(node.args[0])
        sh = rec(node.args[1])
        if sh >= width:
            return 0
        return a >> sh
    if op == "ashr":
        a = to_signed(rec(node.args[0]), node.args[0].width)
        sh = rec(node.args[1])
        if sh >= width:
            sh = width
        return to_unsigned(a >> sh, width)
    if op in ("slt", "sle", "sgt", "sge"):
        operand_width = node.args[0].width
        a = to_signed(rec(node.args[0]), operand_width)
        b = to_signed(rec(node.args[1]), operand_width)
        if op == "slt":
            return int(a < b)
        if op == "sle":
            return int(a <= b)
        if op == "sgt":
            return int(a > b)
        return int(a >= b)
    if op == "redand":
        a = rec(node.args[0])
        return int(a == mask(node.args[0].width))
    if op == "redor":
        a = rec(node.args[0])
        return int(a != 0)
    if op == "redxor":
        a = rec(node.args[0])
        return bin(a).count("1") & 1
    if op == "concat":
        value = 0
        for arg in node.args:
            value = (value << arg.width) | rec(arg)
        return value
    if op == "extract":
        hi, lo = node.params
        a = rec(node.args[0])
        return (a >> lo) & mask(hi - lo + 1)
    if op == "zext":
        return rec(node.args[0])
    if op == "sext":
        inner = node.args[0]
        value = to_signed(rec(inner), inner.width)
        return to_unsigned(value, width)
    if op == "ite":
        cond = rec(node.args[0])
        return rec(node.args[1]) if cond else rec(node.args[2])

    raise EvaluationError(f"unhandled operator {op!r}")  # pragma: no cover
