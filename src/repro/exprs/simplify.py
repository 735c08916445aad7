"""Light-weight expression simplification.

The simplifier performs constant folding and a handful of algebraic rewrites
(identity/annihilator elimination, double negation, ITE pruning).  It is used
by the synthesizer to keep transition functions compact before bit-blasting,
and by the unbounded engines when they build frames and interpolants.

The rewrites are deliberately local and purely structural: each returns an
expression that evaluates identically on every assignment, which is checked by
property-based tests in ``tests/test_exprs_properties.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exprs.evaluate import evaluate
from repro.exprs.nodes import Const, Expr, Op, Var, mask


def constant_fold(expr: Expr) -> Expr:
    """Fold an expression whose leaves are all constants into a single constant.

    Non-constant expressions are returned unchanged.
    """
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return expr
    assert isinstance(expr, Op)
    if all(isinstance(arg, Const) for arg in expr.args):
        value = evaluate(expr, {})
        return Const(value, expr.width)
    return expr


def simplify(expr: Expr, cache: Optional[Dict[int, Expr]] = None) -> Expr:
    """Simplify ``expr`` bottom-up with constant folding and algebraic rules.

    ``cache`` is a node-identity memo that several calls may share, as
    :func:`repro.exprs.substitute.substitute` documents.
    """
    if cache is None:
        cache = {}

    def rec(node: Expr) -> Expr:
        key = id(node)
        if key in cache:
            return cache[key]
        if isinstance(node, (Const, Var)):
            result: Expr = node
        else:
            assert isinstance(node, Op)
            new_args = tuple(rec(arg) for arg in node.args)
            if all(new is old for new, old in zip(new_args, node.args)):
                rebuilt = node
            else:
                rebuilt = Op(node.op, new_args, node.width, node.params)
            result = _simplify_node(rebuilt)
        cache[key] = result
        return result

    return rec(expr)


def _is_zero(node: Expr) -> bool:
    return isinstance(node, Const) and node.value == 0


def _is_ones(node: Expr) -> bool:
    return isinstance(node, Const) and node.value == mask(node.width)


def _simplify_node(node: Op) -> Expr:
    folded = constant_fold(node)
    if isinstance(folded, Const):
        return folded

    op = node.op
    args = node.args

    if op == "and":
        a, b = args
        if _is_zero(a) or _is_zero(b):
            return Const(0, node.width)
        if _is_ones(a):
            return b
        if _is_ones(b):
            return a
        if a == b:
            return a
    elif op == "or":
        a, b = args
        if _is_ones(a) or _is_ones(b):
            return Const(mask(node.width), node.width)
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
        if a == b:
            return a
    elif op == "xor":
        a, b = args
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
        if a == b:
            return Const(0, node.width)
    elif op == "add":
        a, b = args
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif op == "sub":
        a, b = args
        if _is_zero(b):
            return a
        if a == b:
            return Const(0, node.width)
    elif op == "mul":
        a, b = args
        if _is_zero(a) or _is_zero(b):
            return Const(0, node.width)
        if isinstance(a, Const) and a.value == 1:
            return b
        if isinstance(b, Const) and b.value == 1:
            return a
    elif op == "not":
        (a,) = args
        if isinstance(a, Op) and a.op == "not":
            return a.args[0]
    elif op == "ite":
        cond, then_e, else_e = args
        if isinstance(cond, Const):
            return then_e if cond.value else else_e
        if then_e == else_e:
            return then_e
        # ite(c, 1, 0) on 1-bit values is just c
        if (
            node.width == 1
            and isinstance(then_e, Const)
            and isinstance(else_e, Const)
            and then_e.value == 1
            and else_e.value == 0
        ):
            return cond
    elif op == "eq":
        a, b = args
        if a == b:
            return Const(1, 1)
    elif op == "ne":
        a, b = args
        if a == b:
            return Const(0, 1)
    elif op in ("zext", "sext"):
        (a,) = args
        if isinstance(a, Const):
            return constant_fold(node)
    elif op == "extract":
        (a,) = args
        hi, lo = node.params
        # extract of a concat of two parts that lands entirely in one part
        if isinstance(a, Op) and a.op == "zext" and hi < a.args[0].width:
            inner = a.args[0]
            if lo == 0 and hi == inner.width - 1:
                return inner
            return Op("extract", (inner,), hi - lo + 1, params=(hi, lo))

    return node
