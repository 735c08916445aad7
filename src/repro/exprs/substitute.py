"""Structural traversals over expressions: substitution, variable collection,
size and depth metrics.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set

from repro.exprs.nodes import Const, Expr, Op, Var


def substitute(
    expr: Expr, mapping: Mapping[str, Expr], cache: Optional[Dict[int, Expr]] = None
) -> Expr:
    """Replace every variable whose name is in ``mapping`` by the given expression.

    Width compatibility is enforced: a replacement must have the same width as
    the variable it replaces.  Calls that pass one ``cache`` (a node-identity
    memo) share their results, so a subexpression common to several roots
    stays one node; every root must stay alive as long as the memo.
    """
    if cache is None:
        cache = {}

    def rec(node: Expr) -> Expr:
        key = id(node)
        if key in cache:
            return cache[key]
        result = _subst_node(node, mapping, rec)
        cache[key] = result
        return result

    return rec(expr)


def _subst_node(node: Expr, mapping: Mapping[str, Expr], rec) -> Expr:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        replacement = mapping.get(node.name)
        if replacement is None:
            return node
        if replacement.width != node.width:
            raise ValueError(
                f"substitution width mismatch for {node.name}: "
                f"{node.width} vs {replacement.width}"
            )
        return replacement
    assert isinstance(node, Op)
    new_args = tuple(rec(arg) for arg in node.args)
    if all(new is old for new, old in zip(new_args, node.args)):
        return node
    return Op(node.op, new_args, node.width, node.params)


def rename(expr: Expr, rename_fn) -> Expr:
    """Rename every variable through ``rename_fn(name) -> new name``."""
    cache: Dict[int, Expr] = {}

    def rec(node: Expr) -> Expr:
        key = id(node)
        if key in cache:
            return cache[key]
        if isinstance(node, Const):
            result: Expr = node
        elif isinstance(node, Var):
            result = Var(rename_fn(node.name), node.width)
        else:
            assert isinstance(node, Op)
            new_args = tuple(rec(arg) for arg in node.args)
            result = Op(node.op, new_args, node.width, node.params)
        cache[key] = result
        return result

    return rec(expr)


def collect_vars(expr: Expr) -> Set[Var]:
    """Return the set of variables occurring in ``expr``."""
    seen: Set[int] = set()
    found: Set[Var] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            found.add(node)
        elif isinstance(node, Op):
            stack.extend(node.args)
    return found
