"""Differential fuzz of the bit-blaster against the expression evaluator.

Random expression trees of depth <= 4 over the ``repro.exprs`` builders are
blasted with every input fixed; the blasted ``e`` must equal
``evaluate(e, env)`` (SAT) and can never differ from it (UNSAT).  The checks
run on a fresh solver per tree and again on one shared solver under
assumptions, where sub-blasts memoized by earlier trees are reused.
"""

import random

from repro.exprs import (
    bv_add,
    bv_and,
    bv_ashr,
    bv_concat,
    bv_const,
    bv_eq,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_mul,
    bv_nand,
    bv_ne,
    bv_neg,
    bv_nor,
    bv_not,
    bv_or,
    bv_sge,
    bv_sgt,
    bv_shl,
    bv_sign_extend,
    bv_sle,
    bv_slt,
    bv_sub,
    bv_udiv,
    bv_uge,
    bv_ugt,
    bv_ule,
    bv_ult,
    bv_urem,
    bv_var,
    bv_xnor,
    bv_xor,
    bv_zero_extend,
    collect_vars,
    evaluate,
    mask,
)
from repro.smt import BVResult, BVSolver

WIDTHS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64)
UNARY = (bv_not, bv_neg)
LINEAR = (bv_and, bv_or, bv_xor, bv_xnor, bv_nand, bv_nor, bv_add, bv_sub)
#: multiplier and divider blasts grow with the square of the width (a 64-bit
#: divider is ~90k clauses), so they are drawn up to this width only and a
#: run stays within its time budget
QUADRATIC = (bv_mul, bv_udiv, bv_urem)
QUADRATIC_MAX_WIDTH = 17
SHIFTS = (bv_shl, bv_lshr, bv_ashr)
COMPARISONS = (
    bv_eq, bv_ne, bv_ult, bv_ule, bv_ugt, bv_uge, bv_slt, bv_sle, bv_sgt, bv_sge,
)


def _edge_value(rng, width):
    top = 1 << (width - 1)
    return rng.choice((0, 1, mask(width), top, top - 1, rng.getrandbits(width)))


def _tree(rng, width, depth):
    """A random expression of ``width`` bits and depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return bv_var(f"x{width}_{rng.randrange(2)}", width)
        return bv_const(_edge_value(rng, width), width)
    kinds = ["unary", "binary", "binary", "shift", "ite", "extract"]
    if width > 1:
        kinds += ["concat", "extend"]
    else:
        kinds += ["compare", "compare"]
    kind = rng.choice(kinds)
    if kind == "unary":
        return rng.choice(UNARY)(_tree(rng, width, depth - 1))
    if kind == "binary":
        operators = LINEAR + (QUADRATIC if width <= QUADRATIC_MAX_WIDTH else ())
        operands = _tree(rng, width, depth - 1), _tree(rng, width, depth - 1)
        return rng.choice(operators)(*operands)
    if kind == "shift":
        amount = _tree(rng, rng.choice(WIDTHS), depth - 1)
        return rng.choice(SHIFTS)(_tree(rng, width, depth - 1), amount)
    if kind == "ite":
        condition = _tree(rng, 1, depth - 1)
        return bv_ite(condition, _tree(rng, width, depth - 1), _tree(rng, width, depth - 1))
    if kind == "extract":
        wider = rng.choice([w for w in WIDTHS if w >= width])
        low = rng.randint(0, wider - width)
        return bv_extract(_tree(rng, wider, depth - 1), low + width - 1, low)
    if kind == "concat":
        high = rng.randint(1, width - 1)
        return bv_concat(_tree(rng, high, depth - 1), _tree(rng, width - high, depth - 1))
    if kind == "extend":
        narrow = rng.randint(1, width - 1)
        extend = rng.choice((bv_zero_extend, bv_sign_extend))
        return extend(_tree(rng, narrow, depth - 1), width - narrow)
    operand_width = rng.choice(WIDTHS)
    operands = _tree(rng, operand_width, depth - 1), _tree(rng, operand_width, depth - 1)
    return rng.choice(COMPARISONS)(*operands)


def _cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        expr = _tree(rng, rng.choice(WIDTHS), rng.randint(1, 4))
        variables = sorted(collect_vars(expr), key=lambda var: var.name)
        env = {var.name: _edge_value(rng, var.width) for var in variables}
        inputs = [bv_eq(var, bv_const(env[var.name], var.width)) for var in variables]
        expected = bv_const(evaluate(expr, env), expr.width)
        yield expr, inputs, expected


#: trees checked on one shared session as well: a SAT check there assigns
#: every variable the session has blasted so far, so its cost grows with the
#: session and only the first trees share it
SHARED_TREES = 30


def test_blaster_matches_evaluate_on_random_trees():
    shared = BVSolver()
    for index, (expr, inputs, expected) in enumerate(_cases(seed=2016, count=200)):
        fresh = BVSolver()
        fresh.assert_exprs(inputs)
        assert fresh.check_expr(bv_eq(expr, expected)) == BVResult.SAT, expr
        assert fresh.check_expr(bv_ne(expr, expected)) == BVResult.UNSAT, expr
        if index >= SHARED_TREES:
            continue
        # the shared session fixes the inputs by assumption, so every tree's
        # sub-blasts stay memoized for the trees after it
        agree = shared.check(expr_assumptions=[*inputs, bv_eq(expr, expected)])
        assert agree == BVResult.SAT, expr
        differ = shared.check(expr_assumptions=[*inputs, bv_ne(expr, expected)])
        assert differ == BVResult.UNSAT, expr
