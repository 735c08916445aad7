"""Folding rules of the Tseitin encoder.

Every gate folds constant, repeated and complementary inputs before it
allocates an output.  Each identity below returns a literal that already
exists and adds no variable and no clause; ``tests/test_blaster_fuzz.py``
checks the folded circuits against ``exprs.evaluate``.
"""

import pytest

from repro.exprs import bv_const, bv_eq, bv_var
from repro.sat.cnf import CNF
from repro.sat.tseitin import TseitinEncoder
from repro.smt import BitBlaster

#: (rule, literal it must return, folded call); ``t`` is the constant true,
#: and the expected literal is built first, so it may allocate its gate
RULES = [
    ("and drops true", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.and_gate([a, t])),
    ("and drops duplicates", lambda e, a, b, c, t: e.and_gate([a, b]),
     lambda e, a, b, c, t: e.and_gate([b, a, b, t])),
    ("and of one input", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.and_gate([a, a])),
    ("and of nothing left", lambda e, a, b, c, t: t, lambda e, a, b, c, t: e.and_gate([t, t])),
    ("and with false", lambda e, a, b, c, t: -t, lambda e, a, b, c, t: e.and_gate([a, -t, b])),
    ("and with a complement", lambda e, a, b, c, t: -t,
     lambda e, a, b, c, t: e.and_gate([a, b, -a])),
    ("or with true", lambda e, a, b, c, t: t, lambda e, a, b, c, t: e.or_gate([a, t])),
    ("or drops false", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.or_gate([-t, a])),
    ("or with a complement", lambda e, a, b, c, t: t, lambda e, a, b, c, t: e.or_gate([-a, a])),
    ("xor with true", lambda e, a, b, c, t: -a, lambda e, a, b, c, t: e.xor_gate(a, t)),
    ("xor with true first", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.xor_gate(t, -a)),
    ("xor with false", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.xor_gate(a, -t)),
    ("xor of a repeat", lambda e, a, b, c, t: -t, lambda e, a, b, c, t: e.xor_gate(a, a)),
    ("xor of a complement", lambda e, a, b, c, t: t, lambda e, a, b, c, t: e.xor_gate(-a, a)),
    ("xnor with false", lambda e, a, b, c, t: -a, lambda e, a, b, c, t: e.xnor_gate(-t, a)),
    ("ite on true", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.ite_gate(t, a, b)),
    ("ite on false", lambda e, a, b, c, t: b, lambda e, a, b, c, t: e.ite_gate(-t, a, b)),
    ("ite of equal branches", lambda e, a, b, c, t: a, lambda e, a, b, c, t: e.ite_gate(c, a, a)),
    ("ite of complement branches", lambda e, a, b, c, t: -e.xor_gate(c, a),
     lambda e, a, b, c, t: e.ite_gate(c, a, -a)),
    ("ite(c, 1, e) = c or e", lambda e, a, b, c, t: e.or_gate([c, b]),
     lambda e, a, b, c, t: e.ite_gate(c, t, b)),
    ("ite(c, c, e) = c or e", lambda e, a, b, c, t: e.or_gate([c, b]),
     lambda e, a, b, c, t: e.ite_gate(c, c, b)),
    ("ite(c, 0, e) = not c and e", lambda e, a, b, c, t: e.and_gate([-c, b]),
     lambda e, a, b, c, t: e.ite_gate(c, -t, b)),
    ("ite(c, -c, e) = not c and e", lambda e, a, b, c, t: e.and_gate([-c, b]),
     lambda e, a, b, c, t: e.ite_gate(c, -c, b)),
    ("ite(c, t, 0) = c and t", lambda e, a, b, c, t: e.and_gate([c, a]),
     lambda e, a, b, c, t: e.ite_gate(c, a, -t)),
    ("ite(c, t, c) = c and t", lambda e, a, b, c, t: e.and_gate([c, a]),
     lambda e, a, b, c, t: e.ite_gate(c, a, c)),
    ("ite(c, t, 1) = not c or t", lambda e, a, b, c, t: e.or_gate([-c, a]),
     lambda e, a, b, c, t: e.ite_gate(c, a, t)),
    ("ite(c, t, -c) = not c or t", lambda e, a, b, c, t: e.or_gate([-c, a]),
     lambda e, a, b, c, t: e.ite_gate(c, a, -c)),
    ("ite(c, 1, 0) = c", lambda e, a, b, c, t: c, lambda e, a, b, c, t: e.ite_gate(c, t, -t)),
    ("ite(c, 0, 1) = not c", lambda e, a, b, c, t: -c, lambda e, a, b, c, t: e.ite_gate(c, -t, t)),
]


def _size(cnf):
    return cnf.num_vars, len(cnf.clauses)


@pytest.mark.parametrize(
    "expected, folded", [rule[1:] for rule in RULES], ids=[rule[0] for rule in RULES]
)
def test_folding_rule_returns_an_existing_literal(expected, folded):
    cnf = CNF()
    encoder = TseitinEncoder(cnf)
    a, b, c = cnf.new_vars(3)
    t = encoder.true_lit
    want = expected(encoder, a, b, c, t)
    size = _size(cnf)
    assert folded(encoder, a, b, c, t) == want
    assert _size(cnf) == size


def test_xor_is_hashed_on_unsigned_inputs():
    cnf = CNF()
    encoder = TseitinEncoder(cnf)
    a, b = cnf.new_vars(2)
    gate = encoder.xor_gate(a, b)
    size = _size(cnf)
    assert encoder.xor_gate(-a, b) == -gate
    assert encoder.xor_gate(b, -a) == -gate
    assert encoder.xor_gate(a, -b) == -gate
    assert encoder.xor_gate(-a, -b) == gate
    assert encoder.xnor_gate(-a, b) == gate
    assert _size(cnf) == size
    # the first gate over a negated input defines the unsigned pair's gate
    c = cnf.new_var()
    negated = encoder.xor_gate(-c, a)
    size = _size(cnf)
    assert encoder.xor_gate(a, c) == -negated
    assert _size(cnf) == size


def test_folding_never_allocates_the_constant_to_test_for_it():
    cnf = CNF()
    encoder = TseitinEncoder(cnf)
    a, b, c = cnf.new_vars(3)
    assert encoder.and_gate([a, a]) == a
    assert encoder.ite_gate(c, b, b) == b
    assert encoder.ite_gate(c, c, b) == encoder.or_gate([c, b])
    encoder.and_gate([a, b])
    encoder.xor_gate(a, -b)
    encoder.ite_gate(a, b, c)
    assert encoder.true_var is None
    # a folded constant result needs the constant itself
    assert encoder.xor_gate(a, a) == encoder.false_lit
    assert encoder.true_var is not None


def test_comparison_with_a_constant_is_one_and_gate():
    """``x == 5`` on 8 bits is the conjunction of x's bits, each signed by
    the constant's bit: 1 gate variable, 8 binary clauses and 1 long one."""
    cnf = CNF()
    blaster = BitBlaster(cnf)
    bits = blaster.bits_of_var("x", 8)
    blaster.true_lit
    size = _size(cnf)
    literal = blaster.blast_bool(bv_eq(bv_var("x", 8), bv_const(5, 8)))
    assert (cnf.num_vars - size[0], len(cnf.clauses) - size[1]) == (1, 9)
    signed = [bit if (5 >> i) & 1 else -bit for i, bit in enumerate(bits)]
    assert set(cnf.clauses[size[1]:]) == {
        *((-literal, bit) for bit in signed),
        (literal, *(-bit for bit in signed)),
    }
