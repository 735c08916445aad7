"""Verilog-2005 RTL frontend.

The frontend accepts the synthesizable subset of Verilog used by the
benchmark designs of the paper: module hierarchy with parameters, wire/reg
declarations (including small memories), continuous assignments, clocked and
combinational ``always`` blocks with blocking and non-blocking assignments,
``if``/``case`` statements, ``for`` loops with constant bounds, the full
operator set (including part-select, bit-select, concatenation, replication
and reduction operators, which v2c translates to semantically equivalent C
expressions), and SVA-style ``assert property`` safety properties.

Pipeline::

    source text --lex--> tokens --parse--> AST --elaborate--> elaborated design
"""

from repro.verilog.lexer import Lexer, Token, VerilogSyntaxError
from repro.verilog.parser import parse_source
from repro.verilog.elaborate import elaborate, ElaboratedDesign, ElaborationError
from repro.verilog import ast

__all__ = [
    "Lexer",
    "Token",
    "VerilogSyntaxError",
    "parse_source",
    "elaborate",
    "ElaboratedDesign",
    "ElaborationError",
    "ast",
]
