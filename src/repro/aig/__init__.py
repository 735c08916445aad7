"""Bit-level netlist representation (and-inverter graph).

The bit-level flow of the paper synthesizes Verilog with Yosys into BLIF and
hands the bit-level netlist to ABC.  This package provides the equivalent
substrate: the word-level transition system is bit-blasted into an
and-inverter graph with latches, which can be exported in ASCII AIGER
format and is the representation on which the "bit-level" engine
configurations (the ABC stand-ins) operate.
"""

from repro.aig.graph import AIG, AigerLiteral
from repro.aig.bitblast import aig_from_transition_system
from repro.aig.formats import write_aiger, read_aiger

__all__ = [
    "AIG",
    "AigerLiteral",
    "aig_from_transition_system",
    "write_aiger",
    "read_aiger",
]
