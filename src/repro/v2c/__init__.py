"""v2c: the software-netlist view of Verilog RTL.

The paper's ``v2c`` tool (Section III) turns the word-level transition
system obtained from Verilog RTL into a cycle-accurate, bit-precise C
program, the *software-netlist*, which external software analyzers then
verify.  Here the engines read the transition system directly, so only the
program model remains: :class:`repro.v2c.softnetlist.SoftwareNetlist` holds
the wire assignments in dependency order, the assertions and the register
updates of one step call, and the packed simulator
(:mod:`repro.netlist.bitsim`) is built from it.

Import :mod:`repro.v2c.softnetlist` directly; this package loads nothing.
"""
