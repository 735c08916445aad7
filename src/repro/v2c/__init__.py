"""v2c: synthesis of Verilog RTL into a software-netlist.

This package is the reproduction of the paper's core artefact, the ``v2c``
tool (Section III): it turns the word-level transition system obtained from
Verilog RTL into

* a *software-netlist* in ANSI-C (:class:`repro.v2c.codegen.CCodeGenerator`):
  a cycle-accurate, bit-precise, word-level C program in which one call of the
  top-level step function corresponds to one clock cycle, with the safety
  properties instrumented as assertions and the primary inputs assigned
  non-deterministic values, and
* a Python model of the same program
  (:class:`repro.v2c.softnetlist.SoftwareNetlist`: wire assignments in
  dependency order, assertions, register updates) from which the C
  generator and the packed simulator are built.

Import the submodules directly: the packed simulator needs only
:mod:`repro.v2c.softnetlist`, and loading this package imports neither the
C generator nor the property instrumentation (which pulls in the SVA and
Verilog frontends).
"""
