"""Propositional SAT substrate.

All verification engines in the reproduction bottom out in propositional
satisfiability, just as the tools compared in the paper do (ABC, EBMC, CBMC,
2LS all use SAT back-ends).  The package provides:

* :mod:`repro.sat.cnf` — clause databases and literal helpers,
* :mod:`repro.sat.solver` — a CDCL solver (two-watched literals, VSIDS-style
  activities, first-UIP learning, Luby restarts, incremental assumptions)
  with optional resolution-proof logging,
* :mod:`repro.sat.tseitin` — Tseitin encoding of propositional circuits,
* :mod:`repro.sat.interpolate` — Craig interpolation from logged resolution
  proofs using McMillan's labelling rules.

The package imports none of them: import the submodule you need, so an
engine that never interpolates never loads :mod:`repro.sat.interpolate`.
"""
