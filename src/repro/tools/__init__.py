"""Command-line front ends.

=====================  ==================================================
console script         module
=====================  ==================================================
``repro-verify``       :mod:`repro.tools.verify_cli`: one query, a race,
                       or a batch over suite designs, Verilog or AIGER
``repro-serve``        :mod:`repro.tools.serve_cli`: the verify server
``repro-cache``        :mod:`repro.tools.cache_cli`: inspect, fsck and
                       shrink the certificate cache
``repro-trace``        :mod:`repro.tools.trace_cli`: summarize, lint and
                       convert telemetry traces
``repro-bench``        :mod:`repro.tools.bench`: correctness gates over
                       the benchmark suite
=====================  ==================================================

The engines stand in for the tools the paper compares (ABC, EBMC, CBMC,
2LS, CPAchecker, IMPARA, SeaHorn, Astrée) by algorithm and representation
level; ``repro-verify --list-engines`` names them.  Importing this package
loads nothing, so each front end starts with only what it runs.
"""
