"""Tool façades: the verification tools compared in the paper.

Each "tool" is a named configuration of one of the engines in
:mod:`repro.engines`, matching the representation level and algorithm of the
corresponding tool in the paper's evaluation (Figures 3–5):

=====================  =====================  ============  =======================
tool name              engine                 level         notes
=====================  =====================  ============  =======================
``abc-kind``           k-induction            bit (AIG)     ABC 1.01, HWMCC winner
``abc-interpolation``  interpolation          bit (AIG)     ABC ``int`` command
``abc-pdr``            IC3/PDR                bit (AIG)     ABC ``pdr`` command
``ebmc-kind``          k-induction            word          EBMC 4.2 word-level
``cbmc-kind``          k-induction            software      CBMC 5.2 on the netlist
``2ls-kind``           k-induction            software      2LS 0.3.4 ``--k-induction``
``2ls-kiki``           kIkI                   software      2LS k-induction+invariants
``cpa-interpolation``  interpolation          software      CPAChecker 1.4 (IMPACT-like)
``cpa-predabs``        predicate abstraction  software      CPAChecker predicate analysis
``impara``             IMPACT                 software      IMPARA
``seahorn-pdr``        IC3/PDR                software      SeaHorn (integer/Horn level)
``astree``             abstract interp.       software      Astrée-style intervals
=====================  =====================  ============  =======================

The SeaHorn and CPAChecker-predabs configurations run on an over-approximated
software-netlist in which bit-level operations are havocked
(:func:`repro.tools.approximations.havoc_bitlevel_ops`).  This models their
limited bit-vector support and reproduces the *wrong results* the paper
reports for them on bit-manipulating designs, without making the underlying
engines unsound.

The tool catalog lives in :mod:`repro.tools.catalog`; importing this package
loads none of it, so the command-line front ends here start without
importing every engine and the Verilog frontend.
"""
