"""Time-frame encoding of a transition system into the bit-vector solver.

The :class:`FrameEncoder` gives every engine a uniform way to talk about the
design across clock cycles: signal ``x`` at cycle ``k`` becomes the solver
variable ``x@k``.  The encoder offers the usual building blocks — initial
state, transition relation between consecutive frames, property at a frame —
and reads back counterexample traces from satisfying assignments.

Two representations are supported, mirroring the paper's comparison axes:

* ``representation="word"`` (default): the word-level next-state expressions
  are bit-blasted directly (the EBMC/CBMC-style flow),
* ``representation="bit"``: the system is first lowered to the and-inverter
  graph of :mod:`repro.aig` and the AIG gates are encoded clause-by-clause
  (the Yosys/ABC-style bit-level flow).

Template-based incremental unrolling
------------------------------------

Unrolling dominates the run time of every engine in the paper's comparison:
BMC, k-induction, interpolation, kIkI and PDR all instantiate the transition
relation once per time frame.  Rebuilding the frame-stamped expression tree
and re-running the Tseitin bit-blast for every frame would make that cost
grow with the expression size at every bound.

The encoder instead bit-blasts the flattened transition relation (and each
property) exactly *once* into a :class:`FrameTemplate` — a normalized CNF
fragment plus a symbol table classifying every template variable as a
current-state bit, next-state bit, input bit or internal gate output.  Frame
``k`` is then instantiated by remapping template literals through a per-frame
offset table (pure integer arithmetic, no expression traversal, no dict-keyed
expression-cache lookups) and bulk-loading the remapped clauses with
:meth:`repro.sat.solver.Solver.add_clauses_mapped`.  The flattening, each
property's cone and the templates of each ``(system, representation)`` are
derived once per process (:func:`repro.netlist.transition.derived`), so
repeated encoder constructions (the base and step sessions of k-induction,
PDR's counterexample replay, the sessions of the refinement engines) reuse
both the flattened system and the blasted CNF, and a worker forked after a
pre-warm inherits them.
This is the only unrolling path; the certificate validator
(:mod:`repro.certs`), which stamps frames its own way, is the independent
check on it.

Cone of influence
-----------------

:func:`cone_of_influence` slices a design to what one property can observe:
the property, every environment constraint, and the state variables and
inputs they read, closed over the next-state functions.  The three places
that build engines (:func:`repro.engines.ladder.run_sequential_ladder`,
the portfolio's race unit and ``repro-verify --engine``) hand the engine
the cone, so flattening, templates and every engine's own analysis see
only that slice; they validate the verdict against the whole design and
widen a witness to all of its inputs (:func:`widen_witness`).  The
validator computes its own cones and never reads these.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.certs.certificate import WITNESS
from repro.exprs import Expr, bv_eq, bv_var, collect_vars, evaluate
from repro.exprs.substitute import rename
from repro.netlist import TransitionSystem
from repro.netlist.transition import derived
from repro.engines.result import Counterexample, VerificationResult
from repro.obs import telemetry as _telemetry
from repro.records import Frozen
from repro.sat.cnf import CNF
from repro.sat.tseitin import TseitinEncoder
from repro.smt import BitBlaster, BVSolver

if TYPE_CHECKING:  # the AIG is imported on the bit path only
    from repro.aig import AIG


def frame_name(name: str, frame: int) -> str:
    """Return the solver variable name of signal ``name`` at time frame ``frame``."""
    return f"{name}@{frame}"


# ---------------------------------------------------------------------------
# frame templates
# ---------------------------------------------------------------------------

#: one named signal of a template: (base name, width, template bit vars LSB-first)
RoleEntry = Tuple[str, int, Tuple[int, ...]]


class FrameTemplate(Frozen):
    """A bit-blasted, frame-independent CNF fragment.

    A template is produced once per transition system (per representation) and
    instantiated at any time frame by pure literal remapping.  Template
    variables are classified into four roles:

    * ``cur`` — bits of state variables at the *current* frame ``k``,
    * ``nxt`` — bits of state variables at the *next* frame ``k + 1``,
    * ``inp`` — bits of primary inputs at frame ``k``,
    * ``internal`` — Tseitin/AIG gate outputs, freshly allocated per frame.

    Template variables are canonically renumbered at capture time: the named
    (role) variables and the constant occupy ``1 .. named_count`` and the
    internal gate variables form the contiguous block
    ``named_count + 1 .. num_vars``.  Because the solver allocates each
    frame's internal block contiguously too, internal literals remap by a
    constant offset.  ``clauses`` are normalized (non-empty, duplicate-free,
    tautology-free) and pre-split into ``gate_clauses`` (length >= 2, only
    internal variables — instantiated through the check-free
    :meth:`repro.sat.solver.Solver.add_fresh_clauses` path) and
    ``boundary_clauses`` (everything touching a named bit or the constant —
    instantiated through :meth:`repro.sat.solver.Solver.add_clauses_mapped`).

    ``true_var`` is the template's constant-true variable (if any); it maps to
    the solver's shared constant instead of a fresh variable.  ``output`` is
    an optional distinguished template literal (the truth literal of a
    property template).
    """

    def __init__(
        self,
        num_vars: int,
        named_count: int,
        cur: Tuple[RoleEntry, ...],
        nxt: Tuple[RoleEntry, ...],
        inp: Tuple[RoleEntry, ...],
        internal: Tuple[int, ...],
        gate_clauses: Tuple[Tuple[int, ...], ...],
        gate_binary: Tuple[Tuple[int, int], ...],
        boundary_clauses: Tuple[Tuple[int, ...], ...],
        true_var: Optional[int] = None,
        output: Optional[int] = None,
    ) -> None:
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "named_count", named_count)
        object.__setattr__(self, "cur", cur)
        object.__setattr__(self, "nxt", nxt)
        object.__setattr__(self, "inp", inp)
        object.__setattr__(self, "internal", internal)
        object.__setattr__(self, "gate_clauses", gate_clauses)
        #: two-literal gate clauses, pre-split so stamping can bulk-register
        #: them in the solver's binary watch lists without per-clause length
        #: dispatch
        object.__setattr__(self, "gate_binary", gate_binary)
        object.__setattr__(self, "boundary_clauses", boundary_clauses)
        object.__setattr__(self, "true_var", true_var)
        #: distinguished output literal (property templates)
        object.__setattr__(self, "output", output)

    @property
    def num_clauses(self) -> int:
        return (
            len(self.gate_clauses)
            + len(self.gate_binary)
            + len(self.boundary_clauses)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrameTemplate(vars={self.num_vars}, clauses={self.num_clauses}, "
            f"internal={len(self.internal)})"
        )


def _finalize_template(
    clauses: Iterable[Sequence[int]],
    num_vars: int,
    cur: Sequence[RoleEntry],
    nxt: Sequence[RoleEntry],
    inp: Sequence[RoleEntry],
    true_var: Optional[int],
    output: Optional[int],
) -> FrameTemplate:
    """Normalize, canonically renumber and split a captured blast.

    Named variables (and the constant) are packed into ``1 .. named_count``,
    internal gate variables into the trailing contiguous block, and the
    clauses are split into the gate/boundary groups described on
    :class:`FrameTemplate`.
    """
    if true_var is not None:
        # the constant is true in every instantiation: drop satisfied clauses,
        # strip falsified literals (turns many boundary clauses into pure gate
        # clauses and shrinks the template once instead of per frame)
        simplified: List[Sequence[int]] = []
        for clause in clauses:
            if true_var in clause:
                continue
            stripped = [l for l in clause if l != -true_var]
            if not stripped:
                # clause asserted the constant false: template is contradictory
                stripped = [-true_var]
            simplified.append(stripped)
        clauses = simplified

    remap = [0] * (num_vars + 1)
    next_id = 0

    def assign(var: int) -> int:
        nonlocal next_id
        if remap[var] == 0:
            next_id += 1
            remap[var] = next_id
        return remap[var]

    if true_var is not None:
        true_var = assign(true_var)
    for entries in (cur, nxt, inp):
        for _, _, bits in entries:
            for var in bits:
                assign(var)
    named_count = next_id
    for var in range(1, num_vars + 1):
        if remap[var] == 0:
            next_id += 1
            remap[var] = next_id

    def map_roles(entries: Sequence[RoleEntry]) -> Tuple[RoleEntry, ...]:
        return tuple(
            (name, width, tuple(remap[var] for var in bits))
            for name, width, bits in entries
        )

    normalized = _normalize_clauses(clauses)
    mapped_clauses = tuple(
        tuple(remap[l] if l > 0 else -remap[-l] for l in clause)
        for clause in normalized
    )
    gate_clauses = []
    gate_binary = []
    boundary_clauses = []
    for clause in mapped_clauses:
        if len(clause) >= 2 and all(abs(l) > named_count for l in clause):
            if len(clause) == 2:
                gate_binary.append(clause)
            else:
                gate_clauses.append(clause)
        else:
            boundary_clauses.append(clause)
    if output is not None:
        output = remap[output] if output > 0 else -remap[-output]
    return FrameTemplate(
        num_vars=num_vars,
        named_count=named_count,
        cur=map_roles(cur),
        nxt=map_roles(nxt),
        inp=map_roles(inp),
        internal=tuple(range(named_count + 1, num_vars + 1)),
        gate_clauses=tuple(gate_clauses),
        gate_binary=tuple(gate_binary),
        boundary_clauses=tuple(boundary_clauses),
        true_var=true_var,
        output=output,
    )


def _normalize_clauses(
    clauses: Iterable[Sequence[int]],
) -> Tuple[Tuple[int, ...], ...]:
    """Dedupe literals (keeping order) and drop tautological clauses."""
    normalized: List[Tuple[int, ...]] = []
    for clause in clauses:
        if len(clause) > 1:
            clause = tuple(dict.fromkeys(clause))
            literal_set = set(clause)
            if any(-lit in literal_set for lit in literal_set):
                continue
        else:
            clause = tuple(clause)
        if clause:
            normalized.append(clause)
    return tuple(normalized)


def _capture_word_blast(
    flat: TransitionSystem,
    cnf: CNF,
    blaster: BitBlaster,
    output: Optional[int] = None,
) -> FrameTemplate:
    """Classify the variables of a finished scratch blast into a template.

    The blast must have stamped every signal with ``@0`` (current frame) or
    ``@1`` (next frame); anything the blaster did not allocate as a named bit
    is an internal gate output.
    """
    cur: List[RoleEntry] = []
    nxt: List[RoleEntry] = []
    inp: List[RoleEntry] = []
    for full_name, bits in blaster.var_bit_table().items():
        base, _, tag = full_name.rpartition("@")
        frame = int(tag)
        entry = (base, len(bits), bits)
        if base in flat.state_vars:
            if frame == 0:
                cur.append(entry)
            else:
                nxt.append(entry)
        elif base in flat.inputs:
            if frame != 0:
                raise AssertionError(
                    f"input {base!r} blasted at frame {frame} during template capture"
                )
            inp.append(entry)
        else:
            raise AssertionError(
                f"unknown signal {base!r} during template capture"
            )
    return _finalize_template(
        cnf.clauses, cnf.num_vars, cur, nxt, inp, blaster.true_var, output
    )


def _build_word_trans_template(flat: TransitionSystem) -> FrameTemplate:
    """Blast the word-level transition relation (frame 0 -> 1) once."""
    cnf = CNF()
    blaster = BitBlaster(cnf)
    for name, next_expr in flat.next.items():
        stamped = rename(next_expr, lambda n: frame_name(n, 0))
        target = bv_var(frame_name(name, 1), flat.state_vars[name])
        blaster.assert_true(bv_eq(target, stamped))
    for constraint in flat.constraints:
        blaster.assert_true(rename(constraint, lambda n: frame_name(n, 0)))
    return _capture_word_blast(flat, cnf, blaster)


def _build_word_property_template(flat: TransitionSystem, property_name: str) -> FrameTemplate:
    """Blast one property once; ``output`` is its truth literal."""
    prop = flat.property_by_name(property_name)
    cnf = CNF()
    blaster = BitBlaster(cnf)
    literal = blaster.blast_bool(rename(prop.expr, lambda n: frame_name(n, 0)))
    return _capture_word_blast(flat, cnf, blaster, output=literal)


def _aig_cone(aig: AIG, roots: Iterable[int]) -> List[int]:
    """Return the AND nodes feeding ``roots``, in topological (index) order."""
    needed: set = set()
    stack = [root & ~1 for root in roots]
    while stack:
        node = stack.pop()
        if node in needed or node not in aig.ands:
            continue
        needed.add(node)
        left, right = aig.ands[node]
        stack.append(left & ~1)
        stack.append(right & ~1)
    return sorted(needed)


class _AigTemplateBuilder:
    """Shared scaffolding for capturing AIG cones as frame templates."""

    def __init__(self, flat: TransitionSystem, aig: AIG) -> None:
        # widths only: the builder lives in a library derived from the
        # design, which may be ``flat`` itself (see TemplateLibrary)
        self.inputs = dict(flat.inputs)
        self.state_vars = dict(flat.state_vars)
        self.aig = aig

    def _fresh(self) -> Tuple[CNF, TseitinEncoder, Dict[int, int], List[RoleEntry], List[RoleEntry]]:
        """Allocate a scratch CNF with input/latch leaves mapped to fresh vars."""
        cnf = CNF()
        encoder = TseitinEncoder(cnf)
        mapping: Dict[int, int] = {0: encoder.false_lit}
        aig = self.aig
        input_bits: Dict[str, List[int]] = {name: [0] * width for name, width in self.inputs.items()}
        for literal in aig.inputs:
            base, index = aig.input_names[literal].rsplit("[", 1)
            bit_index = int(index[:-1])
            var = encoder.new_var()
            mapping[literal] = var
            input_bits[base][bit_index] = var
        latch_bits: Dict[str, List[int]] = {name: [0] * width for name, width in self.state_vars.items()}
        for latch in aig.latches:
            base, index = latch.name.rsplit("[", 1)
            bit_index = int(index[:-1])
            var = encoder.new_var()
            mapping[latch.literal] = var
            latch_bits[base][bit_index] = var
        cur = [(name, len(bits), tuple(bits)) for name, bits in latch_bits.items()]
        inp = [(name, len(bits), tuple(bits)) for name, bits in input_bits.items()]
        return cnf, encoder, mapping, cur, inp

    def _encode_cone(
        self, encoder: TseitinEncoder, mapping: Dict[int, int], roots: Iterable[int]
    ):
        """Encode the AND cones of ``roots``; returns the literal resolver."""
        aig = self.aig

        def resolved(literal: int) -> int:
            sat = mapping[literal & ~1]
            return -sat if literal & 1 else sat

        for node in _aig_cone(aig, roots):
            left, right = aig.ands[node]
            mapping[node] = encoder.and_gate([resolved(left), resolved(right)])
        return resolved

    def trans_template(self) -> FrameTemplate:
        """Capture the latch-update cones, next-state equalities and the
        invariant constraints of the current frame (as the word-level
        template asserts ``C`` on every frame)."""
        cnf, encoder, mapping, cur, inp = self._fresh()
        aig = self.aig
        resolved = self._encode_cone(
            encoder,
            mapping,
            [latch.next_literal for latch in aig.latches] + aig.constraints,
        )
        for constraint in aig.constraints:
            encoder.add_clause([resolved(constraint)])
        next_bits: Dict[str, List[int]] = {
            name: [0] * width for name, width in self.state_vars.items()
        }
        for latch in aig.latches:
            base, index = latch.name.rsplit("[", 1)
            bit_index = int(index[:-1])
            next_var = encoder.new_var()
            next_bits[base][bit_index] = next_var
            encoder.assert_equal(next_var, resolved(latch.next_literal))
        nxt = [(name, len(bits), tuple(bits)) for name, bits in next_bits.items()]
        return self._capture(cnf, encoder, cur, nxt, inp, output=None)

    def property_template(self, property_name: str) -> FrameTemplate:
        """Capture the bad-state cone of one property; ``output`` is P itself."""
        cnf, encoder, mapping, cur, inp = self._fresh()
        bad_literal = None
        for name, bad in self.aig.bad:
            if name == property_name:
                bad_literal = bad
                break
        if bad_literal is None:
            raise KeyError(f"property {property_name!r} not found in the AIG")
        resolved = self._encode_cone(encoder, mapping, [bad_literal])
        return self._capture(
            cnf, encoder, cur, [], inp, output=-resolved(bad_literal)
        )

    def _capture(self, cnf, encoder, cur, nxt, inp, output) -> FrameTemplate:
        return _finalize_template(
            cnf.clauses, cnf.num_vars, cur, nxt, inp, encoder.true_var, output
        )


def flattened_cached(system: TransitionSystem) -> TransitionSystem:
    """Return the (memoized, validated) wire-free flattening of a design.

    Shared by the template library and by the expression-level engines
    (abstract interpretation, IMPACT, predicate abstraction, kIkI's
    invariant pruning), so a design is flattened once per process instead
    of once per engine construction.  The result is shared: callers must
    treat it as read-only.
    """

    def build() -> TransitionSystem:
        flat = system.flattened()
        flat.validate()
        return flat

    return derived(system, "flat", build)


def cone_of_influence(
    system: TransitionSystem, property_name: Optional[str]
) -> TransitionSystem:
    """Return the (memoized) slice of a design that can affect one property.

    The slice keeps the property, every environment constraint (dropping
    one could only admit spurious counterexamples) and the state variables
    and inputs they read, closed transitively over the next-state
    functions.  Nothing it keeps reads anything it drops, so the property
    holds on the design iff it holds on the slice, and a certificate found
    on the slice names only signals of the design.
    ``None`` names the first property; a design without properties has
    nothing to slice for and is returned whole, so an engine run on it
    reports that itself.

    The result is flattened and validated, and its flattening is itself.
    When nothing can be dropped it is the flattened design itself.  Like
    :func:`flattened_cached` the result is shared and read-only.
    """
    if property_name is None:
        if not system.properties:
            return flattened_cached(system)
        property_name = system.properties[0].name
    return derived(
        system,
        ("cone", property_name),
        lambda: _slice(flattened_cached(system), property_name),
    )


def _slice(flat: TransitionSystem, property_name: str) -> TransitionSystem:
    """Build the cone of one property of a flattened design."""
    prop = flat.property_by_name(property_name)
    support = set()
    stack = [
        var.name for expr in [prop.expr, *flat.constraints] for var in collect_vars(expr)
    ]
    while stack:
        name = stack.pop()
        if name not in support:
            support.add(name)
            if name in flat.next:
                stack.extend(var.name for var in collect_vars(flat.next[name]))
    if support.issuperset(flat.state_vars) and support.issuperset(flat.inputs):
        cone = flat
    else:
        cone = TransitionSystem(flat.name)
        cone.source = flat.source
        cone.inputs = {
            name: width for name, width in flat.inputs.items() if name in support
        }
        cone.state_vars = {
            name: width for name, width in flat.state_vars.items() if name in support
        }
        cone.init = {name: flat.init[name] for name in cone.state_vars}
        cone.next = {name: flat.next[name] for name in cone.state_vars}
        cone.constraints = list(flat.constraints)
        cone.properties = [prop]
        cone.validate()
    derived(cone, "flat", lambda: cone)  # the cone is its own flattening
    return cone


def widen_witness(
    result: VerificationResult, system: TransitionSystem
) -> VerificationResult:
    """Valuate a cone run's witness over every input of the queried design.

    Inputs outside the cone cannot affect the violation; they read 0, as
    unconstrained inputs always do in a witness.
    """
    certificate = result.certificate
    if getattr(certificate, "kind", None) == WITNESS:
        zeros = dict.fromkeys(system.inputs, 0)
        result.certificate = certificate.replace(
            inputs=tuple({**zeros, **step} for step in certificate.inputs)
        )
    return result


class TemplateLibrary:
    """The one-time blasting artifacts of a ``(system, representation)`` pair.

    Holds the flattened system (weakly: see :attr:`flat`), the
    transition-relation template and lazily built per-property templates.
    Obtained through :func:`template_library`, so that every engine and
    every encoder instance built on the same design shares the same blast.
    """

    def __init__(self, system: TransitionSystem, representation: str) -> None:
        self.representation = representation
        with _telemetry.span(
            "encoding.blast",
            design=getattr(system, "name", "?"),
            representation=representation,
        ):
            flat = flattened_cached(system)
            # held weakly: a cone of influence is its own flattening, and a
            # library derived from it must not keep it alive; the design
            # (and through its "flat" entry its flattening) outlives every
            # use of the library
            self._flat = weakref.ref(flat)
            self._property_templates: Dict[str, FrameTemplate] = {}
            if representation == "bit":
                from repro.aig import aig_from_transition_system

                self._builder = _AigTemplateBuilder(
                    flat, aig_from_transition_system(system)
                )
                self.trans_template = self._builder.trans_template()
            else:
                self._builder = None
                self.trans_template = _build_word_trans_template(flat)

    @property
    def flat(self) -> TransitionSystem:
        """The flattened design (alive as long as the design is)."""
        return self._flat()

    def property_template(self, property_name: str) -> FrameTemplate:
        template = self._property_templates.get(property_name)
        if template is None:
            if self._builder is not None:
                template = self._builder.property_template(property_name)
            else:
                template = _build_word_property_template(self.flat, property_name)
            self._property_templates[property_name] = template
        return template


def template_library(system: TransitionSystem, representation: str) -> TemplateLibrary:
    """Return (building once per design if needed) the template library of a design."""
    built = False

    def build() -> TemplateLibrary:
        nonlocal built
        built = True
        return TemplateLibrary(system, representation)

    library = derived(system, ("templates", representation), build)
    _telemetry.counter(
        "encoding.template_library.miss" if built else "encoding.template_library.hit"
    )
    return library


class FrameEncoder:
    """Unrolls a transition system into a :class:`repro.smt.BVSolver`.

    Frames are instantiated from the cached :class:`FrameTemplate` objects of
    the design's :class:`TemplateLibrary` by literal remapping.
    """

    def __init__(
        self,
        system: TransitionSystem,
        solver: Optional[BVSolver] = None,
        proof: bool = False,
        representation: str = "word",
    ) -> None:
        if representation not in ("word", "bit"):
            raise ValueError("representation must be 'word' or 'bit'")
        self.system = system
        self.representation = representation
        self.solver = solver if solver is not None else BVSolver(proof=proof)
        self._library = template_library(system, representation)
        self.flat = self._library.flat
        self._property_literal_cache: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # naming helpers
    # ------------------------------------------------------------------
    def var_at(self, name: str, frame: int) -> Expr:
        """Return the frame-stamped variable for a state var or input."""
        width = self.flat.signal_widths().get(name)
        if width is None:
            raise KeyError(f"unknown signal {name!r}")
        return bv_var(frame_name(name, frame), width)

    def rename_to_frame(self, expr: Expr, frame: int) -> Expr:
        """Stamp every variable of ``expr`` (state vars/inputs) with ``@frame``."""
        return rename(expr, lambda name: frame_name(name, frame))

    def state_vars(self) -> Dict[str, int]:
        """State variable name -> width map of the flattened system."""
        return dict(self.flat.state_vars)

    # ------------------------------------------------------------------
    # word-level constraint building
    # ------------------------------------------------------------------
    def init_exprs(self, frame: int = 0) -> List[Expr]:
        """Initial-state constraints at ``frame``."""
        exprs = []
        for name, init in self.flat.init.items():
            exprs.append(bv_eq(self.var_at(name, frame), init))
        return exprs

    # ------------------------------------------------------------------
    # template instantiation
    # ------------------------------------------------------------------
    def _stamp(
        self, template: FrameTemplate, frame: int, guard: Optional[int] = None
    ) -> List[int]:
        """Instantiate ``template`` at ``frame``; returns the offset table.

        The table maps template variables to solver variables: named roles go
        through the shared frame-stamped bit allocations of the blaster (so
        consecutive frames connect and models read back normally), internal
        gate outputs get a fresh contiguous block.  Clause loading goes
        through the solver's bulk fast path.

        With ``guard`` (an activation variable) the *boundary* clauses — the
        only ones constraining named bits — carry the ``-guard`` literal, so
        the frame only binds the design signals while ``guard`` is assumed
        and is neutralized by :meth:`retire`.  Gate clauses are definitional
        (they constrain fresh internal variables only, and the cone is
        acyclic), so they stay unguarded: with the boundary disabled they are
        satisfiable for every assignment of the named bits.
        """
        _telemetry.counter("encoding.frames_stamped")
        blaster = self.solver.blaster
        sat = self.solver.solver
        table = [0] * (template.num_vars + 1)
        if template.true_var is not None:
            table[template.true_var] = blaster.encoder.true_lit
        for name, width, template_vars in template.cur:
            bits = blaster.bits_of_var(frame_name(name, frame), width)
            for template_var, bit in zip(template_vars, bits):
                table[template_var] = bit
        for name, width, template_vars in template.inp:
            bits = blaster.bits_of_var(frame_name(name, frame), width)
            for template_var, bit in zip(template_vars, bits):
                table[template_var] = bit
        for name, width, template_vars in template.nxt:
            bits = blaster.bits_of_var(frame_name(name, frame + 1), width)
            for template_var, bit in zip(template_vars, bits):
                table[template_var] = bit
        internal = template.internal
        if internal:
            first = sat.new_vars(len(internal))[0]
            base = internal[0]  # == named_count + 1 after canonical renumbering
            for offset, template_var in enumerate(internal):
                table[template_var] = first + offset
            # gate clauses mention only the fresh contiguous block: remap by
            # constant offset, no table lookups, no assignment checks; the
            # two-literal gates go straight into the binary watch pairs
            sat.add_fresh_binary(template.gate_binary, first - base)
            sat.add_fresh_clauses(template.gate_clauses, first - base)
        sat.add_clauses_mapped(template.boundary_clauses, table, guard=guard)
        return table

    # ------------------------------------------------------------------
    # session lifecycle: activation guards and retraction
    # ------------------------------------------------------------------
    def new_activation(self) -> int:
        """Allocate an activation variable guarding a retractable group.

        Pass it as ``guard`` to :meth:`assert_init` / :meth:`assert_trans`
        (or through the solver's guarded assertion helpers), include it in
        the assumptions of every check that should see the group, and call
        :meth:`retire` to drop the group permanently.  This is how one
        encoder session serves a whole engine run: frames are *extended* by
        stamping new template instances and *retracted* by flipping their
        guard, with the solver's learned clauses, variable activities and
        saved phases surviving across bounds.
        """
        return self.solver.new_activation()

    def retire(self, activation: int) -> int:
        """Permanently retract the constraints guarded by ``activation``.

        Returns the clause id of the retiring unit clause.  The guarded
        learned clauses are garbage-collected by the SAT solver (except under
        proof logging).  Any property literal obtained from a *guarded* stamp
        must not be reused afterwards; the stock engines only guard frame and
        assertion groups, never property cones, so the per-frame property
        literal cache stays valid.
        """
        return self.solver.retire(activation)

    # ------------------------------------------------------------------
    # assertion into the solver
    # ------------------------------------------------------------------
    def assert_init(self, frame: int = 0, guard: Optional[int] = None) -> Tuple[int, int]:
        """Assert the initial state at ``frame``; returns the clause-id range.

        With ``guard`` the constraints are activation-guarded (see
        :meth:`new_activation`).
        """
        if self.representation == "bit":
            start = self.solver.solver.num_clauses
            self._assert_bit_init(frame, guard)
            return start, self.solver.solver.num_clauses
        if guard is not None:
            return self.solver.assert_exprs_guarded(self.init_exprs(frame), guard)
        return self.solver.assert_exprs(self.init_exprs(frame))

    def assert_trans(self, frame: int, guard: Optional[int] = None) -> Tuple[int, int]:
        """Assert the transition from ``frame`` to ``frame + 1``; returns clause ids.

        With ``guard`` the frame's boundary clauses are activation-guarded:
        the frame constrains the design signals only while ``guard`` is
        assumed, and :meth:`retire` detaches it permanently (the sliding
        window of k-induction-style loops, spurious-prefix retraction of the
        interpolation engine, and the per-query groups of the refinement
        engines all use this instead of building fresh solvers).

        Deepening a session that has already searched refocuses the branching
        heuristic (:meth:`repro.sat.solver.Solver.reset_activity`): the new
        frame changes the query's shape, and activities tuned to the earlier
        bounds measurably inflate the conflict count of the deeper ones.
        Learned clauses and saved phases are kept.  Fresh solvers (and PDR,
        which stamps its single frame before ever solving) are unaffected —
        the reset is a no-op before the first conflict.
        """
        if self.solver.solver.stats.conflicts:
            self.solver.solver.reset_activity()
        start = self.solver.solver.num_clauses
        self._stamp(self._library.trans_template, frame, guard=guard)
        return start, self.solver.solver.num_clauses

    def property_literal(self, property_name: str, frame: int) -> int:
        """Return a SAT literal equivalent to the property holding at ``frame``."""
        key = (property_name, frame)
        cached = self._property_literal_cache.get(key)
        if cached is not None:
            return cached
        template = self._library.property_template(property_name)
        table = self._stamp(template, frame)
        output = template.output
        assert output is not None
        literal = table[output] if output > 0 else -table[-output]
        self._property_literal_cache[key] = literal
        return literal

    def _assert_bit_init(self, frame: int, guard: Optional[int] = None) -> None:
        """Unit-clause the reset values onto the frame-stamped register bits."""
        blaster = self.solver.blaster
        sat = self.solver.solver
        for name, width in self.flat.state_vars.items():
            value = evaluate(self.flat.init[name], {})
            bits = blaster.bits_of_var(frame_name(name, frame), width)
            for index, bit in enumerate(bits):
                wanted = bit if (value >> index) & 1 else -bit
                if guard is None:
                    sat.add_clause([wanted])
                else:
                    sat.add_clause([-guard, wanted])

    # ------------------------------------------------------------------
    # model extraction
    # ------------------------------------------------------------------
    def _model_value(self, name: str, frame: int, width: int) -> int:
        """Model value of a frame-stamped signal, defaulting to 0.

        Signals the encoding never blasted at ``frame`` (e.g. inputs outside
        the property cone at the violation frame) are unconstrained; they
        read back as a deterministic 0 *without* allocating fresh solver
        variables as a side effect of extraction.
        """
        stamped = frame_name(name, frame)
        if not self.solver.blaster.has_var(stamped):
            return 0
        return self.solver.value(stamped, width)

    def state_at(self, frame: int) -> Dict[str, int]:
        """Read register values at ``frame`` from the last satisfying assignment."""
        values = {}
        for name, width in self.flat.state_vars.items():
            values[name] = self._model_value(name, frame, width)
        return values

    def inputs_at(self, frame: int) -> Dict[str, int]:
        """Read primary input values at ``frame`` from the last satisfying assignment.

        Every declared input is valuated at every frame (unconstrained bits
        default to 0) so counterexample traces fully determine a concrete
        replay through :func:`repro.netlist.simulate.replay`.
        """
        values = {}
        for name, width in self.flat.inputs.items():
            values[name] = self._model_value(name, frame, width)
        return values

    def extract_counterexample(self, property_name: str, length: int) -> Counterexample:
        """Build a counterexample trace covering frames 0..length (inclusive)."""
        steps = []
        for frame in range(length + 1):
            step = {}
            step.update(self.state_at(frame))
            step.update(self.inputs_at(frame))
            steps.append(step)
        return Counterexample(property_name=property_name, steps=steps)
