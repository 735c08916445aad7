"""CDCL SAT solver with optional resolution-proof logging.

The solver implements the standard conflict-driven clause-learning loop:
two-watched-literal propagation with a dedicated binary-clause fast path,
first-UIP conflict analysis with self-subsuming clause minimization,
VSIDS-style variable activities on an indexed mutable binary heap with phase
saving, and Luby restarts.  It supports incremental solving under assumptions
(the MiniSat-style interface used by the PDR/IC3 and k-induction engines)
and, when ``proof=True``, records the resolution derivation of every learned
clause so that Craig interpolants can be extracted from refutations (used by
the interpolation-based engines).  When a solve under assumptions is
unsatisfiable, a proof-logging solver additionally records the resolution
chain deriving a clause over the negated failed assumptions
(:attr:`Solver.assumption_core_chain`), so interpolants can be extracted from
assumption-based (retractable) queries as well.  Only a proof-logging solver
records such a core; any solver tells a refuted clause database (:attr:`Solver.ok`
is False) from assumptions that conflict with it.

Long-lived *sessions* retract constraint groups through activation literals:
clauses guarded by ``-act`` are active while ``act`` is assumed and are
permanently disabled by :meth:`Solver.retire_activation`, which also
garbage-collects the learned clauses that depended on the guard.

The solver has one setting, ``proof``; the learned-clause database
reduction follows the module constants :data:`REDUCE_BASE` and
:data:`REDUCE_GROWTH`.

The implementation favours clarity over raw speed; the benchmark circuits in
this reproduction are sized so that a pure-Python solver handles them.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sat.cnf import CNF, var_of

#: live learned clauses that trigger the first learned-clause database
#: reduction; each reduction multiplies the threshold by REDUCE_GROWTH
REDUCE_BASE = 2000
REDUCE_GROWTH = 1.3


class SolverResult:
    """Tri-state result of a :meth:`Solver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SolverInterrupted(Exception):
    """Raised inside :meth:`Solver.solve` when an armed deadline expires.

    Armed with :meth:`Solver.set_deadline`, checked cooperatively in the
    propagate/decide loop (not only on conflicts), so even a solve that
    produces no conflicts — deep propagation, decision-heavy plateaus, or a
    wedged search injected by the chaos harness — is interrupted without
    killing the process.  The solver backtracks to level 0 before raising,
    so it remains usable afterwards.
    """


class SolverStats:
    """Counters describing the work performed by the solver."""

    __slots__ = (
        "decisions", "conflicts", "propagations", "restarts", "learned_clauses",
        "max_decision_level", "reduce_db", "deleted_clauses", "minimized_literals",
        "retired_activations", "retired_clauses",
    )

    def __init__(
        self,
        decisions: int = 0,
        conflicts: int = 0,
        propagations: int = 0,
        restarts: int = 0,
        learned_clauses: int = 0,
        max_decision_level: int = 0,
        reduce_db: int = 0,
        deleted_clauses: int = 0,
        minimized_literals: int = 0,
        retired_activations: int = 0,
        retired_clauses: int = 0,
    ) -> None:
        self.decisions = decisions
        self.conflicts = conflicts
        self.propagations = propagations
        self.restarts = restarts
        self.learned_clauses = learned_clauses
        self.max_decision_level = max_decision_level
        #: learned-clause database reductions performed (see Solver._reduce_db)
        self.reduce_db = reduce_db
        #: learned clauses deleted by database reductions
        self.deleted_clauses = deleted_clauses
        #: literals removed from learned clauses by self-subsuming minimization
        self.minimized_literals = minimized_literals
        #: activation literals permanently retired (see Solver.retire_activation)
        self.retired_activations = retired_activations
        #: learned clauses garbage-collected because they depended on a retired guard
        self.retired_clauses = retired_clauses

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (JSON reports, CLI output)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def add(self, other: "SolverStats") -> None:
        """Accumulate another solver's counters into this one."""
        for name in self.__slots__:
            if name == "max_decision_level":
                self.max_decision_level = max(self.max_decision_level, other.max_decision_level)
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))


def luby(index: int) -> int:
    """Return the ``index``-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...:
    whenever ``index`` is ``2**k - 1`` the value is ``2**(k - 1)``, otherwise
    recurse on ``index - (2**k - 1)`` for the largest such block below it.
    (The original recurrence subtracted ``2**(k - 1) - 1``, which loops
    forever for ``index == 2`` — any solve reaching its second restart hung.)
    """
    k = 1
    while (1 << (k + 1)) - 1 <= index:
        k += 1
    while index != (1 << k) - 1:
        index -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= index:
            k += 1
    return 1 << (k - 1)


#: Proof chain: (antecedent clause ids, pivot variables).  Resolving the
#: antecedents left to right on the given pivots yields the derived clause.
ProofChain = Tuple[Tuple[int, ...], Tuple[int, ...]]


class Solver:
    """A CDCL SAT solver.

    Parameters
    ----------
    proof:
        When True, the solver records for every learned clause the sequence of
        antecedent clauses and resolution pivots used to derive it, and on a
        final refutation stores the chain deriving the empty clause.  This is
        required by :class:`repro.sat.interpolate.Interpolator`.  Proof
        logging disables learned-clause garbage collection (deleted clauses
        could be antecedents of the final refutation).

    :data:`REDUCE_BASE` live learned clauses trigger the first database
    reduction, and each reduction raises the threshold by
    :data:`REDUCE_GROWTH`.  The reduction keeps the learned part of deep
    unrolls in check; original (problem) clauses are never touched.
    """

    #: decisions between cooperative deadline checks in the search loop
    CHECK_INTERVAL = 128

    #: process-wide hook called at every cooperative checkpoint (used by the
    #: fault-injection harness to wedge a solve mid-search); ``None`` normally
    fault_hook = None

    def __init__(self, proof: bool = False) -> None:
        self.proof_logging = proof
        self.stats = SolverStats()
        #: armed cooperative deadline (see :meth:`set_deadline`)
        self._deadline: Optional[float] = None

        # learned-clause database reduction (clause GC)
        self._next_reduce = REDUCE_BASE
        #: live learned clause id -> activity (bumped when used in analysis)
        self._learned_activity: Dict[int, float] = {}
        #: live learned clause id -> literal-block distance at learn time
        self._learned_lbd: Dict[int, int] = {}
        self._cla_inc = 1.0
        self._cla_decay = 0.999

        # clause storage: clause id -> list of literals (watched literals first)
        self._clauses: List[List[int]] = []
        self._clause_learned: List[bool] = []
        # proof: clause id -> (antecedent clause ids, pivot vars) or None
        self.clause_proof: List[Optional[ProofChain]] = []
        # final refutation proof (set when solve() returns UNSAT at level 0)
        self.final_proof: Optional[ProofChain] = None

        self._num_vars = 0
        # per-variable state, index 0 unused
        self._assign: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # watch lists indexed by literal: literal l occupies slot 2*|l| (+1 if
        # negative), so propagation is pure list indexing, no dict churn;
        # slots start as None and get their list on first use — bulk variable
        # allocation (template stamping) then never creates empty list objects
        self._watches: List[Optional[List[int]]] = [None, None]
        # binary-clause fast path: slot idx(l) holds (other, cid) pairs of the
        # two-literal clauses containing -l — propagation touches each pair
        # with two list reads instead of the generic watched-literal machinery
        self._bin_watches: List[Optional[List[Tuple[int, int]]]] = [None, None]
        # literal-indexed truth values (same indexing): 0 unassigned,
        # 1 true, -1 false; kept in sync by _enqueue/_cancel_until
        self._lit_value: List[int] = [0, 0]
        self._queue_head = 0
        # VSIDS order: an indexed mutable binary max-heap over activities.
        # _heap holds variables, _heap_pos[var] its position (-1 when absent),
        # so bumps sift in place instead of flooding a tuple heap with stale
        # entries that every pick has to skip over.
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]

        self._var_inc = 1.0
        self._var_decay = 0.95

        self._ok = True  # False once a top-level refutation has been found
        #: resolution chain deriving :attr:`assumption_core` from the clause
        #: database when the last solve was UNSAT under assumptions (requires
        #: ``proof=True``); the derived clause's literals are negations of
        #: failed assumptions, so resolving it against the assumption "unit
        #: clauses" yields the empty clause (used by the interpolator)
        self.assumption_core_chain: Optional[ProofChain] = None
        #: the clause derived by :attr:`assumption_core_chain`
        self.assumption_core: Tuple[int, ...] = ()
        self._model: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return it."""
        self._num_vars += 1
        self._assign.append(None)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append(None)
        self._watches.append(None)
        self._bin_watches.append(None)
        self._bin_watches.append(None)
        self._lit_value.append(0)
        self._lit_value.append(0)
        # a fresh variable has the minimum activity (0.0), so appending it at
        # a heap leaf keeps the heap property without sifting
        self._heap_pos.append(len(self._heap))
        self._heap.append(self._num_vars)
        return self._num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables; returns them as a contiguous block.

        Bulk-extends the per-variable arrays instead of growing them one
        variable at a time; frame-template instantiation allocates its
        internal gate variables through this.
        """
        if count <= 0:
            return []
        first = self._num_vars + 1
        self._num_vars += count
        self._assign.extend([None] * count)
        self._level.extend([0] * count)
        self._reason.extend([None] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend([False] * count)
        self._watches.extend([None] * (2 * count))
        self._bin_watches.extend([None] * (2 * count))
        self._lit_value.extend([0] * (2 * count))
        fresh = list(range(first, first + count))
        # fresh variables carry the minimum activity (0.0): bulk-appending
        # them as heap leaves keeps the heap property without any sifting
        heap = self._heap
        base = len(heap)
        self._heap_pos.extend(range(base, base + count))
        heap.extend(fresh)
        return fresh

    def ensure_vars(self, num_vars: int) -> None:
        """Make sure variables ``1..num_vars`` exist."""
        while self._num_vars < num_vars:
            self.new_var()

    # ------------------------------------------------------------------
    # VSIDS order heap (indexed mutable binary max-heap over activities)
    # ------------------------------------------------------------------
    def _heap_sift_up(self, pos: int) -> None:
        heap = self._heap
        heap_pos = self._heap_pos
        activity = self._activity
        var = heap[pos]
        value = activity[var]
        while pos > 0:
            parent = (pos - 1) >> 1
            parent_var = heap[parent]
            if activity[parent_var] >= value:
                break
            heap[pos] = parent_var
            heap_pos[parent_var] = pos
            pos = parent
        heap[pos] = var
        heap_pos[var] = pos

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def ok(self) -> bool:
        """False if the clause database is already unsatisfiable at level 0."""
        return self._ok

    def add_cnf(self, cnf: CNF) -> List[int]:
        """Add all clauses of a :class:`CNF` and return their clause ids."""
        self.ensure_vars(cnf.num_vars)
        return [self.add_clause(clause) for clause in cnf.clauses]

    def add_clause(self, literals: Iterable[int]) -> int:
        """Add a clause; returns its clause id (usable for proof bookkeeping).

        Clauses may be added at any time between ``solve`` calls; the solver
        backtracks to level 0 automatically.
        """
        if self._trail_lim:
            self._cancel_until(0)
        clause = list(dict.fromkeys(literals))  # dedupe, keep order
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            self.ensure_vars(var_of(lit))

        if any(-lit in clause for lit in clause):
            # tautology: satisfied by every assignment, never needs watching
            cid = len(self._clauses)
            self._clauses.append(clause)
            self._clause_learned.append(False)
            self.clause_proof.append(None)
            return cid

        return self._install_clause(clause)

    def add_clauses_mapped(
        self,
        clauses: Iterable[Sequence[int]],
        table: Sequence[int],
        guard: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Bulk-add pre-normalized clauses remapped through a variable table.

        ``table[v]`` is the (positive) solver variable standing in for
        variable ``v`` of the clause set; literal ``l`` maps to ``table[l]``
        when positive and ``-table[-l]`` when negative.  This is the fast path
        used by :class:`repro.engines.encoding.FrameTemplate` to stamp a
        bit-blasted time-frame template into the solver with pure integer
        arithmetic.  The clauses must already be normalized (non-empty, no
        duplicate literals, no tautologies), so the per-clause Python overhead
        of :meth:`add_clause` (dedupe, tautology scan, per-literal variable
        growth) is skipped.  Returns the covering (start, end) clause-id range.

        When ``guard`` is given (a positive activation variable), every clause
        additionally receives the literal ``-guard``: the group only
        constrains the solver while ``guard`` is passed as an assumption, and
        is permanently disabled by :meth:`retire_activation`.
        """
        if self._trail_lim:
            self._cancel_until(0)
        top = 0
        for solver_var in table:
            if solver_var > top:
                top = solver_var
        if guard is not None and guard > top:
            top = guard
        self.ensure_vars(top)

        clause_db = self._clauses
        learned = self._clause_learned
        proofs = self.clause_proof
        lit_value = self._lit_value
        watches = self._watches
        start = len(clause_db)
        ok = self._ok
        neg_guard = -guard if guard is not None else None
        for template_clause in clauses:
            mapped = [table[l] if l > 0 else -table[-l] for l in template_clause]
            if neg_guard is not None:
                mapped.append(neg_guard)
            cid = len(clause_db)
            clause_db.append(mapped)
            learned.append(False)
            proofs.append(None)
            if not ok:
                continue
            if len(mapped) >= 2:
                # fast path: both watch candidates non-false (the common case,
                # template clauses mostly mention fresh internal variables)
                a = mapped[0]
                b = mapped[1]
                if (
                    lit_value[(a << 1) if a > 0 else (((-a) << 1) | 1)] >= 0
                    and lit_value[(b << 1) if b > 0 else (((-b) << 1) | 1)] >= 0
                ):
                    if len(mapped) == 2:
                        self._watch_binary(a, b, cid)
                    else:
                        index = ((-a) << 1) if a < 0 else ((a << 1) | 1)
                        if watches[index] is None:
                            watches[index] = [cid]
                        else:
                            watches[index].append(cid)
                        index = ((-b) << 1) if b < 0 else ((b << 1) | 1)
                        if watches[index] is None:
                            watches[index] = [cid]
                        else:
                            watches[index].append(cid)
                    continue
            self._finish_install(cid)
            ok = self._ok
        return start, len(clause_db)

    def add_fresh_clauses(self, clauses: Iterable[Sequence[int]], delta: int) -> Tuple[int, int]:
        """Bulk-add clauses whose variables are all freshly allocated.

        Every literal is shifted by ``delta`` (``l + delta`` positive,
        ``l - delta`` negative); the target variables must have just been
        allocated with :meth:`new_vars` and still be unassigned, and every
        clause must have at least two literals.  Under those guarantees the
        watched-literal invariant holds for the first two literals with no
        value checks at all — this is the hottest path of frame-template
        instantiation (the internal Tseitin gate clauses of a frame).
        """
        if self._trail_lim:
            self._cancel_until(0)
        clause_db = self._clauses
        watches = self._watches
        start = len(clause_db)
        mapped_all = [
            [l + delta if l > 0 else l - delta for l in template_clause]
            for template_clause in clauses
        ]
        clause_db.extend(mapped_all)
        count = len(mapped_all)
        self._clause_learned.extend([False] * count)
        self.clause_proof.extend([None] * count)
        if self._ok:
            bin_watches = self._bin_watches
            cid = start
            for mapped in mapped_all:
                a = mapped[0]
                b = mapped[1]
                if len(mapped) == 2:
                    index = ((-a) << 1) if a < 0 else ((a << 1) | 1)
                    if bin_watches[index] is None:
                        bin_watches[index] = [(b, cid)]
                    else:
                        bin_watches[index].append((b, cid))
                    index = ((-b) << 1) if b < 0 else ((b << 1) | 1)
                    if bin_watches[index] is None:
                        bin_watches[index] = [(a, cid)]
                    else:
                        bin_watches[index].append((a, cid))
                else:
                    index = ((-a) << 1) if a < 0 else ((a << 1) | 1)
                    if watches[index] is None:
                        watches[index] = [cid]
                    else:
                        watches[index].append(cid)
                    index = ((-b) << 1) if b < 0 else ((b << 1) | 1)
                    if watches[index] is None:
                        watches[index] = [cid]
                    else:
                        watches[index].append(cid)
                cid += 1
        return start, len(clause_db)

    def add_fresh_binary(
        self, pairs: Iterable[Sequence[int]], delta: int
    ) -> Tuple[int, int]:
        """Bulk-add fresh two-literal clauses shifted by ``delta``.

        The binary companion of :meth:`add_fresh_clauses`: the target
        variables must be freshly allocated and unassigned.  Registration
        goes straight into the binary watch-pair lists with no per-clause
        length dispatch — templates pre-split their gate clauses so this
        loop, the hottest part of frame stamping, stays branch-light.
        """
        if self._trail_lim:
            self._cancel_until(0)
        clause_db = self._clauses
        bin_watches = self._bin_watches
        start = len(clause_db)
        mapped_all = [
            [a + delta if a > 0 else a - delta, b + delta if b > 0 else b - delta]
            for a, b in pairs
        ]
        clause_db.extend(mapped_all)
        count = len(mapped_all)
        self._clause_learned.extend([False] * count)
        self.clause_proof.extend([None] * count)
        if self._ok:
            cid = start
            for a, b in mapped_all:
                index = ((-a) << 1) if a < 0 else ((a << 1) | 1)
                pair_list = bin_watches[index]
                if pair_list is None:
                    bin_watches[index] = [(b, cid)]
                else:
                    pair_list.append((b, cid))
                index = ((-b) << 1) if b < 0 else ((b << 1) | 1)
                pair_list = bin_watches[index]
                if pair_list is None:
                    bin_watches[index] = [(a, cid)]
                else:
                    pair_list.append((a, cid))
                cid += 1
        return start, len(clause_db)

    def _install_clause(self, clause: List[int]) -> int:
        """Install a normalized clause (deduped, non-tautological, vars allocated).

        The solver must be at decision level 0.  Shared by :meth:`add_clause`
        and :meth:`add_clauses_mapped`.
        """
        cid = len(self._clauses)
        self._clauses.append(clause)
        self._clause_learned.append(False)
        self.clause_proof.append(None)
        self._finish_install(cid)
        return cid

    def _finish_install(self, cid: int) -> None:
        """Set up watches/propagation for an already-appended original clause."""
        clause = self._clauses[cid]

        if not clause:
            self._ok = False
            if self.proof_logging:
                self.final_proof = ((cid,), ())
            return

        if not self._ok:
            return

        # Move non-false literals to the watch positions so that the
        # watched-literal invariant holds even for clauses containing
        # literals already falsified at level 0.
        non_false = [i for i, lit in enumerate(clause) if self._value(lit) is not False]
        if len(non_false) == 0:
            self._ok = False
            if self.proof_logging:
                self.final_proof = self._derive_empty_from_conflict(cid)
            return
        if len(non_false) == 1 or len(clause) == 1:
            unit_lit = clause[non_false[0]]
            if len(clause) >= 2:
                clause[0], clause[non_false[0]] = clause[non_false[0]], clause[0]
                self._watch_clause(cid)
            if self._value(unit_lit) is None:
                self._enqueue(unit_lit, cid)
                conflict = self._propagate()
                if conflict is not None:
                    self._ok = False
                    if self.proof_logging:
                        self.final_proof = self._derive_empty_from_conflict(conflict)
            return

        first, second = non_false[0], non_false[1]
        clause[0], clause[first] = clause[first], clause[0]
        if second == 0:
            second = first
        clause[1], clause[second] = clause[second], clause[1]
        self._watch_clause(cid)

    def clause_literals(self, cid: int) -> Tuple[int, ...]:
        """Return the literals of clause ``cid``."""
        return tuple(self._clauses[cid])

    def is_learned(self, cid: int) -> bool:
        """Return True if clause ``cid`` was learned by conflict analysis."""
        return self._clause_learned[cid]

    # ------------------------------------------------------------------
    # assignment helpers
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        value = self._lit_value[(lit << 1) if lit > 0 else (((-lit) << 1) | 1)]
        if value == 0:
            return None
        return value > 0

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = lit if lit > 0 else -lit
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        index = var << 1
        if lit > 0:
            self._lit_value[index] = 1
            self._lit_value[index | 1] = -1
        else:
            self._lit_value[index] = -1
            self._lit_value[index | 1] = 1
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        lit_value = self._lit_value
        heap = self._heap
        heap_pos = self._heap_pos
        activity = self._activity
        assign = self._assign
        phase = self._phase
        reason = self._reason
        for lit in reversed(self._trail[limit:]):
            var = lit if lit > 0 else -lit
            phase[var] = bool(assign[var])  # phase saving
            assign[var] = None
            reason[var] = None
            index = var << 1
            lit_value[index] = 0
            lit_value[index | 1] = 0
            if heap_pos[var] < 0:
                # inlined heap insert + sift-up
                pos = len(heap)
                heap.append(var)
                value = activity[var]
                while pos > 0:
                    parent = (pos - 1) >> 1
                    parent_var = heap[parent]
                    if activity[parent_var] >= value:
                        break
                    heap[pos] = parent_var
                    heap_pos[parent_var] = pos
                    pos = parent
                heap[pos] = var
                heap_pos[var] = pos
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    # ------------------------------------------------------------------
    # watched literal propagation
    # ------------------------------------------------------------------
    def _watch_clause(self, cid: int) -> None:
        clause = self._clauses[cid]
        if len(clause) == 2:
            # binary clauses live in the dedicated pair lists; both literals
            # are always watched, so the registration never needs maintenance
            self._watch_binary(clause[0], clause[1], cid)
            return
        watches = self._watches
        lit = -clause[0]
        index = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)
        if watches[index] is None:
            watches[index] = [cid]
        else:
            watches[index].append(cid)
        if len(clause) >= 2:
            lit = -clause[1]
            index = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)
            if watches[index] is None:
                watches[index] = [cid]
            else:
                watches[index].append(cid)

    def _watch_binary(self, a: int, b: int, cid: int) -> None:
        """Register a two-literal clause in the binary watch lists."""
        bin_watches = self._bin_watches
        index = ((-a) << 1) if a < 0 else ((a << 1) | 1)
        if bin_watches[index] is None:
            bin_watches[index] = [(b, cid)]
        else:
            bin_watches[index].append((b, cid))
        index = ((-b) << 1) if b < 0 else ((b << 1) | 1)
        if bin_watches[index] is None:
            bin_watches[index] = [(a, cid)]
        else:
            bin_watches[index].append((a, cid))

    def _propagate(self) -> Optional[int]:
        """Propagate all enqueued literals; return a conflicting clause id or None.

        Implied literals are assigned inline (what :meth:`_enqueue` does, at
        the one decision level a call runs at), and ``stats.propagations``
        grows once per call by the number of literals dequeued.
        """
        trail = self._trail
        clauses = self._clauses
        watches = self._watches
        bin_watches = self._bin_watches
        lit_value = self._lit_value
        assign = self._assign
        levels = self._level
        reasons = self._reason
        level = len(self._trail_lim)
        start = head = self._queue_head
        conflict: Optional[int] = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            watch_index = (lit << 1) if lit > 0 else (((-lit) << 1) | 1)
            # binary fast path: each pair resolves with two list reads — the
            # other literal is either true (skip), false (conflict) or
            # unassigned (propagate); no watch moves, no clause scans
            pairs = bin_watches[watch_index]
            if pairs:
                for other, bin_cid in pairs:
                    index = (other << 1) if other > 0 else (((-other) << 1) | 1)
                    value = lit_value[index]
                    if value == 0:
                        lit_value[index] = 1
                        lit_value[index ^ 1] = -1
                        var = index >> 1
                        assign[var] = other > 0
                        levels[var] = level
                        reasons[var] = bin_cid
                        trail.append(other)
                    elif value < 0:
                        self._queue_head = head
                        self.stats.propagations += head - start
                        return bin_cid
            watchers = watches[watch_index]
            if not watchers:
                continue
            new_watchers: List[int] = []
            i = 0
            n = len(watchers)
            false_lit = -lit
            while i < n:
                cid = watchers[i]
                i += 1
                clause = clauses[cid]
                if not clause:
                    # deleted by a DB reduction: drop it from this watch list
                    continue
                if len(clause) == 1:
                    new_watchers.append(cid)
                    only = clause[0]
                    if lit_value[(only << 1) if only > 0 else (((-only) << 1) | 1)] < 0:
                        new_watchers.extend(watchers[i:])
                        conflict = cid
                        break
                    continue
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                # now clause[1] == false_lit
                first = clause[0]
                first_index = (first << 1) if first > 0 else (((-first) << 1) | 1)
                first_value = lit_value[first_index]
                if first_value > 0:
                    new_watchers.append(cid)
                    continue
                found = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    if lit_value[(other << 1) if other > 0 else (((-other) << 1) | 1)] >= 0:
                        clause[1], clause[k] = other, clause[1]
                        move_index = ((-other) << 1) if other < 0 else ((other << 1) | 1)
                        if watches[move_index] is None:
                            watches[move_index] = [cid]
                        else:
                            watches[move_index].append(cid)
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                new_watchers.append(cid)
                if first_value < 0:
                    new_watchers.extend(watchers[i:])
                    conflict = cid
                    break
                lit_value[first_index] = 1
                lit_value[first_index ^ 1] = -1
                var = first_index >> 1
                assign[var] = first > 0
                levels[var] = level
                reasons[var] = cid
                trail.append(first)
            watches[watch_index] = new_watchers
            if conflict is not None:
                break
        self._queue_head = head
        self.stats.propagations += head - start
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            # rescale in place over exactly the allocated vars (the activity
            # list has one slot per variable); uniform scaling preserves the
            # heap order, so no re-heapify is needed
            self._activity = [a * 1e-100 for a in activity]
            self._var_inc *= 1e-100
        pos = self._heap_pos[var]
        if pos >= 0:
            self._heap_sift_up(pos)

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _bump_clause_activity(self, cid: int) -> None:
        """Bump a learned clause used as an antecedent in conflict analysis."""
        activity = self._learned_activity.get(cid)
        if activity is None:
            return
        activity += self._cla_inc
        self._learned_activity[cid] = activity
        if activity > 1e20:
            for other in self._learned_activity:
                self._learned_activity[other] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> Tuple[List[int], int, ProofChain]:
        """First-UIP conflict analysis.

        Returns ``(learned_clause, backtrack_level, proof_chain)`` where the
        learned clause has the asserting literal first and a literal from the
        backtrack level second (preserving the watched-literal invariant).
        Literals assigned at level 0 are kept in the learned clause so that
        the recorded resolution chain derives exactly the returned clause.
        """
        learned: List[int] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        resolve_lit: Optional[int] = None
        clause_id = conflict
        current_level = self._decision_level()
        index = len(self._trail) - 1

        antecedents: List[int] = [conflict]
        pivots: List[int] = []
        self._bump_clause_activity(conflict)

        while True:
            for lit in self._clauses[clause_id]:
                var = var_of(lit)
                if seen[var]:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # next current-level literal to resolve, scanning the trail backwards
            while not seen[var_of(self._trail[index])]:
                index -= 1
            resolve_lit = self._trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                learned = [-resolve_lit] + learned
                break
            reason_id = self._reason[var_of(resolve_lit)]
            assert reason_id is not None, "non-UIP current-level literal must have a reason"
            clause_id = reason_id
            antecedents.append(reason_id)
            pivots.append(var_of(resolve_lit))
            self._bump_clause_activity(reason_id)

        if len(learned) > 1:
            learned = self._minimize(learned, antecedents, pivots)

        if len(learned) == 1:
            backtrack = 0
        else:
            # place a literal of the highest remaining level at position 1
            best = 1
            for i in range(2, len(learned)):
                if self._level[var_of(learned[i])] > self._level[var_of(learned[best])]:
                    best = i
            learned[1], learned[best] = learned[best], learned[1]
            backtrack = self._level[var_of(learned[1])]
        return learned, backtrack, (tuple(antecedents), tuple(pivots))

    def _minimize(
        self, learned: List[int], antecedents: List[int], pivots: List[int]
    ) -> List[int]:
        """Self-subsuming resolution over the freshly learned clause.

        A literal is redundant when its reason clause's remaining literals are
        all already in the clause: resolving the two removes the literal and
        introduces nothing new.  Each removal is one more recorded resolution
        step, so the proof chain still derives exactly the returned clause
        (removals are checked against the clause *as minimized so far* — a
        literal whose reason mentions an already-removed literal is kept).
        The first literal (the asserting UIP) is never touched.
        """
        remaining = set(learned)
        clauses = self._clauses
        reasons = self._reason
        kept = [learned[0]]
        removed = 0
        for lit in learned[1:]:
            var = lit if lit > 0 else -lit
            reason_id = reasons[var]
            removable = False
            if reason_id is not None:
                removable = True
                neg_lit = -lit
                for other in clauses[reason_id]:
                    if other != neg_lit and other not in remaining:
                        removable = False
                        break
            if removable:
                remaining.discard(lit)
                antecedents.append(reason_id)
                pivots.append(var)
                self._bump_clause_activity(reason_id)
                removed += 1
            else:
                kept.append(lit)
        if removed:
            self.stats.minimized_literals += removed
            return kept
        return learned

    def _derive_empty_from_conflict(self, conflict: int) -> ProofChain:
        """Build the resolution chain refuting a level-0 conflict.

        Every literal of the conflicting clause is false at level 0 and has a
        reason clause; resolving them away in reverse assignment order yields
        the empty clause.
        """
        position = {var_of(lit): i for i, lit in enumerate(self._trail)}
        current: Set[int] = set(self._clauses[conflict])
        antecedents: List[int] = [conflict]
        pivots: List[int] = []
        guard = 0
        limit = 10 * (len(self._trail) + len(self._clauses) + 10)
        while current:
            guard += 1
            if guard > limit:  # pragma: no cover - defensive
                break
            lit = max(current, key=lambda l: position.get(var_of(l), -1))
            var = var_of(lit)
            reason_id = self._reason[var]
            if reason_id is None:  # pragma: no cover - defensive
                break
            current.discard(lit)
            for other in self._clauses[reason_id]:
                if var_of(other) != var:
                    current.add(other)
            antecedents.append(reason_id)
            pivots.append(var)
        return tuple(antecedents), tuple(pivots)

    def _record_learned(self, clause: List[int], proof_chain: ProofChain, lbd: int = 1) -> int:
        cid = len(self._clauses)
        self._clauses.append(list(clause))
        self._clause_learned.append(True)
        self.clause_proof.append(proof_chain if self.proof_logging else None)
        self.stats.learned_clauses += 1
        self._learned_activity[cid] = self._cla_inc
        self._learned_lbd[cid] = lbd
        if len(clause) >= 2:
            self._watch_clause(cid)
        return cid

    # ------------------------------------------------------------------
    # learned-clause database reduction (clause GC)
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Delete the less useful half of the removable learned clauses.

        Clauses are ranked Glucose-style: higher literal-block distance first,
        then lower activity.  *Glue* clauses (LBD <= 2), binary/unit clauses
        and clauses currently locked as the reason of an assignment are never
        deleted.  Deletion empties the clause in place (clause ids stay
        stable for the proof/interpolation machinery); watch lists drop the
        dead entries lazily during propagation.
        """
        locked = set()
        for lit in self._trail:
            reason = self._reason[var_of(lit)]
            if reason is not None:
                locked.add(reason)
        clauses = self._clauses
        candidates = [
            cid
            for cid, lbd in self._learned_lbd.items()
            if lbd > 2 and len(clauses[cid]) > 2 and cid not in locked
        ]
        self.stats.reduce_db += 1
        self._next_reduce = int(self._next_reduce * REDUCE_GROWTH) + 1
        if not candidates:
            return
        activity = self._learned_activity
        lbds = self._learned_lbd
        candidates.sort(key=lambda cid: (-lbds[cid], activity[cid]))
        for cid in candidates[: len(candidates) // 2]:
            clauses[cid] = []
            del activity[cid]
            del lbds[cid]
            self.stats.deleted_clauses += 1

    # ------------------------------------------------------------------
    # session refocus
    # ------------------------------------------------------------------
    def reset_activity(self) -> None:
        """Zero every VSIDS activity and restart the bump increment.

        Long-lived sessions call this when the query changes *shape* — a new
        time frame enters the database — so the search refocuses on the new
        logic instead of following activity accumulated by earlier bounds
        (which measurably inflates conflicts on deep incremental runs).
        Saved phases and learned clauses are kept.  All activities become
        equal, so the heap property holds trivially and no re-heapify is
        needed.
        """
        self._activity = [0.0] * (self._num_vars + 1)
        self._var_inc = 1.0

    # ------------------------------------------------------------------
    # activation-literal retraction (persistent sessions)
    # ------------------------------------------------------------------
    def retire_activation(self, act: int) -> int:
        """Permanently disable the clauses guarded by activation ``act``.

        Adds the unit clause ``[-act]`` (so every clause carrying the
        ``-act`` guard literal is satisfied forever) and garbage-collects the
        learned clauses that recorded a dependency on the activation — those
        containing ``-act`` — since they can never propagate again.  Learned
        GC is skipped under proof logging (retired clauses may be antecedents
        of a later refutation) and for binary clauses (their watch pairs are
        immutable).  Returns the clause id of the retiring unit.
        """
        self.stats.retired_activations += 1
        cid = self.add_clause([-act])
        if not self.proof_logging:
            self._collect_retired(-act)
        return cid

    def _collect_retired(self, guard_lit: int) -> None:
        """Delete learned clauses containing ``guard_lit`` (now satisfied forever)."""
        locked = set()
        for lit in self._trail:
            reason = self._reason[var_of(lit)]
            if reason is not None:
                locked.add(reason)
        clauses = self._clauses
        activity = self._learned_activity
        lbds = self._learned_lbd
        retired = 0
        for cid in list(lbds):
            clause = clauses[cid]
            if len(clause) > 2 and cid not in locked and guard_lit in clause:
                clauses[cid] = []
                del activity[cid]
                del lbds[cid]
                retired += 1
        self.stats.retired_clauses += retired

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> Optional[int]:
        # inlined heap pops: assigned variables surfacing at the root are
        # discarded until an unassigned one appears (they re-enter the heap
        # on backtracking); hoisting the lists keeps this hot loop tight
        heap = self._heap
        heap_pos = self._heap_pos
        activity = self._activity
        assign = self._assign
        while heap:
            top = heap[0]
            heap_pos[top] = -1
            last = heap.pop()
            size = len(heap)
            if size:
                # sift the displaced leaf down from the root
                value = activity[last]
                pos = 0
                child = 1
                while child < size:
                    right = child + 1
                    if right < size and activity[heap[right]] > activity[heap[child]]:
                        child = right
                    child_var = heap[child]
                    if value >= activity[child_var]:
                        break
                    heap[pos] = child_var
                    heap_pos[child_var] = pos
                    pos = child
                    child = 2 * pos + 1
                heap[pos] = last
                heap_pos[last] = pos
            if assign[top] is None:
                return top
        # heap exhausted: fall back to a scan (covers vars never re-inserted)
        for var in range(1, self._num_vars + 1):
            if assign[var] is None:
                return var
        return None

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Arm a cooperative absolute ``time.monotonic()`` deadline.

        Unlike the ``deadline`` argument of :meth:`solve` (which is polled
        only when conflicts occur and makes the call return ``UNKNOWN``),
        the armed deadline is checked in the decide loop as well — every
        :data:`CHECK_INTERVAL` decisions — and expiry raises the catchable
        :class:`SolverInterrupted`, so deep conflict-free solves are
        interrupted too.  ``None`` disarms.
        """
        self._deadline = deadline

    def _checkpoint(self, deadline: Optional[float]) -> bool:
        """Cooperative interruption point, reached periodically by the search.

        Runs the process-wide :attr:`fault_hook` (chaos harness) if one is
        installed, raises :class:`SolverInterrupted` when the armed instance
        deadline has expired, and returns True when the per-call ``deadline``
        has (the caller then returns ``UNKNOWN``).
        """
        hook = Solver.fault_hook
        if hook is not None:
            hook(self)
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._cancel_until(0)
            raise SolverInterrupted(
                f"solver deadline exceeded after {self.stats.conflicts} conflicts, "
                f"{self.stats.decisions} decisions"
            )
        return deadline is not None and time.monotonic() > deadline

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> str:
        """Solve the current clause database under the given assumptions.

        Returns one of :data:`SolverResult.SAT`, :data:`SolverResult.UNSAT`
        or :data:`SolverResult.UNKNOWN` (when ``conflict_limit`` or the
        wall-clock ``deadline`` from ``time.monotonic()`` is exceeded).
        A deadline armed with :meth:`set_deadline` is additionally checked
        every :data:`CHECK_INTERVAL` decisions and raises
        :class:`SolverInterrupted` instead.
        On SAT, :meth:`model_value` reports the satisfying assignment.  An
        UNSAT leaves :attr:`ok` False exactly when the clause database itself
        is refuted; otherwise some assumptions conflict with it, and a
        proof-logging solver records their core (:attr:`assumption_core`).
        """
        self.assumption_core_chain = None
        self.assumption_core = ()
        self._model = {}
        if not self._ok:
            return SolverResult.UNSAT
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            if self.proof_logging:
                self.final_proof = self._derive_empty_from_conflict(conflict)
            return SolverResult.UNSAT

        assumptions = list(assumptions)
        for lit in assumptions:
            self.ensure_vars(var_of(lit))
        conflicts_since_restart = 0
        restart_index = 1
        restart_limit = 64 * luby(restart_index)
        total_conflicts = 0
        decisions_since_check = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                total_conflicts += 1
                if self._decision_level() == 0:
                    self._ok = False
                    if self.proof_logging:
                        self.final_proof = self._derive_empty_from_conflict(conflict)
                    return SolverResult.UNSAT
                if conflict_limit is not None and total_conflicts > conflict_limit:
                    self._cancel_until(0)
                    return SolverResult.UNKNOWN
                if total_conflicts % 64 == 0 and self._checkpoint(deadline):
                    self._cancel_until(0)
                    return SolverResult.UNKNOWN
                learned, backtrack, chain = self._analyze(conflict)
                # literal-block distance, while the conflict levels are live
                lbd = len({self._level[var_of(lit)] for lit in learned})
                self._decay_activities()
                self._cancel_until(backtrack)
                cid = self._record_learned(learned, chain, lbd)
                if self._value(learned[0]) is None:
                    self._enqueue(learned[0], cid)
                if (
                    not self.proof_logging
                    and len(self._learned_activity) >= self._next_reduce
                ):
                    self._reduce_db()
                continue

            if conflicts_since_restart >= restart_limit:
                self.stats.restarts += 1
                conflicts_since_restart = 0
                restart_index += 1
                restart_limit = 64 * luby(restart_index)
                self._cancel_until(min(len(assumptions), self._decision_level()))
                continue

            # apply assumptions as pseudo-decisions
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                value = self._value(lit)
                if value is True:
                    self._new_decision_level()
                    continue
                if value is False:
                    if self.proof_logging:
                        self._record_assumption_core(lit)
                    self._cancel_until(0)
                    return SolverResult.UNSAT
                self._new_decision_level()
                self._enqueue(lit, None)
                continue

            var = self._pick_branch_var()
            if var is None:
                self._model = {
                    v: bool(self._assign[v]) for v in range(1, self._num_vars + 1)
                }
                self._check_model()
                self._cancel_until(0)
                return SolverResult.SAT
            self.stats.decisions += 1
            decisions_since_check += 1
            if decisions_since_check >= self.CHECK_INTERVAL:
                decisions_since_check = 0
                if self._checkpoint(deadline):
                    self._cancel_until(0)
                    return SolverResult.UNKNOWN
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self._decision_level() + 1
            )
            self._new_decision_level()
            phase = self._phase[var]
            self._enqueue(var if phase else -var, None)

    def _check_model(self) -> None:
        """Sanity-check the model against every clause (fails loudly on bugs)."""
        for clause in self._clauses:
            if not clause:
                continue
            if not any(self._model_lit(lit) for lit in clause):
                raise AssertionError("internal error: model does not satisfy clause")

    def _model_lit(self, lit: int) -> bool:
        value = self._model.get(var_of(lit), False)
        return value if lit > 0 else not value

    def _record_assumption_core(self, failed_lit: int) -> None:
        """Derive a clause over negated assumptions refuting the assumptions.

        ``failed_lit`` is an assumption whose negation is implied by the
        clause database under the earlier assumptions.  Starting from the
        reason clause that propagated ``-failed_lit``, every false literal
        with a reason is resolved away in reverse assignment order; what
        remains are negations of assumption decisions (which have no reason).
        The chain and the derived clause are stored on
        :attr:`assumption_core_chain` / :attr:`assumption_core`.  Nothing is
        recorded when the propagated literal has no reason — i.e. the
        assumptions are directly contradictory.
        """
        root_reason = self._reason[var_of(failed_lit)]
        if root_reason is None:
            return
        position = {var_of(lit): i for i, lit in enumerate(self._trail)}
        current: Set[int] = set(self._clauses[root_reason])
        antecedents: List[int] = [root_reason]
        pivots: List[int] = []
        reasons = self._reason
        guard = 0
        limit = 10 * (len(self._trail) + len(self._clauses) + 10)
        while True:
            guard += 1
            if guard > limit:  # pragma: no cover - defensive
                return
            best: Optional[int] = None
            best_position = -1
            for lit in current:
                if lit == -failed_lit:
                    continue
                var = var_of(lit)
                if reasons[var] is None:
                    continue  # an assumption decision: keep its negation
                pos = position.get(var, -1)
                if pos > best_position:
                    best_position = pos
                    best = lit
            if best is None:
                break
            var = var_of(best)
            reason_id = reasons[var]
            current.discard(best)
            for other in self._clauses[reason_id]:
                if var_of(other) != var:
                    current.add(other)
            antecedents.append(reason_id)
            pivots.append(var)
        self.assumption_core_chain = (tuple(antecedents), tuple(pivots))
        self.assumption_core = tuple(current)

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------
    def model_value(self, lit: int) -> bool:
        """Return the value of ``lit`` in the last satisfying assignment."""
        if not self._model:
            raise RuntimeError("no model available (last result was not SAT)")
        value = self._model.get(var_of(lit), False)
        return value if lit > 0 else not value

    def model(self) -> Dict[int, bool]:
        """Return the last satisfying assignment as ``{var: bool}``."""
        if not self._model:
            raise RuntimeError("no model available (last result was not SAT)")
        return dict(self._model)
