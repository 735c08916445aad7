"""Word-level transition system data model.

A :class:`TransitionSystem` describes a synchronous sequential circuit:

* *inputs* — primary inputs, assigned a non-deterministic value every cycle,
* *state variables* — registers with an initial value and a next-state
  function,
* *wires* — named combinational signals (kept for readability of the
  generated software-netlist; they are definitionally equal to their
  expression),
* *constraints* — environment assumptions that hold in every cycle,
* *properties* — safety properties (SVA ``assert property`` of Boolean
  conditions) that must hold in every reachable state.

All expressions are over the IR of :mod:`repro.exprs` and may refer to state
variables, inputs and wires of the system.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.exprs import (
    Expr,
    bv_const,
    bv_var,
    collect_vars,
    simplify,
    substitute,
)
from repro.exprs.nodes import Var
from repro.records import Frozen


class TransitionSystemError(Exception):
    """Raised when a transition system is malformed."""


class SafetyProperty(Frozen):
    """A named safety property: ``expr`` must be true in every reachable state."""

    def __init__(self, name: str, expr: Expr) -> None:
        if expr.width != 1:
            raise TransitionSystemError(f"property {name!r} must be a 1-bit expression")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expr", expr)


class TransitionSystem:
    """A word-level synchronous transition system."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: Dict[str, int] = {}
        self.state_vars: Dict[str, int] = {}
        self.wires: Dict[str, Expr] = {}
        self.init: Dict[str, Expr] = {}
        self.next: Dict[str, Expr] = {}
        self.constraints: List[Expr] = []
        self.properties: List[SafetyProperty] = []
        #: optional provenance note (e.g. source Verilog module / file)
        self.source: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_input(self, name: str, width: int) -> Var:
        """Declare a primary input and return its variable."""
        self._check_fresh(name)
        self.inputs[name] = width
        return bv_var(name, width)

    def add_state_var(
        self,
        name: str,
        width: int,
        init: Optional[Expr | int] = None,
        next_expr: Optional[Expr] = None,
    ) -> Var:
        """Declare a register; ``init`` defaults to 0 and ``next`` to holding its value."""
        self._check_fresh(name)
        self.state_vars[name] = width
        var = bv_var(name, width)
        if init is None:
            init = bv_const(0, width)
        elif isinstance(init, int):
            init = bv_const(init, width)
        self.init[name] = init
        self.next[name] = next_expr if next_expr is not None else var
        return var

    def set_next(self, name: str, expr: Expr) -> None:
        """Set the next-state function of a register."""
        if name not in self.state_vars:
            raise TransitionSystemError(f"unknown state variable {name!r}")
        if expr.width != self.state_vars[name]:
            raise TransitionSystemError(
                f"next({name}): width {expr.width} != declared {self.state_vars[name]}"
            )
        self.next[name] = expr

    def set_init(self, name: str, expr: Expr | int) -> None:
        """Set the initial value of a register."""
        if name not in self.state_vars:
            raise TransitionSystemError(f"unknown state variable {name!r}")
        if isinstance(expr, int):
            expr = bv_const(expr, self.state_vars[name])
        if expr.width != self.state_vars[name]:
            raise TransitionSystemError(
                f"init({name}): width {expr.width} != declared {self.state_vars[name]}"
            )
        self.init[name] = expr

    def add_wire(self, name: str, expr: Expr) -> Var:
        """Declare a named combinational signal defined by ``expr``."""
        self._check_fresh(name)
        self.wires[name] = expr
        return bv_var(name, expr.width)

    def add_constraint(self, expr: Expr) -> None:
        """Add an environment assumption holding in every cycle."""
        self.constraints.append(expr)

    def add_property(self, name: str, expr: Expr) -> SafetyProperty:
        """Add a safety property (must hold in every reachable state)."""
        prop = SafetyProperty(name, expr)
        self.properties.append(prop)
        return prop

    def _check_fresh(self, name: str) -> None:
        if name in self.inputs or name in self.state_vars or name in self.wires:
            raise TransitionSystemError(f"signal {name!r} already declared")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def var(self, name: str) -> Var:
        """Return the variable node for a declared signal."""
        if name in self.inputs:
            return bv_var(name, self.inputs[name])
        if name in self.state_vars:
            return bv_var(name, self.state_vars[name])
        if name in self.wires:
            return bv_var(name, self.wires[name].width)
        raise TransitionSystemError(f"unknown signal {name!r}")

    def width_of(self, name: str) -> int:
        """Return the declared width of a signal."""
        return self.var(name).width

    def signal_widths(self) -> Dict[str, int]:
        """Return a name -> width map covering inputs, registers and wires."""
        widths = dict(self.inputs)
        widths.update(self.state_vars)
        widths.update({name: expr.width for name, expr in self.wires.items()})
        return widths

    def property_by_name(self, name: str) -> SafetyProperty:
        """Look up a property by name."""
        for prop in self.properties:
            if prop.name == name:
                return prop
        raise KeyError(name)

    def fingerprint(self) -> int:
        """A cheap hash of the design's name and content.

        Its only job is to invalidate what a process keeps for this object
        (:func:`derived`, and the validator's sessions), so a design renamed
        or mutated in place derives everything anew.  Expression nodes cache
        their hashes, so this is O(number of declared signals), not
        O(expression size).  The value is only stable within one process
        (string hashes are salted per interpreter).
        """
        return hash(
            (
                self.name,
                tuple(self.inputs.items()),
                tuple(self.state_vars.items()),
                tuple(sorted(self.init.items())),
                tuple(sorted(self.next.items())),
                tuple(self.constraints),
                tuple((prop.name, prop.expr) for prop in self.properties),
                tuple(self.wires.items()),
            )
        )

    # ------------------------------------------------------------------
    # wire elimination and flattening
    # ------------------------------------------------------------------
    def _resolved_wires(self) -> Dict[str, Expr]:
        """Resolve wire definitions so none refers to another wire."""
        resolved: Dict[str, Expr] = {}
        remaining = dict(self.wires)
        # iterate until fixed point; wire definitions are acyclic by construction
        for _ in range(len(remaining) + 1):
            progressed = False
            for name, expr in list(remaining.items()):
                deps = {v.name for v in collect_vars(expr)}
                if deps & set(remaining) - {name}:
                    unresolved = deps & set(remaining) - {name}
                    if unresolved <= set(resolved):
                        remaining[name] = substitute(expr, resolved)
                        continue
                    continue
                resolved[name] = substitute(expr, resolved)
                del remaining[name]
                progressed = True
            if not remaining:
                break
            if not progressed:
                # substitute what we can and retry; if nothing changes we have a cycle
                changed = False
                for name, expr in list(remaining.items()):
                    new_expr = substitute(expr, resolved)
                    if new_expr is not expr:
                        remaining[name] = new_expr
                        changed = True
                if not changed:
                    raise TransitionSystemError(
                        f"combinational cycle through wires: {sorted(remaining)}"
                    )
        return resolved

    def flattened(self) -> "TransitionSystem":
        """Return an equivalent system whose expressions mention no wires.

        This corresponds to the "flattened software-netlist" synthesis option
        described in the paper (Section III.B): the module hierarchy and
        intermediate signals are folded into the next-state functions.
        """
        flat = TransitionSystem(self.name)
        flat.source = self.source
        flat.inputs = dict(self.inputs)
        flat.state_vars = dict(self.state_vars)
        resolved = self._resolved_wires()
        # one memo of each pass over every root, so that a subexpression
        # several roots share stays one node in the flattened design
        substituted: Dict[int, Expr] = {}
        simplified: Dict[int, Expr] = {}

        def flat_expr(expr: Expr) -> Expr:
            return simplify(substitute(expr, resolved, substituted), simplified)

        flat.init = {name: flat_expr(expr) for name, expr in self.init.items()}
        flat.next = {name: flat_expr(expr) for name, expr in self.next.items()}
        flat.constraints = [flat_expr(expr) for expr in self.constraints]
        flat.properties = [
            SafetyProperty(p.name, flat_expr(p.expr)) for p in self.properties
        ]
        return flat

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raises :class:`TransitionSystemError`."""
        for name, width in self.state_vars.items():
            if name not in self.init:
                raise TransitionSystemError(f"register {name!r} has no initial value")
            if name not in self.next:
                raise TransitionSystemError(f"register {name!r} has no next-state function")
            if self.init[name].width != width:
                raise TransitionSystemError(f"init({name}) width mismatch")
            if self.next[name].width != width:
                raise TransitionSystemError(f"next({name}) width mismatch")
        # every root reads only declared signals, each at its declared width
        widths = self.signal_widths()
        roots = [
            *((f"expression for {name!r}", expr) for name, expr in self.next.items()),
            *((f"expression for {name!r}", expr) for name, expr in self.wires.items()),
            *((f"constraint {index}", expr) for index, expr in enumerate(self.constraints)),
            *((f"property {prop.name!r}", prop.expr) for prop in self.properties),
        ]
        for label, expr in roots:
            for var in collect_vars(expr):
                declared = widths.get(var.name)
                if declared is None:
                    raise TransitionSystemError(
                        f"{label} refers to undeclared signal {var.name!r}"
                    )
                if var.width != declared:
                    raise TransitionSystemError(
                        f"{label} uses {var.name!r} with width {var.width}, declared {declared}"
                    )
        # initial values must not depend on inputs or other registers' current values
        for name, expr in self.init.items():
            for var in collect_vars(expr):
                if var.name in self.state_vars or var.name in self.inputs:
                    raise TransitionSystemError(
                        f"init({name}) must be a constant expression, refers to {var.name!r}"
                    )

    # ------------------------------------------------------------------
    # statistics and presentation
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Return basic size statistics of the design."""
        return {
            "inputs": len(self.inputs),
            "input_bits": sum(self.inputs.values()),
            "registers": len(self.state_vars),
            "state_bits": sum(self.state_vars.values()),
            "wires": len(self.wires),
            "properties": len(self.properties),
            "constraints": len(self.constraints),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"TransitionSystem({self.name!r}, state_bits={stats['state_bits']}, "
            f"inputs={stats['inputs']}, properties={stats['properties']})"
        )


# ----------------------------------------------------------------------
# what a process derives from a design
# ----------------------------------------------------------------------

_T = TypeVar("_T")
#: an entry no build has finished
_EMPTY = object()
#: an entry whose value is its design itself, which the weak-key table must
#: not hold strongly (a cone of influence is its own flattening)
_SELF = object()


class _Entry:
    """One derived value, and the lock its one build runs under."""

    __slots__ = ("lock", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value: object = _EMPTY


#: design -> (fingerprint, {key -> entry}); weak keys, so designs built on
#: the fly do not accumulate
_DERIVED: "weakref.WeakKeyDictionary[TransitionSystem, Tuple[int, Dict[object, _Entry]]]" = (
    weakref.WeakKeyDictionary()
)
#: guards lookups in the table, never a build
_DERIVED_LOCK = threading.Lock()


def derived(system: TransitionSystem, key: object, build: Callable[[], _T]) -> _T:
    """Return what ``build()`` derives from ``system``, built once per process.

    Every per-design memo goes through here; ``key`` names the kind:
    ``"flat"``, ``("cone", prop)``, ``("templates", representation)``,
    ``("step", domain, *params)`` and ``("cache-key", prop,
    representation)``.  A value is kept while its design lives and its
    :meth:`~TransitionSystem.fingerprint` holds; it is shared, so callers
    treat it as read-only.

    Each entry is built under its own lock: a thread asking for an entry
    that is being built waits for that build and for no other.  A build
    that raises leaves its entry empty, so the next caller builds it again.
    A forked child keeps every finished value.
    """
    stamp = system.fingerprint()
    with _DERIVED_LOCK:
        memo = _DERIVED.get(system)
        if memo is None or memo[0] != stamp:
            memo = _DERIVED[system] = (stamp, {})
        entry = memo[1].get(key)
        if entry is None:
            entry = memo[1][key] = _Entry()
    value = entry.value  # a finished entry is read without its lock
    if value is _EMPTY:
        with entry.lock:
            value = entry.value
            if value is _EMPTY:
                value = build()
                entry.value = _SELF if value is system else value
    return system if value is _SELF else value


def _drop_unfinished() -> None:
    """Drop, in a forked child, what a parent thread may hold: the table
    lock, and every entry no build has finished (its builder is not in the
    child, which builds the entry again when asked).  A finished entry is
    kept whatever the state of its lock, which no reader takes."""
    global _DERIVED_LOCK
    _DERIVED_LOCK = threading.Lock()
    for _, entries in _DERIVED.values():
        for key in [key for key, entry in entries.items() if entry.value is _EMPTY]:
            del entries[key]


os.register_at_fork(after_in_child=_drop_unfinished)
