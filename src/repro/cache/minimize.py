"""Greedy minimization of SAFE certificates, re-checked by the validator.

Cache hits are served by *re-validating* the stored certificate, so the
latency of a hit is the latency of the validator's SAT queries — which grows
with the size of the stored invariant (PDR fixpoints routinely carry dozens
of frame clauses, interval boxes two conjuncts per register).  Before a SAFE
certificate enters the store we therefore shrink it: conjuncts of an
inductive invariant (respectively auxiliary invariants of a k-inductive
claim) are dropped greedily, and every candidate is re-checked by the
*independent* :class:`repro.certs.CertificateValidator` — a conjunct is only
dropped if the remaining certificate still discharges all obligations.  The
minimized certificate is exactly as trustworthy as the original (it passed
the same validator) and strictly cheaper to re-validate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.certs import (
    INDUCTIVE,
    K_INDUCTIVE,
    InductiveCertificate,
    KInductiveCertificate,
    validate_certificate,
)
from repro.exprs import TRUE, Expr, bool_and
from repro.exprs.nodes import Const, Op
from repro.netlist import TransitionSystem


@dataclass
class MinimizationResult:
    """Outcome of minimizing one certificate."""

    certificate: object
    kind: str
    #: conjunct counts before/after (aux invariants + the claim for k-induction)
    original_size: int
    size: int
    #: validator passes spent (each is a full obligation discharge)
    checks: int = 0
    runtime_s: float = 0.0

    @property
    def dropped(self) -> int:
        return self.original_size - self.size


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten a (nested) 1-bit conjunction into its conjunct list.

    ``bool_and`` builds left-nested binary ``and`` nodes with a TRUE
    identity; this undoes that shape (iteratively — PDR invariants nest
    deeply) and drops constant-true leaves.
    """
    conjuncts: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Op) and node.op == "and" and node.width == 1:
            stack.extend(reversed(node.args))
            continue
        if isinstance(node, Const) and node.width == 1 and node.value == 1:
            continue
        conjuncts.append(node)
    return conjuncts


def join_conjuncts(conjuncts: List[Expr]) -> Expr:
    return bool_and(*conjuncts) if conjuncts else TRUE

def _expr_size(expr: Expr) -> int:
    """Node count used to order drop attempts (largest conjunct first)."""
    seen = set()
    stack = [expr]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        if isinstance(node, Op):
            stack.extend(node.args)
    return count


def minimize_certificate(
    system: TransitionSystem,
    certificate,
    timeout: Optional[float] = None,
    max_checks: Optional[int] = None,
) -> MinimizationResult:
    """Minimize a SAFE certificate against ``system``.

    Witnesses and unknown kinds are returned unchanged.  The certificate is
    assumed to already validate; minimization never hands back anything the
    validator has not just re-checked, so on any failure the input
    certificate is returned as-is.
    """
    start = time.monotonic()
    kind = getattr(certificate, "kind", None)
    if kind == INDUCTIVE:
        result = _minimize_inductive(system, certificate, timeout, max_checks)
    elif kind == K_INDUCTIVE:
        result = _minimize_k_inductive(system, certificate, timeout, max_checks)
    else:
        size = 1
        result = MinimizationResult(certificate, str(kind), size, size)
    result.runtime_s = time.monotonic() - start
    return result


def _greedy_drop(
    system: TransitionSystem,
    conjuncts: List[Expr],
    rebuild,
    timeout: Optional[float],
    max_checks: Optional[int],
) -> Tuple[List[Expr], int]:
    """Drop conjuncts greedily while ``rebuild(remaining)`` still validates.

    ``rebuild`` turns a conjunct list into a candidate certificate.  Returns
    the surviving conjuncts and the number of validator passes spent.
    Largest conjuncts are attempted first: dropping them buys the biggest
    validation savings, and a large conjunct is often implied by the rest.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    remaining = list(conjuncts)
    checks = 0
    order = sorted(remaining, key=_expr_size, reverse=True)
    for conjunct in order:
        if len(remaining) <= 1:
            break
        if max_checks is not None and checks >= max_checks:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        candidate = [c for c in remaining if c is not conjunct]
        budget = None if deadline is None else max(0.0, deadline - time.monotonic())
        validation = validate_certificate(system, rebuild(candidate), timeout=budget)
        checks += 1
        if validation.ok:
            remaining = candidate
    return remaining, checks


def _minimize_inductive(
    system: TransitionSystem,
    certificate: InductiveCertificate,
    timeout: Optional[float],
    max_checks: Optional[int],
) -> MinimizationResult:
    conjuncts = split_conjuncts(certificate.invariant)
    original_size = max(1, len(conjuncts))
    if len(conjuncts) <= 1:
        return MinimizationResult(
            certificate, INDUCTIVE, original_size, original_size
        )

    def rebuild(remaining: List[Expr]) -> InductiveCertificate:
        return certificate.replace(invariant=join_conjuncts(remaining))

    remaining, checks = _greedy_drop(
        system, conjuncts, rebuild, timeout, max_checks
    )
    minimized = rebuild(remaining) if len(remaining) < len(conjuncts) else certificate
    return MinimizationResult(
        minimized, INDUCTIVE, original_size, max(1, len(remaining)), checks
    )


def _minimize_k_inductive(
    system: TransitionSystem,
    certificate: KInductiveCertificate,
    timeout: Optional[float],
    max_checks: Optional[int],
) -> MinimizationResult:
    invariants = list(certificate.invariants)
    # the k-inductive claim itself counts as one conjunct; the auxiliary
    # strengthening invariants are the droppable part
    original_size = 1 + len(invariants)
    if not invariants:
        return MinimizationResult(
            certificate, K_INDUCTIVE, original_size, original_size
        )

    def rebuild(remaining: List[Expr]) -> KInductiveCertificate:
        return certificate.replace(invariants=tuple(remaining))

    deadline = None if timeout is None else time.monotonic() + timeout
    remaining = invariants
    checks = 0
    # first try dropping *all* auxiliaries at once (the property is often
    # k-inductive on its own once k has been found), then greedily one by one
    validation = validate_certificate(system, rebuild([]), timeout=timeout)
    checks += 1
    if validation.ok:
        remaining = []
    else:
        budget = None if deadline is None else max(0.0, deadline - time.monotonic())
        limit = None if max_checks is None else max(0, max_checks - checks)
        remaining, extra = _greedy_drop(
            system, invariants, rebuild, budget, limit
        )
        # _greedy_drop keeps at least one conjunct; for auxiliaries even the
        # last one may be droppable, and the all-at-once attempt above
        # already covered that case failing, so the floor is correct here
        checks += extra
    minimized = rebuild(remaining) if len(remaining) < len(invariants) else certificate
    return MinimizationResult(
        minimized, K_INDUCTIVE, original_size, 1 + len(remaining), checks
    )
