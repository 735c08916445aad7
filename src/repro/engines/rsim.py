"""Random-simulation falsification over the bit-parallel packed simulator.

The cheapest refutation engine in the portfolio: drive the design with
uniformly random inputs and report UNSAFE with a real
:class:`~repro.certs.certificate.Witness` when any lane violates the
property.  Its search is one fixed run: :data:`LANES` independent vectors
per packed step for :data:`CYCLES` cycles from :data:`SEED`, through the
packed step compiled from the design (:mod:`repro.netlist.bitsim`).  The
paper's unsafe designs (DAIO at cycle 64, the traffic-light controller at
cycle 65) fall to this engine in a few milliseconds — before any SAT
machinery is even constructed — which is why it sits on the budget ladder's
cheap rung.

Trust: a packed hit is never reported directly.  The violating lane's input
sequence is replayed through the scalar reference simulator and must keep
every environment constraint and violate the same property at the same
cycle; disagreement raises
:class:`~repro.netlist.bitsim.SimulationMismatch` (the cross-checked-verdict
pattern), so a packed-simulation bug surfaces as a hard error, not a wrong
verdict.  Runs that find nothing return UNKNOWN — random simulation can
never prove safety.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.certs import witness_from_counterexample
from repro.engines.base import Engine
from repro.engines.result import Budget, Counterexample, Status, VerificationResult
from repro.netlist.bitsim import PackedSimulator, SimulationMismatch
from repro.netlist.simulate import Simulator


#: depth of the random run (past both paper bug cycles, 64 and 65)
CYCLES = 96
#: input vectors per packed operation (the native word)
LANES = 64
#: the run's seed, so a verdict and its witness reproduce
SEED = 2016


class RandomSimulationEngine(Engine):
    """Bit-parallel random-input falsification: one seeded run of
    :data:`LANES` vectors for :data:`CYCLES` cycles.  A bug that needs more
    random vectors is left to k-induction's base case or BMC on the next
    rung."""

    name = "rsim"

    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        simulator = PackedSimulator(self.system, lanes=LANES)
        if budget.expired():
            return VerificationResult(
                Status.TIMEOUT, self.name, property_name, runtime=budget.elapsed()
            )
        run = simulator.run_random(CYCLES, seed=SEED, properties=[property_name])
        violation = run.violation
        if violation is None:
            return VerificationResult(
                Status.UNKNOWN,
                self.name,
                property_name,
                runtime=time.monotonic() - start,
                reason=f"no violation in {LANES} random lanes x {CYCLES} cycles",
            )
        inputs = run.lane_inputs(violation.lane, upto=violation.cycle)
        self._scalar_confirm(property_name, inputs, violation.cycle)
        cex = Counterexample(property_name, [dict(step) for step in inputs])
        return VerificationResult(
            Status.UNSAFE,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            counterexample=cex,
            detail={
                "violation_cycle": violation.cycle,
                "lane": violation.lane,
                "scalar_confirmed": True,
            },
            certificate=witness_from_counterexample(self.system, self.name, cex),
        )

    # ------------------------------------------------------------------
    def _scalar_confirm(self, property_name, inputs, cycle) -> None:
        """Replay the violating lane through the reference simulator.

        The packed hit must reproduce exactly — the lane keeps every
        environment constraint through the claimed cycle, and the *claimed*
        property first fails at the *claimed* cycle — before it is allowed
        to become a verdict (cross-checked-verdict pattern: the fast path
        cannot change an answer, only find it faster).
        """
        simulator = Simulator(self.system)
        first_failure: Optional[int] = None
        for step_inputs in inputs:
            values = simulator.advance(step_inputs)
            if not all(values.constraints):
                raise SimulationMismatch(
                    f"{self.system.name}: packed violation of {property_name!r} at "
                    f"cycle {cycle} breaks an environment constraint at cycle "
                    f"{values.cycle} in the scalar simulator"
                )
            if not values.properties[property_name]:
                first_failure = values.cycle
                break
        if first_failure != cycle:
            raise SimulationMismatch(
                f"{self.system.name}: packed violation of {property_name!r} at "
                f"cycle {cycle} did not reproduce in the scalar simulator "
                f"(scalar first failure: {first_failure})"
            )
