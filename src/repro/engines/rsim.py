"""Random-simulation falsification over the bit-parallel packed simulator.

The cheapest refutation engine in the portfolio: drive the design with
uniformly random inputs, 64 (or more) independent vectors per packed step,
and report UNSAFE with a real :class:`~repro.certs.certificate.Witness` when
any lane violates a property.  The paper's unsafe designs (DAIO at cycle 64,
the traffic-light controller at cycle 65) fall to this engine in a few
milliseconds — before any SAT machinery is even constructed — which is why it
sits on the budget ladder's cheap rung.

Trust: a packed hit is never reported directly.  The violating lane's input
sequence is re-replayed through the scalar reference interpreter and must
violate the same property at the same cycle; disagreement raises
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
from repro.netlist import TransitionSystem
from repro.netlist.bitsim import PackedSimulator, SimulationMismatch
from repro.netlist.simulate import Simulator


class RandomSimulationEngine(Engine):
    """Bit-parallel random-input falsification.

    Parameters
    ----------
    system:
        The design under verification.
    cycles:
        Depth of each random run (default 96: past both paper bug cycles).
    rounds:
        How many independently seeded runs to try before giving up (default
        1: both paper bugs fall in the first; a bug that needs more random
        vectors is left to k-induction's base case or BMC on the next rung).
    lanes:
        Vectors evaluated per packed operation (wider words trade Python int
        cost for fewer runs; 64 matches the native word).
    seed:
        Base seed; round ``i`` uses ``seed + i`` so sweeps are reproducible.
    """

    name = "rsim"

    def __init__(
        self,
        system: TransitionSystem,
        cycles: int = 96,
        rounds: int = 1,
        lanes: int = 64,
        seed: int = 2016,
    ) -> None:
        super().__init__(system)
        self.cycles = cycles
        self.rounds = rounds
        self.lanes = lanes
        self.seed = seed

    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        simulator = PackedSimulator(self.system, lanes=self.lanes)
        vectors = 0
        for round_index in range(self.rounds):
            if budget.expired():
                return VerificationResult(
                    Status.TIMEOUT,
                    self.name,
                    property_name,
                    runtime=budget.elapsed(),
                    detail={"rounds": round_index, "vectors": vectors},
                )
            run = simulator.run_random(
                self.cycles,
                seed=self.seed + round_index,
                properties=[property_name],
            )
            vectors += self.lanes
            if run.violation is None:
                continue
            violation = run.violation
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
                    "rounds": round_index + 1,
                    "vectors": vectors,
                    "violation_cycle": violation.cycle,
                    "lane": violation.lane,
                    "scalar_confirmed": True,
                },
                certificate=witness_from_counterexample(self.system, self.name, cex),
            )
        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            detail={"rounds": self.rounds, "vectors": vectors},
            reason=(
                f"no violation in {self.rounds} random runs x {self.lanes} lanes "
                f"x {self.cycles} cycles"
            ),
        )

    # ------------------------------------------------------------------
    def _scalar_confirm(self, property_name, inputs, cycle) -> None:
        """Replay the violating lane through the reference interpreter.

        The packed hit must reproduce exactly — the *claimed* property first
        fails at the *claimed* cycle — before it is allowed to become a
        verdict (cross-checked-verdict pattern: the fast path cannot change
        an answer, only find it faster).
        """
        from repro.exprs import evaluate

        prop = self.system.property_by_name(property_name)
        simulator = Simulator(self.system)
        first_failure: Optional[int] = None
        for index, step_inputs in enumerate(inputs):
            env = simulator._environment(step_inputs)
            if evaluate(prop.expr, env) == 0:
                first_failure = index
                break
            simulator.step(step_inputs)
        if first_failure != cycle:
            raise SimulationMismatch(
                f"{self.system.name}: packed violation of {property_name!r} at "
                f"cycle {cycle} did not reproduce in the scalar interpreter "
                f"(scalar first failure: {first_failure})"
            )
