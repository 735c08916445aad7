"""Bit-parallel (bit-plane) packed simulation of a transition system.

The scalar reference simulator (:mod:`repro.netlist.simulate`) steps one
input vector per call of its compiled step function.  Random falsification
and reachable-state sampling want many vectors at once, so this module packs
them: every signal of width ``w`` is represented *transposed*, as a tuple of
``w`` Python ints (bit planes) where bit ``i`` of plane ``b`` carries bit
``b`` of lane ``i``'s value.  One bitwise int operation then advances all
lanes at once — 64 by default, or any wider word for parameter sweeps — and
the per-design step function is emitted once as straight-line Python source
(no per-node dispatch, common subexpressions bound to temporaries) and
``compile()``d.

The packed step is the packed domain (:class:`PackedStep`) of the step
compiler in :mod:`repro.netlist.step`, so it reads the
:class:`TransitionSystem` exactly as the scalar step does, and it is
compiled once per design and lane count.

Lowering follows the classic bit-parallel recipes: ripple carry/borrow for
add/sub/compares, shift-and-add multiplication, barrel shifters muxed on the
shift amount's planes, sign-plane flips for the signed comparisons, and a
per-lane transpose fallback for the (rare) division operators.

The packed tier is gated by the repo's cross-checked-verdict pattern: lanes
are spot-checked against the scalar simulator and any divergence raises
:class:`SimulationMismatch` — the fast path can never silently change an
answer.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exprs import evaluate
from repro.exprs.nodes import Const, Op, mask, to_unsigned
from repro.netlist.simulate import Simulator
from repro.netlist.step import StepCompiler, mapping, sequence
from repro.netlist.transition import TransitionSystem

#: a packed value: one int per bit of the signal, lane ``i`` at bit ``1 << i``
Planes = Tuple[int, ...]

DEFAULT_LANES = 64

#: the reachability sampler's one random run: its depth, its seed and how
#: many distinct states it keeps (its lanes are :data:`DEFAULT_LANES`)
SAMPLE_CYCLES = 64
SAMPLE_SEED = 2016
MAX_SAMPLED_STATES = 256


class SimulationMismatch(RuntimeError):
    """Packed and scalar simulation disagreed — a hard cross-check failure."""


# ---------------------------------------------------------------------------
# packing / unpacking
# ---------------------------------------------------------------------------


def broadcast(value: int, width: int, lane_mask: int) -> Planes:
    """Pack one scalar value identically into every lane."""
    value = to_unsigned(int(value), width)
    return tuple(lane_mask if (value >> b) & 1 else 0 for b in range(width))


def pack_values(values: Sequence[int], width: int) -> Planes:
    """Transpose per-lane scalar values into bit planes (lane ``i`` = value ``i``)."""
    planes = [0] * width
    for lane, value in enumerate(values):
        value = to_unsigned(int(value), width)
        bit = 1 << lane
        while value:
            b = (value & -value).bit_length() - 1
            planes[b] |= bit
            value &= value - 1
    return tuple(planes)


def unpack_lane(planes: Planes, lane: int) -> int:
    """Read one lane's scalar value back out of a packed value."""
    value = 0
    for b, plane in enumerate(planes):
        if (plane >> lane) & 1:
            value |= 1 << b
    return value


# ---------------------------------------------------------------------------
# plane-level operator kernels
# ---------------------------------------------------------------------------


def _p_not(a: Planes, m: int) -> Planes:
    return tuple((~p) & m for p in a)


def _p_and(a: Planes, b: Planes) -> Planes:
    return tuple(x & y for x, y in zip(a, b))


def _p_or(a: Planes, b: Planes) -> Planes:
    return tuple(x | y for x, y in zip(a, b))


def _p_xor(a: Planes, b: Planes) -> Planes:
    return tuple(x ^ y for x, y in zip(a, b))


def _p_xnor(a: Planes, b: Planes, m: int) -> Planes:
    return tuple((~(x ^ y)) & m for x, y in zip(a, b))


def _p_nand(a: Planes, b: Planes, m: int) -> Planes:
    return tuple((~(x & y)) & m for x, y in zip(a, b))


def _p_nor(a: Planes, b: Planes, m: int) -> Planes:
    return tuple((~(x | y)) & m for x, y in zip(a, b))


def _p_add(a: Planes, b: Planes, m: int) -> Planes:
    out = []
    carry = 0
    for x, y in zip(a, b):
        s = x ^ y ^ carry
        carry = (x & y) | (carry & (x ^ y))
        out.append(s)
    return tuple(out)


def _p_sub(a: Planes, b: Planes, m: int) -> Planes:
    out = []
    borrow = 0
    for x, y in zip(a, b):
        out.append(x ^ y ^ borrow)
        nx = (~x) & m
        borrow = (nx & (y | borrow)) | (y & borrow)
    return tuple(out)


def _p_neg(a: Planes, m: int) -> Planes:
    # two's complement: ~a + 1 (the +1 rides in as an all-lanes initial carry)
    out = []
    carry = m
    for x in a:
        nx = (~x) & m
        out.append(nx ^ carry)
        carry = nx & carry
    return tuple(out)


def _p_mul(a: Planes, b: Planes, m: int) -> Planes:
    width = len(a)
    acc: Planes = (0,) * width
    for j, sel in enumerate(b[:width]):
        if sel == 0:
            continue
        addend = tuple((a[k - j] & sel) if k >= j else 0 for k in range(width))
        acc = _p_add(acc, addend, m)
    return acc


def _p_divmod(a: Planes, b: Planes, m: int, remainder: bool) -> Planes:
    # rare in netlists: transpose back per lane, divide, re-transpose
    width = len(a)
    out = [0] * width
    lanes = m.bit_length()
    for lane in range(lanes):
        av = unpack_lane(a, lane)
        bv = unpack_lane(b, lane)
        if remainder:
            r = av if bv == 0 else av % bv
        else:
            r = mask(width) if bv == 0 else av // bv
        bit = 1 << lane
        for k in range(width):
            if (r >> k) & 1:
                out[k] |= bit
    return tuple(out)


def _p_udiv(a: Planes, b: Planes, m: int) -> Planes:
    return _p_divmod(a, b, m, remainder=False)


def _p_urem(a: Planes, b: Planes, m: int) -> Planes:
    return _p_divmod(a, b, m, remainder=True)


def _p_mux(sel: int, then_v: Planes, else_v: Planes, m: int) -> Planes:
    nsel = (~sel) & m
    return tuple((sel & t) | (nsel & e) for t, e in zip(then_v, else_v))


def _p_shl(a: Planes, b: Planes, m: int) -> Planes:
    width = len(a)
    result = a
    for j, sel in enumerate(b):
        amount = 1 << j
        if amount >= width:
            shifted: Planes = (0,) * width
        else:
            shifted = (0,) * amount + result[: width - amount]
        result = _p_mux(sel, shifted, result, m)
    return result


def _p_lshr(a: Planes, b: Planes, m: int) -> Planes:
    width = len(a)
    result = a
    for j, sel in enumerate(b):
        amount = 1 << j
        if amount >= width:
            shifted: Planes = (0,) * width
        else:
            shifted = result[amount:] + (0,) * amount
        result = _p_mux(sel, shifted, result, m)
    return result


def _p_ashr(a: Planes, b: Planes, m: int) -> Planes:
    width = len(a)
    sign = a[width - 1]
    result = a
    for j, sel in enumerate(b):
        amount = 1 << j
        if amount >= width:
            shifted: Planes = (sign,) * width
        else:
            shifted = result[amount:] + (sign,) * amount
        result = _p_mux(sel, shifted, result, m)
    return result


def _p_ne(a: Planes, b: Planes) -> Planes:
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return (diff,)


def _p_eq(a: Planes, b: Planes, m: int) -> Planes:
    return ((~_p_ne(a, b)[0]) & m,)


def _p_ult(a: Planes, b: Planes, m: int) -> Planes:
    borrow = 0
    for x, y in zip(a, b):
        nx = (~x) & m
        borrow = (nx & (y | borrow)) | (y & borrow)
    return (borrow,)


def _p_ule(a: Planes, b: Planes, m: int) -> Planes:
    return ((~_p_ult(b, a, m)[0]) & m,)


def _p_ugt(a: Planes, b: Planes, m: int) -> Planes:
    return _p_ult(b, a, m)


def _p_uge(a: Planes, b: Planes, m: int) -> Planes:
    return ((~_p_ult(a, b, m)[0]) & m,)


def _p_flip_sign(a: Planes, m: int) -> Planes:
    return a[:-1] + (a[-1] ^ m,)


def _p_slt(a: Planes, b: Planes, m: int) -> Planes:
    return _p_ult(_p_flip_sign(a, m), _p_flip_sign(b, m), m)


def _p_sle(a: Planes, b: Planes, m: int) -> Planes:
    return _p_ule(_p_flip_sign(a, m), _p_flip_sign(b, m), m)


def _p_sgt(a: Planes, b: Planes, m: int) -> Planes:
    return _p_ugt(_p_flip_sign(a, m), _p_flip_sign(b, m), m)


def _p_sge(a: Planes, b: Planes, m: int) -> Planes:
    return _p_uge(_p_flip_sign(a, m), _p_flip_sign(b, m), m)


def _p_redand(a: Planes, m: int) -> Planes:
    acc = m
    for p in a:
        acc &= p
    return (acc,)


def _p_redor(a: Planes) -> Planes:
    acc = 0
    for p in a:
        acc |= p
    return (acc,)


def _p_redxor(a: Planes) -> Planes:
    acc = 0
    for p in a:
        acc ^= p
    return (acc,)


def _p_ite(c: Planes, t: Planes, e: Planes, m: int) -> Planes:
    return _p_mux(c[0], t, e, m)


#: the kernels the generated step calls
_KERNELS = {name: value for name, value in globals().items() if name.startswith("_p_")}

#: operators lowered to ``_p_<op>(a, b)`` and to ``_p_<op>(a, b, M)``
_BINARY_PLAIN = ("and", "or", "xor", "ne")
_BINARY_MASKED = (
    "xnor", "nand", "nor", "add", "sub", "mul", "udiv", "urem", "shl", "lshr",
    "ashr", "eq", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
)


# ---------------------------------------------------------------------------
# the packed domain of the step compiler
# ---------------------------------------------------------------------------


class PackedStep(StepCompiler):
    """The packed domain: bit planes of ``lane_mask``'s lanes.

    The step is ``_step(S, I)`` over the packed state and input mappings,
    and returns the packed next state, the property planes by name and the
    constraint planes.  Constants are broadcast once at compile time, and
    width-changing operators (extract/zext/sext/concat, constant shifts)
    become tuple-slicing literals — the generated function contains no
    expression-tree dispatch at all.
    """

    tag = "bitsim"
    kernels = _KERNELS

    def __init__(self, system: TransitionSystem, lane_mask: int) -> None:
        super().__init__(system)
        self.m = lane_mask
        self.namespace["M"] = lane_mask

    def constant(self, value: int, width: int) -> str:
        return self.hoist(broadcast(value, width, self.m))

    def operator(self, node: Op, args: List[str]) -> str:
        op = node.op
        if op in _BINARY_PLAIN:
            return self._bind(f"_p_{op}({args[0]}, {args[1]})")
        if op in ("shl", "lshr", "ashr") and isinstance(node.args[1], Const):
            return self._static_shift(op, args[0], node.width, node.args[1].value)
        if op in _BINARY_MASKED:
            return self._bind(f"_p_{op}({args[0]}, {args[1]}, M)")
        if op in ("not", "neg", "redand"):
            return self._bind(f"_p_{op}({args[0]}, M)")
        if op in ("redor", "redxor"):
            return self._bind(f"_p_{op}({args[0]})")
        if op == "concat":
            return self._bind(" + ".join(reversed(args)))
        if op == "extract":
            hi, lo = node.params
            return self._bind(f"{args[0]}[{lo}:{hi + 1}]")
        if op == "zext":
            extra = node.width - node.args[0].width
            return self._bind(f"{args[0]} + {(0,) * extra!r}")
        if op == "sext":
            extra = node.width - node.args[0].width
            return self._bind(f"{args[0]} + ({args[0]}[-1],) * {extra}")
        if op == "ite":
            return self._bind(f"_p_ite({args[0]}, {args[1]}, {args[2]}, M)")
        raise ValueError(f"cannot compile operator {op!r}")  # pragma: no cover

    def _static_shift(self, op: str, inner: str, width: int, amount: int) -> str:
        if op == "shl":
            if amount >= width:
                return self._bind(f"{(0,) * width!r}")
            return self._bind(f"{(0,) * amount!r} + {inner}[:{width - amount}]")
        if op == "lshr":
            if amount >= width:
                return self._bind(f"{(0,) * width!r}")
            return self._bind(f"{inner}[{amount}:] + {(0,) * amount!r}")
        # ashr: fill with the sign plane
        fill = min(amount, width)
        return self._bind(f"{inner}[{fill}:] + ({inner}[-1],) * {fill}")

    def returns(self) -> str:
        system = self.system
        next_state = {name: self.emit(system.next[name]) for name in system.state_vars}
        properties = self.properties()
        constraints = [self.emit(expr) for expr in system.constraints]
        return f"{mapping(next_state)}, {mapping(properties)}, {sequence(constraints)}"


# ---------------------------------------------------------------------------
# the packed simulator
# ---------------------------------------------------------------------------


class PackedViolation:
    """First property violation observed by a packed run."""

    __slots__ = ("property_name", "cycle", "lane")

    def __init__(self, property_name: str, cycle: int, lane: int) -> None:
        self.property_name = property_name
        self.cycle = cycle
        self.lane = lane


class PackedRun:
    """Everything a packed multi-lane run recorded.

    ``states[c]`` is the packed register state *before* cycle ``c``'s step;
    ``prop_values[c]`` maps property name to its packed truth plane at cycle
    ``c`` (bit clear = that lane violates); ``alive[c]`` masks the lanes whose
    environment constraints held through cycle ``c``.
    """

    __slots__ = ("lanes", "inputs", "states", "prop_values", "alive", "violation")

    def __init__(
        self,
        lanes: int,
        inputs: Optional[List[Dict[str, Planes]]] = None,
        states: Optional[List[Dict[str, Planes]]] = None,
        prop_values: Optional[List[Dict[str, int]]] = None,
        alive: Optional[List[int]] = None,
        violation: Optional[PackedViolation] = None,
    ) -> None:
        self.lanes = lanes
        self.inputs = [] if inputs is None else inputs
        self.states = [] if states is None else states
        self.prop_values = [] if prop_values is None else prop_values
        self.alive = [] if alive is None else alive
        self.violation = violation

    @property
    def cycles(self) -> int:
        return len(self.inputs)

    def lane_inputs(self, lane: int, upto: Optional[int] = None) -> List[Dict[str, int]]:
        """Extract one lane's scalar input sequence (simulator/witness food)."""
        end = self.cycles if upto is None else upto + 1
        return [
            {name: unpack_lane(planes, lane) for name, planes in cycle.items()}
            for cycle in self.inputs[:end]
        ]

    def lane_state(self, cycle: int, lane: int) -> Dict[str, int]:
        return {
            name: unpack_lane(planes, lane) for name, planes in self.states[cycle].items()
        }


class PackedSimulator:
    """Evaluates 64 (or ``lanes``) independent input vectors per operation.

    The packed simulator shares its semantics with the scalar
    :class:`repro.netlist.simulate.Simulator`, which every cross-check runs:
    wires where first used, properties and constraints on the pre-update
    state, registers updated simultaneously.
    """

    def __init__(self, system: TransitionSystem, lanes: int = DEFAULT_LANES) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        system.validate()
        self.system = system
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self.property_names = list(dict.fromkeys(prop.name for prop in system.properties))
        self._initial_state: Dict[str, Planes] = {
            name: broadcast(evaluate(expr, {}), system.state_vars[name], self.mask)
            for name, expr in system.init.items()
        }
        self._step_fn = PackedStep.step_for(system, self.mask)
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.state: Dict[str, Planes] = dict(self._initial_state)
        self.cycle = 0

    # ------------------------------------------------------------------
    def step(
        self, inputs: Optional[Mapping[str, Planes]] = None
    ) -> Tuple[Dict[str, int], int]:
        """Advance every lane one cycle.

        Returns ``(property_value_planes, constraint_ok_plane)`` evaluated on
        the pre-update state, then commits the packed register update.
        """
        packed_inputs = self._input_planes(inputs)
        next_state, prop_planes, cons_planes = self._step_fn(self.state, packed_inputs)
        constraint_ok = self.mask
        for plane in cons_planes:
            constraint_ok &= plane[0]
        self.state = next_state
        self.cycle += 1
        return {name: planes[0] for name, planes in prop_planes.items()}, constraint_ok

    def _input_planes(
        self, inputs: Optional[Mapping[str, Planes]]
    ) -> Dict[str, Planes]:
        packed: Dict[str, Planes] = {}
        inputs = inputs or {}
        for name, width in self.system.inputs.items():
            planes = inputs.get(name)
            packed[name] = planes if planes is not None else (0,) * width
        return packed

    def random_inputs(self, rng: random.Random) -> Dict[str, Planes]:
        """One cycle of uniformly random packed inputs (one draw per bit plane)."""
        return {
            name: tuple(rng.getrandbits(self.lanes) for _ in range(width))
            for name, width in self.system.inputs.items()
        }

    # ------------------------------------------------------------------
    def run(
        self,
        input_planes: Sequence[Mapping[str, Planes]],
        properties: Optional[Sequence[str]] = None,
        stop_on_violation: bool = True,
        record: bool = True,
    ) -> PackedRun:
        """Run one packed step per element of ``input_planes``.

        Lanes whose environment constraints fail fall out of the ``alive``
        mask from that cycle on; violations are only reported for lanes whose
        constraints held through the violating cycle (matching the frame
        semantics of the SAT engines, which assert the constraints at every
        frame including the violation frame).
        """
        watched = list(properties) if properties is not None else self.property_names
        run = PackedRun(lanes=self.lanes)
        alive = self.mask
        self.reset()
        for cycle, raw in enumerate(input_planes):
            packed_inputs = self._input_planes(raw)
            if record:
                run.inputs.append(packed_inputs)
                run.states.append(dict(self.state))
            prop_planes, constraint_ok = self.step(packed_inputs)
            alive &= constraint_ok
            if record:
                run.prop_values.append(prop_planes)
                run.alive.append(alive)
            if run.violation is None:
                for name in watched:
                    bad = (~prop_planes[name]) & alive
                    if bad:
                        lane = (bad & -bad).bit_length() - 1
                        run.violation = PackedViolation(name, cycle, lane)
                        break
            if run.violation is not None and stop_on_violation:
                break
        return run

    def run_random(
        self,
        cycles: int,
        seed: int = 0,
        properties: Optional[Sequence[str]] = None,
        stop_on_violation: bool = True,
    ) -> PackedRun:
        """Drive every lane with independent uniformly random inputs."""
        rng = random.Random(seed)
        sequence = [self.random_inputs(rng) for _ in range(cycles)]
        return self.run(
            sequence, properties=properties, stop_on_violation=stop_on_violation
        )

    def replay(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        properties: Optional[Sequence[str]] = None,
        record: bool = True,
    ) -> PackedRun:
        """Replay one scalar input sequence, broadcast into every lane."""
        packed = [
            {
                name: broadcast(cycle.get(name, 0), width, self.mask)
                for name, width in self.system.inputs.items()
            }
            for cycle in input_sequence
        ]
        return self.run(
            packed, properties=properties, stop_on_violation=False, record=record
        )

    def replay_many(
        self,
        sequences: Sequence[Sequence[Mapping[str, int]]],
        properties: Optional[Sequence[str]] = None,
        record: bool = True,
    ) -> PackedRun:
        """Replay up to ``lanes`` different input sequences, one per lane.

        Shorter sequences pad with all-zero inputs; at most ``lanes``
        sequences are accepted.
        """
        if len(sequences) > self.lanes:
            raise ValueError(f"{len(sequences)} sequences > {self.lanes} lanes")
        cycles = max((len(seq) for seq in sequences), default=0)
        packed: List[Dict[str, Planes]] = []
        for cycle in range(cycles):
            cycle_planes: Dict[str, Planes] = {}
            for name, width in self.system.inputs.items():
                column = [
                    int(seq[cycle].get(name, 0)) if cycle < len(seq) else 0
                    for seq in sequences
                ]
                cycle_planes[name] = pack_values(column, width)
            packed.append(cycle_planes)
        return self.run(
            packed, properties=properties, stop_on_violation=False, record=record
        )


# ---------------------------------------------------------------------------
# cross-checking against the scalar oracle
# ---------------------------------------------------------------------------


def crosscheck_lane(
    system: TransitionSystem,
    run: PackedRun,
    lane: int,
    cycles: Optional[int] = None,
) -> int:
    """Replay one lane scalar and compare it with the packed run per cycle.

    Compares the registers, every property value and the constraint-alive
    bit: the lane is alive at cycle ``c`` iff every environment constraint
    held at every cycle up to ``c``.  Returns the number of cycles compared;
    raises :class:`SimulationMismatch` on the first divergence.  This is the
    hard gate of the cross-checked-verdict pattern: packed results are only
    trusted where a lane agrees with the scalar simulator.
    """
    end = run.cycles if cycles is None else min(cycles, run.cycles)
    simulator = Simulator(system)
    alive = 1
    for cycle in range(end):
        inputs = {
            name: unpack_lane(planes, lane) for name, planes in run.inputs[cycle].items()
        }
        values = simulator.advance(inputs)
        expected = run.lane_state(cycle, lane)
        for name, value in values.state.items():
            if expected[name] != value:
                raise SimulationMismatch(
                    f"{system.name}: lane {lane} register {name!r} diverged at "
                    f"cycle {cycle}: packed {expected[name]}, scalar {value}"
                )
        for name, scalar_value in values.properties.items():
            packed_value = (run.prop_values[cycle][name] >> lane) & 1
            if packed_value != scalar_value:
                raise SimulationMismatch(
                    f"{system.name}: lane {lane} property {name!r} diverged "
                    f"at cycle {cycle}: packed {packed_value}, scalar {scalar_value}"
                )
        if not all(values.constraints):
            alive = 0
        packed_alive = (run.alive[cycle] >> lane) & 1
        if packed_alive != alive:
            raise SimulationMismatch(
                f"{system.name}: lane {lane} constraint-alive bit diverged at "
                f"cycle {cycle}: packed {packed_alive}, scalar {alive}"
            )
    return end


# ---------------------------------------------------------------------------
# reachable-state sampling (the cube screen of PDR's generalization)
# ---------------------------------------------------------------------------


class ReachabilitySampler:
    """Random reachable states, packed for cheap cube screening.

    A short packed random run harvests distinct register states from lanes
    whose environment constraints held.  Cubes satisfied by a sampled state
    are skipped during PDR generalization (a pure no-progress query avoided).
    """

    def __init__(self, system: TransitionSystem) -> None:
        simulator = PackedSimulator(system)
        run = simulator.run_random(SAMPLE_CYCLES, seed=SAMPLE_SEED, stop_on_violation=False)
        widths = dict(system.state_vars)
        seen: Dict[Tuple[int, ...], Dict[str, int]] = {}
        order = list(widths)
        for cycle in range(run.cycles):
            alive = run.alive[cycle] if cycle else simulator.mask
            if not alive:
                break
            lane_bits = alive
            while lane_bits and len(seen) < MAX_SAMPLED_STATES:
                lane = (lane_bits & -lane_bits).bit_length() - 1
                lane_bits &= lane_bits - 1
                state = run.lane_state(cycle, lane)
                seen.setdefault(tuple(state[name] for name in order), state)
            if len(seen) >= MAX_SAMPLED_STATES:
                break
        states = list(seen.values())
        self._widths = widths
        # packed batches for 64-way cube evaluation
        self._batches: List[Tuple[int, Dict[str, Planes]]] = []
        for start in range(0, len(states), DEFAULT_LANES):
            chunk = states[start : start + DEFAULT_LANES]
            batch_mask = (1 << len(chunk)) - 1
            planes = {
                name: pack_values([state[name] for state in chunk], width)
                for name, width in widths.items()
            }
            self._batches.append((batch_mask, planes))

    def satisfies_cube(self, cube: Iterable[Tuple[str, int, bool]]) -> bool:
        """True when some sampled reachable state satisfies every cube literal."""
        literals = list(cube)
        for name, bit, _value in literals:
            width = self._widths.get(name)
            if width is None or bit >= width:
                return False  # unknown signal: cannot certify reachability
        for batch_mask, planes in self._batches:
            matching = batch_mask
            for name, bit, value in literals:
                plane = planes[name][bit]
                matching &= plane if value else (~plane) & batch_mask
                if not matching:
                    break
            if matching:
                return True
        return False
