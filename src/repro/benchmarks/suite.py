"""Benchmark designs and their expected verdicts.

Each benchmark is a word-level :class:`repro.netlist.TransitionSystem` built
programmatically in the spirit of the circuits the paper draws from the VIS
Verilog models, the Texas-97 suite and opencores.org.  The designs are scaled
so that the pure-Python engines finish in seconds while still exercising the
behaviours the paper compares: data-path intensive circuits (Huffman
encoder/decoder, the DAIO audio chip, a multiply-accumulate datapath), and
control-intensive circuits (a non-pipelined 3-stage processor, the RCU mutual
exclusion protocol, FIFO/instruction-queue controllers, a buffer allocation
model, a bus arbiter).

Every benchmark records its expected verdict and — for the unsafe designs —
the cycle at which the bug manifests (DAIO at cycle 64 and the traffic-light
controller at cycle 65, as in Section IV of the paper), so a harness can
classify engine answers as correct, wrong or inconclusive.

Expected verdicts hold for both representations: the bit-level flow stamps
environment constraints (``fifo``) on every frame, as the word-level one
does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.exprs import (
    Expr,
    bv_and,
    bv_const,
    bv_eq,
    bv_ite,
    bv_lshr,
    bv_mul,
    bv_ne,
    bv_not,
    bv_or,
    bv_reduce_or,
    bv_shl,
    bv_uge,
    bv_ule,
    bv_ult,
    bv_zero_extend,
    bool_and,
    bool_implies,
    bool_not,
)
from repro.netlist import TransitionSystem
from repro.records import Frozen


class Benchmark(Frozen):
    """One design of the suite with its ground truth.

    ``expected`` is ``"safe"`` or ``"unsafe"``; for unsafe designs
    ``bug_cycle`` is the first cycle at which the (first) property is
    violated.  ``category`` is ``"control"`` or ``"datapath"``, mirroring the
    two design families of the paper's evaluation.
    """

    def __init__(
        self,
        name: str,
        description: str,
        expected: str,
        build: Callable[[], TransitionSystem],
        bug_cycle: Optional[int] = None,
        category: str = "control",
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "build", build)
        object.__setattr__(self, "bug_cycle", bug_cycle)
        object.__setattr__(self, "category", category)

    def load(self) -> TransitionSystem:
        """Build a fresh instance of the design."""
        system = self.build()
        system.validate()
        return system


# ---------------------------------------------------------------------------
# data-path intensive designs
# ---------------------------------------------------------------------------


def _build_huffman_enc() -> TransitionSystem:
    """Huffman encoder: variable-length code lengths accumulated into a buffer."""
    ts = TransitionSystem("huffman_enc")
    sym = ts.add_input("sym", 3)
    sr = ts.add_state_var("sr", 8, init=0)
    length = ts.add_state_var("len", 4, init=0)
    code_len = bv_ite(
        bv_eq(sym, bv_const(0, 3)),
        bv_const(1, 4),
        bv_ite(
            bv_ule(sym, bv_const(2, 3)),
            bv_const(2, 4),
            bv_ite(bv_ule(sym, bv_const(5, 3)), bv_const(3, 4), bv_const(4, 4)),
        ),
    )
    flush = bv_uge(length, bv_const(8, 4))
    ts.set_next("len", bv_ite(flush, length - bv_const(8, 4), length + code_len))
    shifted = bv_shl(sr, bv_zero_extend(code_len, 4))
    ts.set_next("sr", bv_ite(flush, sr, bv_or(shifted, bv_zero_extend(sym, 5))))
    # lengths grow by at most 4 below 8 and shrink by 8 above: bounded by 11
    ts.add_property("len_bounded", bv_ule(length, bv_const(11, 4)))
    ts.source = "modelled on the VIS Huffman encoder"
    return ts


def _build_huffman_dec() -> TransitionSystem:
    """Huffman decoder: walks a small code tree, leaves return to the root."""
    ts = TransitionSystem("huffman_dec")
    bit = ts.add_input("bit", 1)
    node = ts.add_state_var("node", 3, init=0)

    def c(value: int) -> Expr:
        return bv_const(value, 3)

    ts.set_next(
        "node",
        bv_ite(
            bv_eq(node, c(0)),
            bv_ite(bit, c(1), c(2)),
            bv_ite(
                bv_eq(node, c(1)),
                bv_ite(bit, c(3), c(4)),
                bv_ite(bv_eq(node, c(2)), bv_ite(bit, c(5), c(6)), c(0)),
            ),
        ),
    )
    ts.add_property("valid_node", bv_ne(node, c(7)))
    ts.source = "modelled on the VIS Huffman decoder"
    return ts


def _build_daio() -> TransitionSystem:
    """DAIO digital audio chip model; the sample counter bug fires at cycle 64."""
    ts = TransitionSystem("daio")
    sample = ts.add_input("sample", 8)
    t = ts.add_state_var("t", 7, init=0)
    acc = ts.add_state_var("acc", 8, init=0)
    err = ts.add_state_var("err", 1, init=0)
    ts.set_next("t", t + bv_const(1, 7))
    ts.set_next("acc", acc + sample)
    # receiver overrun: the frame counter silently wraps a 6-bit window
    ts.set_next("err", bv_or(err, bv_eq(t, bv_const(63, 7))))
    ts.add_property("no_overrun", bv_eq(err, bv_const(0, 1)))
    ts.source = "modelled on the VIS DAIO example (unsafe at cycle 64)"
    return ts


def _build_barrel16() -> TransitionSystem:
    """16-bit rotator (Texas-97 style datapath): a set bit can never vanish."""
    ts = TransitionSystem("barrel16")
    r = ts.add_state_var("r", 16, init=1)
    ts.set_next(
        "r", bv_or(bv_shl(r, bv_const(1, 16)), bv_lshr(r, bv_const(15, 16)))
    )
    ts.add_property("nonzero", bv_reduce_or(r))
    ts.source = "barrel rotator, Texas-97 flavour"
    return ts


def _build_mac16() -> TransitionSystem:
    """Multiply-accumulate datapath with a mod-10 sequence counter."""
    ts = TransitionSystem("mac16")
    x = ts.add_input("x", 8)
    y = ts.add_input("y", 8)
    acc = ts.add_state_var("acc", 16, init=0)
    cnt = ts.add_state_var("cnt", 4, init=0)
    ts.set_next("acc", acc + bv_mul(bv_zero_extend(x, 8), bv_zero_extend(y, 8)))
    ts.set_next(
        "cnt", bv_ite(bv_eq(cnt, bv_const(9, 4)), bv_const(0, 4), cnt + bv_const(1, 4))
    )
    ts.add_property("cnt_in_range", bv_ne(cnt, bv_const(10, 4)))
    # second property (multi-property design): the batch runner shards one
    # worker per property, so both verify concurrently over the shared blast
    ts.add_property("cnt_le_9", bv_ule(cnt, bv_const(9, 4)))
    ts.source = "opencores-style MAC datapath"
    return ts


# ---------------------------------------------------------------------------
# control intensive designs
# ---------------------------------------------------------------------------


def _build_tlc() -> TransitionSystem:
    """Traffic light controller with a stuck timer; both roads go green at cycle 65."""
    ts = TransitionSystem("tlc")
    phase = ts.add_state_var("phase", 2, init=0)
    timer = ts.add_state_var("timer", 7, init=0)
    ts.set_next("phase", phase + bv_const(1, 2))
    ts.set_next(
        "timer",
        bv_ite(bv_eq(timer, bv_const(127, 7)), timer, timer + bv_const(1, 7)),
    )
    overrun = bv_uge(timer, bv_const(65, 7))
    green_ns = bv_or(bv_eq(phase, bv_const(0, 2)), overrun)
    green_ew = bv_or(bv_eq(phase, bv_const(2, 2)), overrun)
    ts.add_property("exclusive_green", bv_not(bv_and(green_ns, green_ew)))
    ts.source = "modelled on the Texas-97 traffic light controller (unsafe at cycle 65)"
    return ts


def _build_proc3() -> TransitionSystem:
    """Non-pipelined 3-stage (fetch/decode/execute) accumulator processor."""
    ts = TransitionSystem("proc3")
    imm = ts.add_input("imm", 8)
    stage = ts.add_state_var("stage", 2, init=0)
    pc = ts.add_state_var("pc", 4, init=0)
    acc = ts.add_state_var("acc", 8, init=0)
    execute = bv_eq(stage, bv_const(2, 2))
    ts.set_next("stage", bv_ite(execute, bv_const(0, 2), stage + bv_const(1, 2)))
    ts.set_next("pc", bv_ite(execute, pc + bv_const(1, 4), pc))
    ts.set_next("acc", bv_ite(execute, acc + imm, acc))
    ts.add_property("valid_stage", bv_ne(stage, bv_const(3, 2)))
    # second property (multi-property design, see mac16): same invariant
    # stated as a bound, sharded to its own batch worker
    ts.add_property("stage_le_2", bv_ule(stage, bv_const(2, 2)))
    ts.source = "modelled on the VIS non-pipelined processor"
    return ts


def _build_rcu() -> TransitionSystem:
    """RCU-style turn-based mutual exclusion between two requesters."""
    ts = TransitionSystem("rcu")
    req0 = ts.add_input("req0", 1)
    req1 = ts.add_input("req1", 1)
    s0 = ts.add_state_var("s0", 2, init=0)
    s1 = ts.add_state_var("s1", 2, init=0)
    turn = ts.add_state_var("turn", 1, init=0)

    def side(state: Expr, req: Expr, my_turn: Expr) -> Expr:
        idle = bv_eq(state, bv_const(0, 2))
        trying = bv_eq(state, bv_const(1, 2))
        return bv_ite(
            idle,
            bv_ite(req, bv_const(1, 2), bv_const(0, 2)),
            bv_ite(
                trying,
                bv_ite(my_turn, bv_const(2, 2), bv_const(1, 2)),
                bv_const(0, 2),  # critical section lasts one cycle
            ),
        )

    ts.set_next("s0", side(s0, req0, bv_eq(turn, bv_const(0, 1))))
    ts.set_next("s1", side(s1, req1, bv_eq(turn, bv_const(1, 1))))
    in_crit0 = bv_eq(s0, bv_const(2, 2))
    in_crit1 = bv_eq(s1, bv_const(2, 2))
    ts.set_next(
        "turn", bv_ite(in_crit0, bv_const(1, 1), bv_ite(in_crit1, bv_const(0, 1), turn))
    )
    ts.add_property("mutex", bv_not(bv_and(in_crit0, in_crit1)))
    ts.source = "modelled on the VIS RCU mutual exclusion protocol"
    return ts


def _build_fifo() -> TransitionSystem:
    """FIFO controller; the environment never pushes when full nor pops when empty."""
    ts = TransitionSystem("fifo")
    put = ts.add_input("put", 1)
    get = ts.add_input("get", 1)
    count = ts.add_state_var("count", 4, init=0)
    one = bv_const(1, 4)
    zero = bv_const(0, 4)
    push_only = bv_and(put, bv_not(get))
    pop_only = bv_and(get, bv_not(put))
    ts.set_next(
        "count",
        count + bv_ite(push_only, one, zero) - bv_ite(pop_only, one, zero),
    )
    ts.add_constraint(bool_implies(put, bv_ult(count, bv_const(8, 4))))
    ts.add_constraint(bool_implies(get, bv_ne(count, zero)))
    ts.add_property("no_overflow", bv_ule(count, bv_const(8, 4)))
    ts.source = "modelled on the VIS FIFO controller (word-level constraints)"
    return ts


def _build_buffalloc() -> TransitionSystem:
    """Buffer allocation model: free + used buffers always total eight."""
    ts = TransitionSystem("buffalloc")
    alloc = ts.add_input("alloc", 1)
    release = ts.add_input("release", 1)
    free = ts.add_state_var("free", 4, init=8)
    used = ts.add_state_var("used", 4, init=0)
    one = bv_const(1, 4)
    zero = bv_const(0, 4)
    do_alloc = bool_and(alloc, bool_not(release), bv_ne(free, zero))
    do_release = bool_and(release, bool_not(alloc), bv_ne(used, zero))
    delta = bv_ite(do_alloc, one, zero) - bv_ite(do_release, one, zero)
    ts.set_next("free", free - delta)
    ts.set_next("used", used + delta)
    ts.add_property("conservation", bv_eq(free + used, bv_const(8, 4)))
    ts.source = "modelled on the VIS buffer allocation model"
    return ts


def _build_iqueue() -> TransitionSystem:
    """Instruction queue controller with wrap-around pointers and a fill count."""
    ts = TransitionSystem("iqueue")
    enq = ts.add_input("enq", 1)
    deq = ts.add_input("deq", 1)
    head = ts.add_state_var("head", 3, init=0)
    tail = ts.add_state_var("tail", 3, init=0)
    count = ts.add_state_var("count", 4, init=0)
    do_enq = bool_and(enq, bv_ult(count, bv_const(8, 4)))
    do_deq = bool_and(deq, bv_ne(count, bv_const(0, 4)))
    one3 = bv_const(1, 3)
    one4 = bv_const(1, 4)
    zero3 = bv_const(0, 3)
    zero4 = bv_const(0, 4)
    ts.set_next("tail", tail + bv_ite(do_enq, one3, zero3))
    ts.set_next("head", head + bv_ite(do_deq, one3, zero3))
    ts.set_next(
        "count", count + bv_ite(do_enq, one4, zero4) - bv_ite(do_deq, one4, zero4)
    )
    ts.add_property("no_overfill", bv_ule(count, bv_const(8, 4)))
    ts.source = "modelled on the Texas-97 instruction queue controller"
    return ts


def _build_arbiter() -> TransitionSystem:
    """Two-client bus arbiter granting at most one client per cycle."""
    ts = TransitionSystem("arbiter")
    req0 = ts.add_input("req0", 1)
    req1 = ts.add_input("req1", 1)
    grant = ts.add_state_var("grant", 2, init=0)

    def g(value: int) -> Expr:
        return bv_const(value, 2)

    ts.set_next(
        "grant",
        bv_ite(
            bv_eq(grant, g(1)),
            bv_ite(req0, g(1), bv_ite(req1, g(2), g(0))),
            bv_ite(
                bv_eq(grant, g(2)),
                bv_ite(req1, g(2), bv_ite(req0, g(1), g(0))),
                bv_ite(req0, g(1), bv_ite(req1, g(2), g(0))),
            ),
        ),
    )
    ts.add_property("one_hot_grant", bv_ne(grant, g(3)))
    ts.source = "round-robin-ish bus arbiter"
    return ts


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

BENCHMARKS: Dict[str, Benchmark] = {
    benchmark.name: benchmark
    for benchmark in [
        Benchmark(
            "huffman_enc",
            "Huffman encoder with variable-length code buffer",
            "safe",
            _build_huffman_enc,
            category="datapath",
        ),
        Benchmark(
            "huffman_dec",
            "Huffman decoder walking a small code tree",
            "safe",
            _build_huffman_dec,
            category="datapath",
        ),
        Benchmark(
            "daio",
            "DAIO digital audio chip with a frame-counter overrun bug",
            "unsafe",
            _build_daio,
            bug_cycle=64,
            category="datapath",
        ),
        Benchmark(
            "barrel16",
            "16-bit barrel rotator; a set bit never vanishes",
            "safe",
            _build_barrel16,
            category="datapath",
        ),
        Benchmark(
            "mac16",
            "Multiply-accumulate datapath with a mod-10 sequencer",
            "safe",
            _build_mac16,
            category="datapath",
        ),
        Benchmark(
            "tlc",
            "Traffic light controller with a stuck timer",
            "unsafe",
            _build_tlc,
            bug_cycle=65,
            category="control",
        ),
        Benchmark(
            "proc3",
            "Non-pipelined 3-stage accumulator processor",
            "safe",
            _build_proc3,
            category="control",
        ),
        Benchmark(
            "rcu",
            "Turn-based mutual exclusion (RCU protocol model)",
            "safe",
            _build_rcu,
            category="control",
        ),
        Benchmark(
            "fifo",
            "FIFO controller under put/get environment constraints",
            "safe",
            _build_fifo,
            category="control",
        ),
        Benchmark(
            "buffalloc",
            "Buffer allocation model conserving eight buffers",
            "safe",
            _build_buffalloc,
            category="control",
        ),
        Benchmark(
            "iqueue",
            "Instruction queue controller with wrap-around pointers",
            "safe",
            _build_iqueue,
            category="control",
        ),
        Benchmark(
            "arbiter",
            "Two-client bus arbiter with one-cycle grants",
            "safe",
            _build_arbiter,
            category="control",
        ),
    ]
}


def benchmark_names() -> List[str]:
    """Return the benchmark names in suite order."""
    return list(BENCHMARKS)


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)}"
        ) from None


def load_system(name: str) -> TransitionSystem:
    """Build a fresh :class:`TransitionSystem` for the named benchmark."""
    return get_benchmark(name).load()


#: memoized builds for the portfolio path: the parent process warms the
#: template caches on these instances before forking, and the workers' loads
#: resolve to the *same objects*, so the blasted templates are inherited
#: copy-on-write instead of being re-blasted once per worker
_SHARED_SYSTEMS: Dict[str, TransitionSystem] = {}


def load_system_cached(name: str) -> TransitionSystem:
    """Return the shared (memoized) build of the named benchmark.

    Unlike :func:`load_system` this returns the same instance on every call.
    Engines never mutate the designs they verify, and the template cache
    (:func:`repro.engines.encoding.template_library`) fingerprints the design
    content anyway, so sharing is safe; use :func:`load_system` when a run
    must not share blasting artifacts (e.g. timing a cold encode).
    """
    system = _SHARED_SYSTEMS.get(name)
    if system is None:
        system = load_system(name)
        _SHARED_SYSTEMS[name] = system
    return system
