"""One step compiler, three domains.

A design's clock cycle runs as one straight-line Python function, generated
from its :class:`TransitionSystem` and ``compile()``d once: the step
function of the paper's v2c flow (Section III.A), over which the software
analyzers run.  :class:`StepCompiler` is the skeleton every domain shares.
It reads the design one way:

* each register and input is bound once, and each wire is emitted where it
  is first used (a wire that reaches itself is a combinational cycle);
* each expression DAG node is emitted once, by node identity, so shared
  subterms are computed once;
* the first property of a name answers for it, as in ``property_by_name``.

A domain supplies only its constant form (:meth:`StepCompiler.constant`),
its operator lowering (:meth:`StepCompiler.operator`) and its return value
(:meth:`StepCompiler.returns`):

* scalar ints, :class:`repro.netlist.simulate.ScalarStep`;
* 64-lane bit planes, :class:`repro.netlist.bitsim.PackedStep`;
* unsigned intervals, :class:`repro.engines.absint.IntervalStep`.

:meth:`StepCompiler.step_for` compiles one step per design and domain, once
per process (:func:`repro.netlist.transition.derived`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple

from repro.exprs.nodes import Const, Expr, Op, Var, mask
from repro.netlist.transition import TransitionSystem, TransitionSystemError, derived


def mapping(atoms: Mapping[str, str]) -> str:
    """The source of a dict literal from names to atoms."""
    return "{" + ", ".join(f"{name!r}: {atom}" for name, atom in atoms.items()) + "}"


def sequence(atoms: Iterable[str]) -> str:
    """The source of a tuple literal of atoms."""
    return "(" + "".join(f"{atom}, " for atom in atoms) + ")"


class StepCompiler:
    """Emits the straight-line step function of one design in one domain.

    An *atom* is what holds a node's value in the generated code: a local
    bound by :meth:`_bind`, a global set by :meth:`hoist`, or a literal.
    """

    #: the step's parameters: the state and the input mappings
    params = "S, I"
    #: how the step reads an input, given its ``name`` and ``mask``
    read_input = "I[{name!r}]"
    #: the filename prefix the step is compiled under
    tag = "step"
    #: the globals (kernels) the generated code calls
    kernels: Mapping[str, object] = {}

    def __init__(self, system: TransitionSystem) -> None:
        self.system = system
        self.lines: List[str] = [f"def _step({self.params}):"]
        self.namespace: Dict[str, object] = dict(self.kernels)
        #: id(node) -> its atom
        self.atoms: Dict[int, str] = {}
        #: (value, width) -> the atom of that constant
        self.constants: Dict[Tuple[int, int], str] = {}
        #: signal name -> its atom
        self.signals: Dict[str, str] = {}
        self.resolving: Set[str] = set()

    # ------------------------------------------------------------------
    # what a domain supplies
    # ------------------------------------------------------------------
    def constant(self, value: int, width: int) -> str:
        """The atom of a constant."""
        raise NotImplementedError

    def operator(self, node: Op, args: List[str]) -> str:
        """The atom of ``node`` over the atoms of its arguments."""
        raise NotImplementedError

    def returns(self) -> str:
        """The source of the step's return value; emits the roots it reads."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # what the skeleton owns
    # ------------------------------------------------------------------
    def _bind(self, code: str) -> str:
        """A new local holding the value of ``code``."""
        local = f"t{len(self.lines)}"
        self.lines.append(f"    {local} = {code}")
        return local

    def hoist(self, value: object) -> str:
        """A new global holding ``value``, computed at compile time."""
        name = f"K{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def emit(self, node: Expr) -> str:
        """The atom holding ``node``'s value, emitting it on first use."""
        atom = self.atoms.get(id(node))
        if atom is None:
            if isinstance(node, Const):
                key = (node.value, node.width)
                atom = self.constants.get(key)
                if atom is None:
                    atom = self.constants[key] = self.constant(node.value, node.width)
            elif isinstance(node, Var):
                atom = self.signal(node.name)
            else:
                atom = self.operator(node, [self.emit(arg) for arg in node.args])
            self.atoms[id(node)] = atom
        return atom

    def signal(self, name: str) -> str:
        """The atom of a signal; a wire is emitted here on first use."""
        atom = self.signals.get(name)
        if atom is not None:
            return atom
        if name not in self.system.wires:
            raise TransitionSystemError(f"expression refers to undeclared signal {name!r}")
        if name in self.resolving:
            raise TransitionSystemError(
                f"combinational cycle through wires: {sorted(self.resolving)}"
            )
        self.resolving.add(name)
        atom = self.signals[name] = self.emit(self.system.wires[name])
        self.resolving.discard(name)
        return atom

    def properties(self) -> Dict[str, str]:
        """Each property's atom by name, in declaration order."""
        atoms: Dict[str, str] = {}
        for prop in self.system.properties:
            # the first property of a name answers for it, as in property_by_name
            if prop.name not in atoms:
                atoms[prop.name] = self.emit(prop.expr)
        return atoms

    def compile(self) -> Callable:
        system = self.system
        for name in system.state_vars:
            self.signals[name] = self._bind(f"S[{name!r}]")
        for name, width in system.inputs.items():
            self.signals[name] = self._bind(self.read_input.format(name=name, mask=mask(width)))
        self.lines.append(f"    return {self.returns()}")
        source = "\n".join(self.lines)
        exec(  # noqa: S102 - compiling our own generated step function
            compile(source, f"<{self.tag}:{system.name}>", "exec"), self.namespace
        )
        step = self.namespace.pop("_step")
        step._source = source  # kept for debugging and tests
        return step

    @classmethod
    def step_for(cls, system: TransitionSystem, *params: object) -> Callable:
        """Return (compiling once if needed) the step of ``system`` in this domain.

        ``params`` are the domain's own (the packed domain's lane mask).  No
        step holds a reference to its system.
        """
        return derived(
            system, ("step", cls, *params), lambda: cls(system, *params).compile()
        )
