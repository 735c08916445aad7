"""Serialization of the sequential AIG in the ASCII AIGER format.

HWMCC benchmarks are distributed as AIGER.  :func:`write_aiger` exports a
bit-blasted design so it can be inspected with standard tools, and
:func:`read_aiger` parses ASCII AIGER (``aag``) input, which
``repro-verify FILE.aag`` lifts to a transition system and verifies.  Both
keep the AIGER 1.9 bad-state and invariant-constraint sections; justice and
fairness properties are not supported, and a file declaring any is refused.
"""

from __future__ import annotations

from typing import Dict, List

from repro.aig.graph import AIG


def write_aiger(aig: AIG) -> str:
    """Serialize the AIG in ASCII AIGER 1.9 format (``aag`` header)."""
    lines: List[str] = []
    num_ands = len(aig.ands)
    header = (
        f"aag {aig.max_variable} {len(aig.inputs)} {len(aig.latches)} "
        f"{len(aig.outputs)} {num_ands}"
    )
    if aig.bad or aig.constraints:
        header += f" {len(aig.bad)}"
    if aig.constraints:
        header += f" {len(aig.constraints)}"
    lines.append(header)
    for literal in aig.inputs:
        lines.append(str(literal))
    for latch in aig.latches:
        if latch.reset == 0:
            lines.append(f"{latch.literal} {latch.next_literal}")
        else:
            lines.append(f"{latch.literal} {latch.next_literal} {int(latch.reset)}")
    for _, literal in aig.outputs:
        lines.append(str(literal))
    for _, literal in aig.bad:
        lines.append(str(literal))
    for literal in aig.constraints:
        lines.append(str(literal))
    for output, (left, right) in aig.ands.items():
        lines.append(f"{output} {left} {right}")
    # symbol table
    for index, literal in enumerate(aig.inputs):
        name = aig.input_names.get(literal, f"i{index}")
        lines.append(f"i{index} {name}")
    for index, latch in enumerate(aig.latches):
        lines.append(f"l{index} {latch.name or f'l{index}'}")
    for index, (name, _) in enumerate(aig.outputs):
        lines.append(f"o{index} {name}")
    for index, (name, _) in enumerate(aig.bad):
        lines.append(f"b{index} {name}")
    lines.append("c")
    lines.append(f"generated by repro.aig from {aig.name}")
    return "\n".join(lines) + "\n"


def read_aiger(text: str) -> AIG:
    """Parse an ASCII AIGER file produced by :func:`write_aiger`."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split()
    if header[0] != "aag":
        raise ValueError("only ASCII AIGER (aag) is supported")
    _, num_inputs, num_latches, num_outputs, num_ands = (int(x) for x in header[1:6])
    num_bad, num_constraints, num_justice, num_fairness = (
        int(header[index]) if len(header) > index else 0 for index in range(6, 10)
    )
    if num_justice or num_fairness:
        raise ValueError(
            "AIGER justice and fairness properties (J/F) are not supported"
        )
    aig = AIG()
    position = 1
    literal_remap: Dict[int, int] = {0: 0, 1: 1}

    input_literals = []
    for _ in range(num_inputs):
        literal = int(lines[position].split()[0])
        position += 1
        input_literals.append(literal)
    latch_rows = []
    for _ in range(num_latches):
        parts = lines[position].split()
        position += 1
        latch_rows.append(parts)
    output_literals = []
    for _ in range(num_outputs):
        output_literals.append(int(lines[position]))
        position += 1
    bad_literals = []
    for _ in range(num_bad):
        bad_literals.append(int(lines[position]))
        position += 1
    constraint_literals = []
    for _ in range(num_constraints):
        constraint_literals.append(int(lines[position]))
        position += 1
    and_rows = []
    for _ in range(num_ands):
        and_rows.append([int(x) for x in lines[position].split()])
        position += 1

    # symbol table: "<i|l|o|b><index> <name>" rows until the comment section
    symbols: Dict[str, str] = {}
    while position < len(lines):
        line = lines[position]
        if line.strip() == "c":
            break
        key, _, name = line.partition(" ")
        if (
            len(key) >= 2
            and key[0] in "ilob"
            and key[1:].isdigit()
            and name
        ):
            symbols[key] = name
        position += 1

    for index, literal in enumerate(input_literals):
        new = aig.add_input(symbols.get(f"i{index}", ""))
        literal_remap[literal] = new
        literal_remap[literal ^ 1] = new ^ 1
    latches = []
    for index, parts in enumerate(latch_rows):
        literal = int(parts[0])
        latch = aig.add_latch(
            name=symbols.get(f"l{index}", ""),
            reset=int(parts[2]) if len(parts) > 2 else 0,
        )
        latches.append((latch, int(parts[1])))
        literal_remap[literal] = latch.literal
        literal_remap[literal ^ 1] = latch.literal ^ 1

    def remap(literal: int) -> int:
        if literal in literal_remap:
            return literal_remap[literal]
        raise ValueError(f"literal {literal} used before definition")

    for output, left, right in and_rows:
        new = aig.add_and(remap(left), remap(right))
        literal_remap[output] = new
        literal_remap[output ^ 1] = new ^ 1
    for latch, next_literal in latches:
        aig.set_latch_next(latch, remap(next_literal))
    for index, literal in enumerate(output_literals):
        aig.add_output(symbols.get(f"o{index}", f"o{index}"), remap(literal))
    for index, literal in enumerate(bad_literals):
        aig.add_bad(symbols.get(f"b{index}", f"b{index}"), remap(literal))
    aig.constraints = [remap(literal) for literal in constraint_literals]
    return aig
