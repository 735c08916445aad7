"""The Verilog frontend from a source file to a validated verdict.

Each fixture under ``tests/data/verilog/`` is synthesized from its file and
decided by the certified ladder, and the verdict's certificate is validated
once more against the synthesized design.
"""

import os

from repro.certs import validate_result
from repro.engines import Status
from repro.engines.ladder import default_budget_ladder, run_sequential_ladder
from repro.exprs.nodes import Const
from repro.synth import synthesize_file, synthesize_source

DATA = os.path.join(os.path.dirname(__file__), "data", "verilog")


def _decide(fixture):
    system = synthesize_file(os.path.join(DATA, fixture))
    result = run_sequential_ladder(
        system, None, default_budget_ladder(timeout=30), timeout=30, certify=True
    )
    assert validate_result(system, result).ok
    return system, result


def test_a_net_declaration_assignment_is_a_continuous_assignment():
    system, result = _decide("counter_mod10.v")
    assert "n" in system.wires and set(system.state_vars) == {"c"}
    assert result.status == Status.SAFE


def test_a_variable_declaration_assignment_stays_an_initial_value():
    system = synthesize_source(
        "module m(input clk);\n"
        "  reg [3:0] r = 4'd5;\n"
        "  wire [3:0] w = r + 4'd1;\n"
        "  always @(posedge clk) r <= w;\n"
        "endmodule\n"
    )
    assert isinstance(system.init["r"], Const) and system.init["r"].value == 5
    assert "w" in system.wires


def test_assume_property_constrains_the_environment():
    system, result = _decide("copy_assumed.v")
    assert len(system.constraints) == 1
    assert [prop.name for prop in system.properties] == ["c_not_15"]
    assert result.status == Status.SAFE
    # the same register without the assumption copies a 15 in one cycle
    free, result = _decide("copy_unassumed.v")
    assert free.constraints == []
    assert result.status == Status.UNSAFE
    assert result.certificate.kind == "witness"


def test_ports_declared_wire_parse_in_headers_and_bodies():
    """``input wire``/``output wire`` ports, in an ANSI header and in body
    declarations, are nets like ports that name no kind."""
    system, result = _decide("wire_ports.v")
    assert set(system.inputs) == {"en"} and set(system.state_vars) == {"c"}
    assert result.status == Status.SAFE
    body = synthesize_source(
        "module m(clk, en, y);\n"
        "  input wire clk;\n"
        "  input wire en;\n"
        "  output wire [3:0] y;\n"
        "  reg [3:0] c = 4'd0;\n"
        "  always @(posedge clk) if (en && c != 4'd9) c <= c + 4'd1;\n"
        "  assign y = c;\n"
        "endmodule\n"
    )
    assert set(body.inputs) == {"en"} and set(body.state_vars) == {"c"}
    assert body.width_of("y") == 4
