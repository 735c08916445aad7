// Ports declared `wire` in a Verilog-2001 ANSI header: a counter that
// counts enabled cycles up to 9 and drives its value out through a
// continuous assignment.
module wire_ports(input wire clk, input wire en, output wire [3:0] y);
  reg [3:0] c = 4'd0;
  always @(posedge clk) if (en && c != 4'd9) c <= c + 4'd1;
  assign y = c;
  y_le_9: assert property (y <= 4'd9);
endmodule
