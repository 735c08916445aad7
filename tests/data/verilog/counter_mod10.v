// A mod-10 counter whose increment is a net declaration assignment
// (`wire n = ...;`, a continuous assignment) and whose reset value is a
// variable declaration assignment (`reg c = ...;`, an initial value).
module counter_mod10(input clk);
  reg [3:0] c = 4'd0;
  wire [3:0] n = c + 4'd1;
  always @(posedge clk) c <= (c == 4'd9) ? 4'd0 : n;
  c_le_9: assert property (c <= 4'd9);
endmodule
