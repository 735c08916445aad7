// A register that copies its input; the environment never drives 15, so
// the register never holds 15 (copy_unassumed.v drops the assumption).
module copy_assumed(input clk, input [3:0] x);
  reg [3:0] c = 4'd0;
  always @(posedge clk) c <= x;
  assume property (x != 4'd15);
  c_not_15: assert property (c != 4'd15);
endmodule
