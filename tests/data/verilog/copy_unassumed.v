// copy_assumed.v without its assumption: an input of 15 reaches the
// register one cycle later.
module copy_unassumed(input clk, input [3:0] x);
  reg [3:0] c = 4'd0;
  always @(posedge clk) c <= x;
  c_not_15: assert property (c != 4'd15);
endmodule
