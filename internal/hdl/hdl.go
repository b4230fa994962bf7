// Package hdl exports digital golden models of a quantized network's
// stages as synthesizable Verilog-2001. Each SEI conv stage becomes a
// module computing the integer-exact binarized matrix-vector product
// (the function the analog crossbar block implements), and the FC
// stage becomes a score module with an argmax. The generated RTL
// serves as the verification reference a tape-out of the paper's
// structure would be checked against.
package hdl

import (
	"fmt"
	"io"
	"math"

	"sei/internal/quant"
	"sei/internal/rram"
)

// StageModel is the integer-exact model of one conv stage: signed
// 8-bit weights (row-major [N][M]) and the integer threshold such that
// an output bit fires iff Σ_{in_j=1} w[j][c] > Thr.
type StageModel struct {
	Name string
	N, M int
	// W holds the quantized weights, row-major.
	W []int
	// Thr is the integer threshold (floor of the real threshold in
	// weight-integer units; the strict > compare reproduces the float
	// compare exactly for integer sums).
	Thr int64
	// Scale converts integer units back to real weights.
	Scale float64
}

// Eval computes the stage's output bits with the exact integer
// semantics the RTL implements.
func (s *StageModel) Eval(in []bool) []bool {
	if len(in) != s.N {
		panic(fmt.Sprintf("hdl: input length %d, want %d", len(in), s.N))
	}
	out := make([]bool, s.M)
	for c := 0; c < s.M; c++ {
		var acc int64
		for j := 0; j < s.N; j++ {
			if in[j] {
				acc += int64(s.W[j*s.M+c])
			}
		}
		out[c] = acc > s.Thr
	}
	return out
}

// FCModel is the integer model of the final stage: scores[c] =
// Σ_{in_j=1} w[j][c] + b[c], argmax over c.
type FCModel struct {
	Name  string
	N, M  int
	W     []int
	B     []int64 // bias in the same integer units
	Scale float64
}

// Eval computes the integer scores and the argmax class.
func (f *FCModel) Eval(in []bool) ([]int64, int) {
	scores := make([]int64, f.M)
	copy(scores, f.B)
	for j := 0; j < f.N; j++ {
		if in[j] {
			for c := 0; c < f.M; c++ {
				scores[c] += int64(f.W[j*f.M+c])
			}
		}
	}
	best := 0
	for c, s := range scores {
		if s > scores[best] {
			best = c
		}
	}
	return scores, best
}

// Models extracts integer-exact stage models from a quantized network.
// Stage 0 (the DAC-driven input layer) has no 1-bit digital model and
// is skipped; the returned conv models cover stages 1..len(Convs)-1.
func Models(q *quant.QuantizedNet) ([]*StageModel, *FCModel, error) {
	var stages []*StageModel
	for l := 1; l < len(q.Convs); l++ {
		w := q.ConvMatrix(l)
		ints, scale, err := rram.QuantizeSymmetric(w, rram.WeightBits)
		if err != nil {
			return nil, nil, err
		}
		stages = append(stages, &StageModel{
			Name:  fmt.Sprintf("sei_stage%d", l),
			N:     w.Dim(0),
			M:     w.Dim(1),
			W:     ints,
			Thr:   int64(math.Floor(q.Thresholds[l] / scale)),
			Scale: scale,
		})
	}
	fcw := q.FCMatrix()
	ints, scale, err := rram.QuantizeSymmetric(fcw, rram.WeightBits)
	if err != nil {
		return nil, nil, err
	}
	fc := &FCModel{
		Name:  "sei_fc",
		N:     fcw.Dim(0),
		M:     fcw.Dim(1),
		W:     ints,
		B:     make([]int64, fcw.Dim(1)),
		Scale: scale,
	}
	for c, b := range q.FC.B {
		fc.B[c] = int64(math.Round(b / scale))
	}
	return stages, fc, nil
}

// writeWeightROM emits a Verilog function mapping a flat index to a
// signed 8-bit weight.
func writeWeightROM(w io.Writer, fname string, weights []int) {
	fmt.Fprintf(w, "  function signed [7:0] %s;\n", fname)
	fmt.Fprintf(w, "    input integer idx;\n")
	fmt.Fprintf(w, "    begin\n      case (idx)\n")
	for i, v := range weights {
		fmt.Fprintf(w, "        %d: %s = %s;\n", i, fname, verilogSigned8(v))
	}
	fmt.Fprintf(w, "        default: %s = 8'sd0;\n", fname)
	fmt.Fprintf(w, "      endcase\n    end\n  endfunction\n")
}

// verilogSigned8 renders an integer as a signed 8-bit Verilog literal.
func verilogSigned8(v int) string {
	if v < 0 {
		return fmt.Sprintf("-8'sd%d", -v)
	}
	return fmt.Sprintf("8'sd%d", v)
}

// WriteStageModule emits the synthesizable module for one conv stage.
func WriteStageModule(w io.Writer, s *StageModel) {
	fmt.Fprintf(w, "// %s: binarized MVM + threshold, N=%d inputs, M=%d kernels.\n", s.Name, s.N, s.M)
	fmt.Fprintf(w, "// Golden digital model of the analog SEI crossbar block\n")
	fmt.Fprintf(w, "// (weights scale %.6g, integer threshold %d).\n", s.Scale, s.Thr)
	fmt.Fprintf(w, "module %s (\n  input  wire [%d:0] in,\n  output reg  [%d:0] out\n);\n", s.Name, s.N-1, s.M-1)
	writeWeightROM(w, "weight", s.W)
	fmt.Fprintf(w, "  localparam signed [31:0] THRESHOLD = %d;\n", s.Thr)
	fmt.Fprintf(w, "  integer j, c;\n  reg signed [31:0] acc;\n")
	fmt.Fprintf(w, "  always @* begin\n")
	fmt.Fprintf(w, "    for (c = 0; c < %d; c = c + 1) begin\n", s.M)
	fmt.Fprintf(w, "      acc = 0;\n")
	fmt.Fprintf(w, "      for (j = 0; j < %d; j = j + 1)\n", s.N)
	fmt.Fprintf(w, "        if (in[j]) acc = acc + weight(j*%d + c);\n", s.M)
	fmt.Fprintf(w, "      out[c] = (acc > THRESHOLD);\n")
	fmt.Fprintf(w, "    end\n  end\nendmodule\n\n")
}

// WriteFCModule emits the final-stage score module with argmax.
func WriteFCModule(w io.Writer, f *FCModel) {
	fmt.Fprintf(w, "// %s: FC scores + argmax, N=%d inputs, M=%d classes.\n", f.Name, f.N, f.M)
	fmt.Fprintf(w, "module %s (\n  input  wire [%d:0] in,\n  output reg  [31:0] class_out\n);\n", f.Name, f.N-1)
	writeWeightROM(w, "weight", f.W)
	fmt.Fprintf(w, "  function signed [31:0] bias;\n    input integer idx;\n    begin\n      case (idx)\n")
	for c, b := range f.B {
		fmt.Fprintf(w, "        %d: bias = %d;\n", c, b)
	}
	fmt.Fprintf(w, "        default: bias = 0;\n      endcase\n    end\n  endfunction\n")
	fmt.Fprintf(w, "  integer j, c;\n  reg signed [31:0] acc, best;\n")
	fmt.Fprintf(w, "  always @* begin\n")
	fmt.Fprintf(w, "    class_out = 0;\n    best = -32'sd2147483647;\n")
	fmt.Fprintf(w, "    for (c = 0; c < %d; c = c + 1) begin\n", f.M)
	fmt.Fprintf(w, "      acc = bias(c);\n")
	fmt.Fprintf(w, "      for (j = 0; j < %d; j = j + 1)\n", f.N)
	fmt.Fprintf(w, "        if (in[j]) acc = acc + weight(j*%d + c);\n", f.M)
	fmt.Fprintf(w, "      if (acc > best) begin best = acc; class_out = c; end\n")
	fmt.Fprintf(w, "    end\n  end\nendmodule\n\n")
}

// Export writes the full golden-model RTL for a quantized network: one
// module per SEI conv stage plus the FC/argmax module.
func Export(q *quant.QuantizedNet, w io.Writer) error {
	stages, fc, err := Models(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "// Auto-generated by sei/internal/hdl — golden digital models of the\n")
	fmt.Fprintf(w, "// SEI (Switched-by-Input, DAC 2016) crossbar stages for %q.\n", q.Name)
	fmt.Fprintf(w, "// Verilog-2001, synthesizable, combinational.\n\n")
	for _, s := range stages {
		WriteStageModule(w, s)
	}
	WriteFCModule(w, fc)
	return nil
}
