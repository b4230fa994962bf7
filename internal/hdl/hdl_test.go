package hdl

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/tensor"
)

var fixtureQ *quant.QuantizedNet

func getQ(t *testing.T) *quant.QuantizedNet {
	t.Helper()
	if fixtureQ == nil {
		train := mnist.Synthetic(1000, 5)
		net := nn.NewTableNetwork(2, 7)
		nn.Train(net, train, nn.DefaultTrainConfig())
		cfg := quant.DefaultSearchConfig()
		cfg.Samples = 200
		q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fixtureQ = q
	}
	return fixtureQ
}

func TestModelsShape(t *testing.T) {
	q := getQ(t)
	stages, fc, err := Models(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 { // conv stage 1 only (stage 0 is the input layer)
		t.Fatalf("got %d stage models, want 1", len(stages))
	}
	s := stages[0]
	if s.N != 36 || s.M != 8 || len(s.W) != 36*8 {
		t.Fatalf("stage model shape %dx%d (%d weights)", s.N, s.M, len(s.W))
	}
	if fc.N != 200 || fc.M != 10 {
		t.Fatalf("FC model shape %dx%d", fc.N, fc.M)
	}
	for _, v := range s.W {
		if v < -127 || v > 127 {
			t.Fatalf("weight %d outside int8 range", v)
		}
	}
}

// The integer stage model must agree with the float digital evaluator
// on almost all bits (they differ only when a sum lands within one
// quantization step of the threshold).
func TestStageModelMatchesDigital(t *testing.T) {
	q := getQ(t)
	stages, _, err := Models(q)
	if err != nil {
		t.Fatal(err)
	}
	s := stages[0]
	digital := q.Digital()
	rng := rand.New(rand.NewSource(3))
	agree, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		in := make([]bool, s.N)
		inF := make([]float64, s.N)
		for j := range in {
			if rng.Float64() < 0.3 {
				in[j] = true
				inF[j] = 1
			}
		}
		got := s.Eval(in)
		want := digital.EvalConv(1, inF)
		for c := range got {
			total++
			if got[c] == want[c] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.98 {
		t.Fatalf("integer model agrees on %.4f of bits, want ≥ 0.98", frac)
	}
}

func TestFCModelArgmaxMatchesDigital(t *testing.T) {
	q := getQ(t)
	_, fc, err := Models(q)
	if err != nil {
		t.Fatal(err)
	}
	digital := q.Digital()
	rng := rand.New(rand.NewSource(4))
	agree := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		in := make([]bool, fc.N)
		inF := make([]float64, fc.N)
		for j := range in {
			if rng.Float64() < 0.1 {
				in[j] = true
				inF[j] = 1
			}
		}
		_, got := fc.Eval(in)
		scores := digital.EvalFC(inF)
		want := tensor.FromSlice(scores, len(scores)).ArgMax()
		if got == want {
			agree++
		}
	}
	if agree < trials*9/10 {
		t.Fatalf("FC argmax agrees on %d/%d trials", agree, trials)
	}
}

func TestExportWellFormed(t *testing.T) {
	q := getQ(t)
	var buf bytes.Buffer
	if err := Export(q, &buf); err != nil {
		t.Fatal(err)
	}
	v := buf.String()
	for _, want := range []string{
		"module sei_stage1 (", "module sei_fc (",
		"endmodule", "function signed [7:0] weight;",
		"localparam signed [31:0] THRESHOLD",
	} {
		if !strings.Contains(v, want) {
			t.Fatalf("generated RTL missing %q", want)
		}
	}
	// Balanced module/endmodule and case/endcase.
	decl := strings.Count(v, "\nmodule ")
	end := strings.Count(v, "\nendmodule")
	if decl != end || decl != 2 {
		t.Fatalf("module/endmodule mismatch: %d/%d", decl, end)
	}
	if strings.Count(v, "case (") != strings.Count(v, "endcase") {
		t.Fatal("case/endcase mismatch")
	}
	// Every weight literal must be 8-bit signed decimal.
	if strings.Contains(v, "8'sd128") {
		t.Fatal("weight literal overflows signed 8-bit")
	}
}

func TestVerilogSigned8(t *testing.T) {
	if verilogSigned8(-38) != "-8'sd38" || verilogSigned8(127) != "8'sd127" || verilogSigned8(0) != "8'sd0" {
		t.Fatal("signed literal rendering wrong")
	}
}

func TestStageEvalLengthPanics(t *testing.T) {
	q := getQ(t)
	stages, _, _ := Models(q)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input length did not panic")
		}
	}()
	stages[0].Eval(make([]bool, 2))
}
