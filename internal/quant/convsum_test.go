package quant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sei/internal/nn"
	"sei/internal/tensor"
)

// stageSumsReference is the per-position fold the conv-sum kernel
// replaced: a fresh Im2Col, then per position and filter `s += w·x`
// in ascending fan order over the non-zero inputs —
// digitalEval.EvalConv's skip-zero order.
func stageSumsReference(c *ConvSpec, in *tensor.Tensor) *tensor.Tensor {
	kh, kw := c.W.Dim(2), c.W.Dim(3)
	cols := tensor.Im2Col(in, kh, kw, c.Stride)
	positions, fan := cols.Dim(0), cols.Dim(1)
	outH := (in.Dim(1)-kh)/c.Stride + 1
	outW := (in.Dim(2)-kw)/c.Stride + 1
	f := c.Filters()
	out := tensor.New(f, outH, outW)
	od, cd, wd := out.Data(), cols.Data(), c.W.Data()
	for p := 0; p < positions; p++ {
		field := cd[p*fan : (p+1)*fan]
		for k := 0; k < f; k++ {
			row := wd[k*fan : (k+1)*fan]
			s := 0.0
			for j, x := range field {
				if x != 0 {
					s += row[j] * x
				}
			}
			od[k*positions+p] = s
		}
	}
	return out
}

// forwardReference is the digital forward pass on the reference fold:
// stageSumsReference, `> t`, OR pooling per stage, then MatVec plus
// bias.
func forwardReference(q *QuantizedNet, img *tensor.Tensor) []float64 {
	x := img
	for l := range q.Convs {
		c := &q.Convs[l]
		x = binarize(stageSumsReference(c, x), q.Thresholds[l])
		if c.PoolSize > 1 {
			x = orPool(x, c.PoolSize)
		}
	}
	y := tensor.MatVec(q.FC.W, x.Data())
	for i := range y {
		y[i] += q.FC.B[i]
	}
	return y
}

// convSumCase is one conv geometry the kernel is checked on.
type convSumCase struct {
	name    string
	conv    ConvSpec
	inShape []int
}

// convSumCases lists every conv stage of Networks 1–3 and DeepNet on
// its real input shape, plus synthetic geometries: strides 2 and 3, a
// multi-channel input, a 1×1 kernel, and 1, 63, 64, 65 and 576 output
// positions (one partial group, exactly one group, one lane past it,
// nine groups).
func convSumCases(t testing.TB) []convSumCase {
	t.Helper()
	var cases []convSumCase
	nets := []*nn.Network{nn.NewTableNetwork(1, 3), nn.NewTableNetwork(2, 3), nn.NewTableNetwork(3, 3), nn.NewDeepNetwork(3)}
	for _, net := range nets {
		q, err := Extract(net, []int{1, 28, 28})
		if err != nil {
			t.Fatal(err)
		}
		shape := q.InShape
		for l, c := range q.Convs {
			cases = append(cases, convSumCase{fmt.Sprintf("%s/conv%d", q.Name, l), c, shape})
			out := stageSumsReference(&c, tensor.New(shape...))
			shape = out.Shape()
			if c.PoolSize > 1 {
				shape = []int{shape[0], shape[1] / c.PoolSize, shape[2] / c.PoolSize}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	synth := func(name string, filters, ch, kh, kw, stride, h, w int) {
		wt := tensor.New(filters, ch, kh, kw)
		for i := range wt.Data() {
			wt.Data()[i] = rng.NormFloat64()
		}
		cases = append(cases, convSumCase{name, ConvSpec{W: wt, Stride: stride}, []int{ch, h, w}})
	}
	synth("stride2", 5, 1, 3, 3, 2, 11, 11)
	synth("stride3", 7, 2, 4, 4, 3, 28, 28)
	synth("multichannel", 9, 3, 3, 3, 1, 10, 12)
	synth("kernel1x1", 6, 6, 1, 1, 1, 12, 12)
	synth("positions1", 3, 2, 5, 5, 1, 5, 5)
	synth("positions63", 4, 1, 3, 3, 1, 9, 11)
	synth("positions64", 4, 1, 3, 3, 1, 10, 10)
	synth("positions65", 4, 1, 3, 3, 1, 7, 15)
	synth("positions576", 12, 1, 5, 5, 1, 28, 28)
	return cases
}

// TestConvSumsMatchReference pins stageSums bit for bit against the
// Im2Col skip-zero fold and the MatMul float conv, on 0/1 maps and
// real-valued inputs (with zeros and negatives), with weights forced to
// +0 and -0 in places.
func TestConvSumsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	negZero := math.Copysign(0, -1)
	for _, tc := range convSumCases(t) {
		c := tc.conv
		c.W = c.W.Clone()
		wd := c.W.Data()
		for i := range wd {
			switch i % 7 {
			case 2:
				wd[i] = 0
			case 5:
				wd[i] = negZero
			}
		}
		for _, binary := range []bool{true, false} {
			in := tensor.New(tc.inShape...)
			for i := range in.Data() {
				switch r := rng.Float64(); {
				case binary && r < 0.3:
					in.Data()[i] = 1
				case binary || r < 0.4:
					// zero
				case r < 0.5:
					in.Data()[i] = negZero
				default:
					in.Data()[i] = rng.NormFloat64()
				}
			}
			got := stageSums(&c, in)
			for name, want := range map[string]*tensor.Tensor{
				"Im2Col skip-zero fold": stageSumsReference(&c, in),
				"MatMul float conv":     floatConv(&c, in),
			} {
				if !slices.Equal(got.Shape(), want.Shape()) {
					t.Fatalf("%s binary=%v: shape %v, %s %v", tc.name, binary, got.Shape(), name, want.Shape())
				}
				for i, v := range got.Data() {
					if w := want.Data()[i]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s binary=%v: element %d = %v, %s %v", tc.name, binary, i, v, name, w)
					}
				}
			}
		}
	}
}

// TestConvSumsAllocateOnlyOutput: a warm stageSums call allocates what
// a fresh output tensor does and nothing more, on 0/1 and real inputs.
func TestConvSumsAllocateOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	for _, tc := range convSumCases(t) {
		in := tensor.New(tc.inShape...)
		for i := range in.Data() {
			in.Data()[i] = float64(i % 2)
		}
		out := stageSums(&tc.conv, in).Shape()
		want := testing.AllocsPerRun(20, func() { tensor.New(out[0], out[1], out[2]) })
		for _, v := range []float64{1, 0.5} {
			in.Data()[0] = v
			if got := testing.AllocsPerRun(20, func() { stageSums(&tc.conv, in) }); got != want {
				t.Fatalf("%s input[0]=%v: stageSums allocates %v, its output %v", tc.name, v, got, want)
			}
		}
	}
}

// BenchmarkConvSums times stageSums on Network 1's two stages: conv0
// on a real-valued image, conv1 on a 0/1 map of the density the
// digital pipeline produces.
func BenchmarkConvSums(b *testing.B) {
	q, err := Extract(nn.NewTableNetwork(1, 3), []int{1, 28, 28})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	img := tensor.New(1, 28, 28)
	for i := range img.Data() {
		if rng.Float64() < 0.3 {
			img.Data()[i] = rng.Float64()
		}
	}
	bits := tensor.New(12, 12, 12)
	for i := range bits.Data() {
		if rng.Float64() < 0.2 {
			bits.Data()[i] = 1
		}
	}
	for l, in := range []*tensor.Tensor{img, bits} {
		b.Run(fmt.Sprintf("net1-conv%d", l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stageSums(&q.Convs[l], in)
			}
		})
	}
}
