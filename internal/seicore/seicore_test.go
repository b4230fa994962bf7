package seicore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sei/internal/rram"
	"sei/internal/tensor"
)

func idealModel() rram.DeviceModel {
	return rram.IdealDeviceModel(4)
}

func randomMatrix(n, m int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	w := tensor.New(n, m)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	return w
}

func TestEffectiveSignedMatrixIdealRoundTrip(t *testing.T) {
	w := randomMatrix(12, 5, 1)
	rng := rand.New(rand.NewSource(2))
	eff, scale, err := EffectiveSignedMatrix(w, idealModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, scale2, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	if scale != scale2 {
		t.Fatalf("scale %v vs %v", scale, scale2)
	}
	for i := range w.Data() {
		want := float64(q[i]) * scale
		if math.Abs(eff.Data()[i]-want) > 1e-9 {
			t.Fatalf("eff[%d] = %v, want %v (ideal device must be exact)", i, eff.Data()[i], want)
		}
	}
	// And the 8-bit round trip bounds the error vs the original weight.
	for i, v := range w.Data() {
		if math.Abs(eff.Data()[i]-v) > scale/2+1e-9 {
			t.Fatalf("weight %d drifted beyond 8-bit quantization error", i)
		}
	}
}

// The generalized slicing must be exact for every device precision on
// ideal devices: with b-bit cells, ceil(8/b) slices reconstruct the
// 8-bit weight.
func TestEffectiveSignedMatrixAllDevicePrecisions(t *testing.T) {
	w := randomMatrix(15, 6, 41)
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	for bits := 2; bits <= 8; bits++ {
		model := rram.IdealDeviceModel(bits)
		eff, s2, err := EffectiveSignedMatrix(w, model, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		if s2 != scale {
			t.Fatalf("bits %d: scale %v, want %v", bits, s2, scale)
		}
		for i := range q {
			want := float64(q[i]) * scale
			if math.Abs(eff.Data()[i]-want) > 1e-9 {
				t.Fatalf("bits %d: eff[%d] = %v, want %v", bits, i, eff.Data()[i], want)
			}
		}
	}
}

// Unipolar mapping likewise for all precisions, including the Equ.-9
// identity.
func TestEffectiveUnipolarAllDevicePrecisions(t *testing.T) {
	w := randomMatrix(10, 4, 43)
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	for bits := 2; bits <= 8; bits++ {
		model := rram.IdealDeviceModel(bits)
		eff, w0, err := EffectiveUnipolarMatrix(w, model, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		for c := 0; c < 4; c++ {
			lhs, rhs := 0.0, 0.0
			for j := 0; j < 10; j++ {
				lhs += eff.At(j, c) - w0[j]
				rhs += float64(q[j*4+c]) * scale
			}
			if math.Abs(lhs-rhs) > 10*scale*1.01 {
				t.Fatalf("bits %d col %d: identity off by %v", bits, c, lhs-rhs)
			}
		}
	}
}

func TestEffectiveSignedMatrixVariationPerturbs(t *testing.T) {
	w := randomMatrix(10, 10, 3)
	m := idealModel()
	m.ProgramSigma = 0.1
	rng := rand.New(rand.NewSource(4))
	eff, scale, err := EffectiveSignedMatrix(w, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, _, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	diff := 0
	for i := range w.Data() {
		if math.Abs(eff.Data()[i]-float64(q[i])*scale) > 1e-12 {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("variation changed only %d/100 weights", diff)
	}
}

// Property: the unipolar mapping with an ideal device satisfies
// Σ_{j∈S} eff[j][c] − Σ_{j∈S} w0[j] == Σ_{j∈S} q_j·scale for every
// active set S — the Equ. 9 identity.
func TestEffectiveUnipolarIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 2+r.Intn(8), 1+r.Intn(4)
		w := randomMatrix(n, m, seed+100)
		eff, w0, err := EffectiveUnipolarMatrix(w, idealModel(), r)
		if err != nil {
			return false
		}
		q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
		// Random active set.
		for c := 0; c < m; c++ {
			lhs, rhs := 0.0, 0.0
			for j := 0; j < n; j++ {
				if r.Float64() < 0.5 {
					continue
				}
				lhs += eff.At(j, c) - w0[j]
				rhs += float64(q[j*m+c]) * scale
			}
			// The w* storage is 8-bit over the weight span, so each term
			// carries at most span·scale/255/2 ≈ scale rounding error.
			if math.Abs(lhs-rhs) > float64(n)*scale*1.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnipolarCellsNonNegative(t *testing.T) {
	// Unipolar storage must never require negative conductance.
	w := randomMatrix(20, 6, 9)
	eff, w0, err := EffectiveUnipolarMatrix(w, idealModel(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eff.Data() {
		if v < -1e-12 {
			t.Fatalf("unipolar effective weight %v < 0", v)
		}
	}
	for _, v := range w0 {
		if v < -1e-12 {
			t.Fatalf("unipolar w0 %v < 0", v)
		}
	}
}

func TestMergedLayerIdealExact(t *testing.T) {
	w := randomMatrix(30, 7, 5)
	rng := rand.New(rand.NewSource(6))
	layer, err := NewMergedLayer(w, idealModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	in := make([]float64, 30)
	for i := range in {
		in[i] = rng.Float64()
	}
	got := layer.Eval(in)
	for c := 0; c < 7; c++ {
		want := 0.0
		for j := 0; j < 30; j++ {
			want += in[j] * float64(q[j*7+c]) * scale
		}
		if math.Abs(got[c]-want) > 1e-9 {
			t.Fatalf("MergedLayer col %d = %v, want %v", c, got[c], want)
		}
	}
}

func TestMergedLayerInputLengthPanics(t *testing.T) {
	layer, _ := NewMergedLayer(randomMatrix(4, 2, 1), idealModel(), rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input length did not panic")
		}
	}()
	layer.Eval(make([]float64, 3))
}

// TestLayoutFor pins the one layout decision: ceil(8/bits) cells per
// weight, doubled for bipolar; K from the crossbar height; M+1
// columns. The paper's example: "we still need three 400×64 crossbars
// to implement the huge 1200×64 RRAM array", Network 1's conv2 (300
// inputs × 4 cells) at 512, and five blocks at 256.
func TestLayoutFor(t *testing.T) {
	bi, uni := ModeBipolar, ModeUnipolarDynamic
	for _, tc := range []struct {
		bits int
		mode SignedMode
		n, m int
		size int
		want Layout
	}{
		{4, bi, 300, 64, 512, Layout{Cells: 4, Rows: 128, K: 3, Cols: 65}}, // Network 1 conv2
		{4, bi, 300, 64, 256, Layout{Cells: 4, Rows: 64, K: 5, Cols: 65}},
		{4, uni, 300, 64, 512, Layout{Cells: 2, Rows: 256, K: 2, Cols: 65}},
		{4, bi, 1024, 10, 512, Layout{Cells: 4, Rows: 128, K: 8, Cols: 11}}, // Network 1 FC
		{4, bi, 100, 10, 512, Layout{Cells: 4, Rows: 128, K: 1, Cols: 11}},
		{1, bi, 300, 64, 512, Layout{Cells: 16, Rows: 32, K: 10, Cols: 65}},
		{1, uni, 300, 64, 512, Layout{Cells: 8, Rows: 64, K: 5, Cols: 65}},
		{1, bi, 36, 8, 512, Layout{Cells: 16, Rows: 32, K: 2, Cols: 9}}, // Network 2 conv2
		{2, bi, 300, 64, 512, Layout{Cells: 8, Rows: 64, K: 5, Cols: 65}},
		{2, uni, 300, 64, 512, Layout{Cells: 4, Rows: 128, K: 3, Cols: 65}},
		{8, bi, 300, 64, 512, Layout{Cells: 2, Rows: 256, K: 2, Cols: 65}},
		{8, uni, 300, 64, 512, Layout{Cells: 1, Rows: 512, K: 1, Cols: 65}},
		{8, uni, 1, 511, 512, Layout{Cells: 1, Rows: 512, K: 1, Cols: 512}},
	} {
		opt := LayerOptions{Model: rram.IdealDeviceModel(tc.bits), MaxCrossbar: tc.size, Mode: tc.mode}
		got, err := LayoutFor(tc.n, tc.m, opt)
		if err != nil || got != tc.want {
			t.Errorf("%d-bit %v %d×%d @%d: layout %+v (%v), want %+v", tc.bits, tc.mode, tc.n, tc.m, tc.size, got, err, tc.want)
		}
	}
	for name, tc := range map[string]struct {
		bits int
		mode SignedMode
		n, m int
		size int
	}{
		"invalid device":         {0, bi, 300, 64, 512},
		"crossbar zero":          {4, bi, 300, 64, 0},
		"crossbar over limit":    {4, bi, 300, 64, 1000},
		"unknown mode":           {4, SignedMode(7), 300, 64, 512},
		"no inputs":              {4, bi, 0, 64, 512},
		"weight over height":     {1, bi, 300, 8, 8},
		"threshold column wider": {4, bi, 300, 512, 512},
	} {
		opt := LayerOptions{Model: rram.IdealDeviceModel(tc.bits), MaxCrossbar: tc.size, Mode: tc.mode}
		if got, err := LayoutFor(tc.n, tc.m, opt); err == nil {
			t.Errorf("%s: accepted with layout %+v", name, got)
		}
	}
}

// TestBlocksForPaperExample pins LayoutFor's block count K on the
// paper's example and the networks' big layers.
func TestBlocksForPaperExample(t *testing.T) {
	for _, tc := range []struct {
		n, size, want int
	}{
		// "we still need three 400×64 crossbars to implement the huge
		// 1200×64 RRAM array": 300 logical inputs × 4 cells, 512 limit.
		{300, 512, 3},
		{1024, 512, 8}, // Network 1 FC: 1024 × 4 cells / 512
		{100, 512, 1},  // fits in one crossbar
		{300, 256, 5},  // 256-size crossbars need more blocks
	} {
		opt := LayerOptions{Model: rram.DefaultDeviceModel(), MaxCrossbar: tc.size, Mode: ModeBipolar}
		lay, err := LayoutFor(tc.n, 64, opt)
		if err != nil || lay.K != tc.want {
			t.Fatalf("LayoutFor(%d,64) @%d: K=%d (%v), want %d", tc.n, tc.size, lay.K, err, tc.want)
		}
	}
}

// TestCellsPerWeightFor pins LayoutFor's cells per weight:
// ceil(8/bits), doubled for the bipolar positive/negative pair.
func TestCellsPerWeightFor(t *testing.T) {
	for _, tc := range []struct {
		bits, bipolar, unipolar int
	}{
		{4, 4, 2},
		{2, 8, 4},
		{8, 2, 1},
	} {
		for mode, want := range map[SignedMode]int{ModeBipolar: tc.bipolar, ModeUnipolarDynamic: tc.unipolar} {
			opt := LayerOptions{Model: rram.IdealDeviceModel(tc.bits), MaxCrossbar: rram.MaxCrossbarSize, Mode: mode}
			lay, err := LayoutFor(300, 64, opt)
			if err != nil || lay.Cells != want {
				t.Fatalf("%d-bit %v: %d cells per weight (%v), want %d", tc.bits, mode, lay.Cells, err, want)
			}
		}
	}
	if lay, err := LayoutFor(300, 64, DefaultLayerOptions()); err != nil || lay.Cells != 4 {
		t.Fatalf("default cells per weight %d (%v), want 4", lay.Cells, err)
	}
}

func TestSplitOrderBalanced(t *testing.T) {
	blocks := SplitOrder(NaturalOrder(10), 3)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	sizes := []int{len(blocks[0]), len(blocks[1]), len(blocks[2])}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("block sizes %v, want [4 3 3]", sizes)
	}
	// All indices covered exactly once.
	seen := map[int]bool{}
	for _, b := range blocks {
		for _, idx := range b {
			if seen[idx] {
				t.Fatalf("index %d appears twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d indices, want 10", len(seen))
	}
}

func TestSEIConvSingleBlockMatchesDigital(t *testing.T) {
	// With an ideal device and no splitting, the SEI layer must produce
	// exactly the bits of the 8-bit-quantized digital computation.
	w := randomMatrix(40, 6, 7)
	thr := 0.8
	opt := DefaultLayerOptions()
	opt.Model = idealModel()
	rng := rand.New(rand.NewSource(8))
	layer, err := NewSEIConvLayer(w, thr, opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if layer.K != 1 {
		t.Fatalf("K = %d, want 1", layer.K)
	}
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	for trial := 0; trial < 30; trial++ {
		in := make([]float64, 40)
		for i := range in {
			if rng.Float64() < 0.4 {
				in[i] = 1
			}
		}
		got := layer.Eval(in)
		for c := 0; c < 6; c++ {
			sum := 0.0
			for j := 0; j < 40; j++ {
				if in[j] == 1 {
					sum += float64(q[j*6+c]) * scale
				}
			}
			if got[c] != (sum > thr) {
				t.Fatalf("trial %d col %d: SEI bit %v, digital %v (sum %v thr %v)", trial, c, got[c], sum > thr, sum, thr)
			}
		}
	}
}

func TestSEIConvUnipolarMatchesBipolarBits(t *testing.T) {
	// Both signed-weight realizations must agree on nearly all bits
	// under ideal devices (they differ only in sub-LSB rounding).
	w := randomMatrix(30, 5, 11)
	thr := 0.5
	rng := rand.New(rand.NewSource(12))
	optB := DefaultLayerOptions()
	optB.Model = idealModel()
	bip, err := NewSEIConvLayer(w, thr, optB, rng)
	if err != nil {
		t.Fatal(err)
	}
	optU := optB
	optU.Mode = ModeUnipolarDynamic
	uni, err := NewSEIConvLayer(w, thr, optU, rng)
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for trial := 0; trial < 50; trial++ {
		in := make([]float64, 30)
		for i := range in {
			if rng.Float64() < 0.4 {
				in[i] = 1
			}
		}
		a := bip.Eval(in)
		b := uni.Eval(in)
		for c := range a {
			total++
			if a[c] == b[c] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("unipolar/bipolar agreement %.3f, want ≥ 0.95", frac)
	}
}

func TestSEIConvSplitBlockSumsConserve(t *testing.T) {
	// Splitting must partition the total sum: Σ_blocks blockSum == the
	// unsplit sum, for ideal devices.
	w := randomMatrix(200, 4, 13)
	opt := DefaultLayerOptions()
	opt.Model = idealModel()
	opt.MaxCrossbar = 256 // 200×4 cells = 800 rows → 4 blocks
	rng := rand.New(rand.NewSource(14))
	layer, err := NewSEIConvLayer(w, 1.0, opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if layer.K != 4 {
		t.Fatalf("K = %d, want 4", layer.K)
	}
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	in := make([]float64, 200)
	for i := range in {
		if rng.Float64() < 0.3 {
			in[i] = 1
		}
	}
	main, _, ones := layer.BlockSums(in)
	for c := 0; c < 4; c++ {
		total := 0.0
		for b := 0; b < layer.K; b++ {
			total += main[b][c]
		}
		want := 0.0
		for j := 0; j < 200; j++ {
			if in[j] == 1 {
				want += float64(q[j*4+c]) * scale
			}
		}
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("col %d: block sums total %v, want %v", c, total, want)
		}
	}
	totalOnes := 0
	for _, o := range ones {
		totalOnes += o
	}
	wantOnes := 0
	for _, v := range in {
		if v == 1 {
			wantOnes++
		}
	}
	if totalOnes != wantOnes {
		t.Fatalf("block ones total %d, want %d", totalOnes, wantOnes)
	}
}

func TestSEIConvOrderPermutesBlocks(t *testing.T) {
	w := randomMatrix(8, 2, 15)
	opt := DefaultLayerOptions()
	opt.Model = idealModel()
	opt.MaxCrossbar = 16 // 4 weights per block → 2 blocks
	opt.Order = []int{7, 6, 5, 4, 3, 2, 1, 0}
	rng := rand.New(rand.NewSource(16))
	layer, err := NewSEIConvLayer(w, 0.1, opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if layer.K != 2 {
		t.Fatalf("K = %d, want 2", layer.K)
	}
	if layer.blocks[0].inputs[0] != 7 || layer.blocks[1].inputs[3] != 0 {
		t.Fatalf("order not respected: %v / %v", layer.blocks[0].inputs, layer.blocks[1].inputs)
	}
}

func TestLayerOptionsValidation(t *testing.T) {
	w := randomMatrix(8, 2, 17)
	rng := rand.New(rand.NewSource(1))
	opt := DefaultLayerOptions()
	opt.Order = []int{0, 1, 2} // wrong length
	if _, err := NewSEIConvLayer(w, 0.1, opt, rng); err == nil {
		t.Fatal("accepted wrong-length order")
	}
	opt = DefaultLayerOptions()
	opt.Order = []int{0, 0, 1, 2, 3, 4, 5, 6} // not a permutation
	if _, err := NewSEIConvLayer(w, 0.1, opt, rng); err == nil {
		t.Fatal("accepted non-permutation order")
	}
	opt = DefaultLayerOptions()
	opt.MaxCrossbar = 1000
	if _, err := NewSEIConvLayer(w, 0.1, opt, rng); err == nil {
		t.Fatal("accepted crossbar beyond fabrication limit")
	}
	opt = DefaultLayerOptions()
	opt.MaxCrossbar = 2 // too narrow for 2 cols + threshold column
	if _, err := NewSEIConvLayer(w, 0.1, opt, rng); err == nil {
		t.Fatal("accepted too-narrow crossbar")
	}
}

func TestSEIFCMatchesDigital(t *testing.T) {
	w := randomMatrix(50, 10, 18)
	bias := make([]float64, 10)
	rng := rand.New(rand.NewSource(19))
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	opt := DefaultLayerOptions()
	opt.Model = idealModel()
	opt.MaxCrossbar = 64 // 50×4 = 200 rows → 13 blocks... capped by weightsPerBlock=16 → 4 blocks
	layer, err := NewSEIFCLayer(w, bias, opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if layer.K < 2 {
		t.Fatalf("expected a split FC, got K=%d", layer.K)
	}
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	in := make([]float64, 50)
	for i := range in {
		if rng.Float64() < 0.5 {
			in[i] = 1
		}
	}
	got := layer.Eval(in)
	for c := 0; c < 10; c++ {
		want := bias[c]
		for j := 0; j < 50; j++ {
			if in[j] == 1 {
				want += float64(q[j*10+c]) * scale
			}
		}
		if math.Abs(got[c]-want) > 1e-9 {
			t.Fatalf("FC col %d = %v, want %v", c, got[c], want)
		}
	}
}

func TestSEIFCUnipolarCloseToDigital(t *testing.T) {
	w := randomMatrix(40, 10, 20)
	bias := make([]float64, 10)
	opt := DefaultLayerOptions()
	opt.Model = idealModel()
	opt.Mode = ModeUnipolarDynamic
	rng := rand.New(rand.NewSource(21))
	layer, err := NewSEIFCLayer(w, bias, opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, scale, _ := rram.QuantizeSymmetric(w, rram.WeightBits)
	in := make([]float64, 40)
	for i := range in {
		if rng.Float64() < 0.5 {
			in[i] = 1
		}
	}
	got := layer.Eval(in)
	for c := 0; c < 10; c++ {
		want := 0.0
		for j := 0; j < 40; j++ {
			if in[j] == 1 {
				want += float64(q[j*10+c]) * scale
			}
		}
		// Unipolar storage rounds each active weight to ~scale.
		if math.Abs(got[c]-want) > 40*scale {
			t.Fatalf("unipolar FC col %d = %v, want ≈%v", c, got[c], want)
		}
	}
}

func TestStructureString(t *testing.T) {
	if StructDACADC.String() != "DAC+ADC" || StructSEI.String() != "SEI" || StructOneBitADC.String() != "1-bit-Input+ADC" {
		t.Fatal("structure names wrong")
	}
	if Structure(99).String() == "" {
		t.Fatal("unknown structure produced empty string")
	}
	if ModeBipolar.String() != "bipolar" || ModeUnipolarDynamic.String() != "unipolar-dynamic" {
		t.Fatal("mode names wrong")
	}
}
