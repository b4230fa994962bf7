package quant

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/tensor"
)

// trainedNet2 trains a small Table-2 Network 2 once per test binary.
var trainedCache = map[string]*nn.Network{}

func trainedNet2(t *testing.T) *nn.Network {
	t.Helper()
	if n, ok := trainedCache["net2"]; ok {
		return n
	}
	train := mnist.Synthetic(1200, 5)
	net := nn.NewTableNetwork(2, 7)
	cfg := nn.DefaultTrainConfig()
	nn.Train(net, train, cfg)
	trainedCache["net2"] = net
	return net
}

func TestExtractShapes(t *testing.T) {
	net := nn.NewTableNetwork(2, 1)
	q, err := Extract(net, []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Convs) != 2 {
		t.Fatalf("got %d conv stages, want 2", len(q.Convs))
	}
	if q.Convs[0].PoolSize != 2 || q.Convs[1].PoolSize != 2 {
		t.Fatalf("pool sizes %d/%d, want 2/2", q.Convs[0].PoolSize, q.Convs[1].PoolSize)
	}
	if q.Convs[1].FanIn() != 36 || q.Convs[1].Filters() != 8 {
		t.Fatalf("conv2 matrix %dx%d, want 36x8", q.Convs[1].FanIn(), q.Convs[1].Filters())
	}
	if q.FC.W.Dim(0) != 10 || q.FC.W.Dim(1) != 200 {
		t.Fatalf("FC shape %v, want [10 200]", q.FC.W.Shape())
	}
}

func TestExtractRejectsConvBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D(2, 1, 3, 3, 1, rng).WithBias(),
		nn.NewFlatten(),
		nn.NewDense(2*26*26, 10, rng),
	}}
	if _, err := Extract(net, []int{1, 28, 28}); err == nil {
		t.Fatal("Extract accepted conv bias")
	}
}

// TestExtractRejectsNonFinite: a NaN or ±Inf conv weight, FC weight
// or FC bias is refused, as Load refuses it in a snapshot.
func TestExtractRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(net *nn.Network)
	}{
		{"conv-nan", func(net *nn.Network) { net.Layers[0].(*nn.Conv2D).Weight.Value.Data()[4] = math.NaN() }},
		{"conv2-inf", func(net *nn.Network) { net.Layers[3].(*nn.Conv2D).Weight.Value.Data()[0] = math.Inf(-1) }},
		{"fc-weight-inf", func(net *nn.Network) { net.Layers[7].(*nn.Dense).Weight.Value.Data()[9] = math.Inf(1) }},
		{"fc-bias-nan", func(net *nn.Network) { net.Layers[7].(*nn.Dense).Bias.Value.Data()[1] = math.NaN() }},
	} {
		net := nn.NewTableNetwork(2, 1)
		tc.set(net)
		if _, err := Extract(net, []int{1, 28, 28}); err == nil {
			t.Fatalf("%s: Extract accepted a non-finite parameter", tc.name)
		}
	}
}

func TestExtractRejectsHiddenDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := &nn.Network{Layers: []nn.Layer{
		nn.NewConv2D(2, 1, 3, 3, 1, rng),
		nn.NewFlatten(),
		nn.NewDense(2*26*26, 32, rng),
		nn.NewDense(32, 10, rng),
	}}
	if _, err := Extract(net, []int{1, 28, 28}); err == nil {
		t.Fatal("Extract accepted hidden dense layer")
	}
}

func TestExtractCopiesWeights(t *testing.T) {
	net := nn.NewTableNetwork(2, 1)
	q, err := Extract(net, []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	q.Convs[0].W.Fill(0)
	if net.Layers[0].(*nn.Conv2D).Weight.Value.Max() == 0 {
		t.Fatal("Extract shares weight storage with the source network")
	}
}

func TestConvMatrixOrientation(t *testing.T) {
	net := nn.NewTableNetwork(2, 1)
	q, _ := Extract(net, []int{1, 28, 28})
	m := q.ConvMatrix(0)
	// Column k of the RRAM matrix must equal kernel k flattened.
	conv := net.Layers[0].(*nn.Conv2D)
	for k := 0; k < conv.Filters; k++ {
		for j := 0; j < 9; j++ {
			want := conv.Weight.Value.Data()[k*9+j]
			if got := m.At(j, k); got != want {
				t.Fatalf("ConvMatrix[%d,%d] = %v, want %v", j, k, got, want)
			}
		}
	}
	fm := q.FCMatrix()
	if fm.Dim(0) != 200 || fm.Dim(1) != 10 {
		t.Fatalf("FCMatrix shape %v, want [200 10]", fm.Shape())
	}
}

func TestOrPool(t *testing.T) {
	bits := tensor.FromSlice([]float64{
		0, 0, 1, 0,
		0, 0, 0, 0,
		1, 1, 0, 0,
		1, 1, 0, 0,
	}, 1, 4, 4)
	out := orPool(bits, 2)
	want := []float64{0, 1, 1, 0}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("orPool = %v, want %v", out.Data(), want)
		}
	}
}

// The paper's equivalence: quantizing after max pooling with threshold
// T equals OR-pooling the pre-pool bits with the same T.
func TestPoolThenThresholdEqualsORPool(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		x := tensor.New(2, 6, 6)
		for i := range x.Data() {
			x.Data()[i] = rng.Float64()
		}
		thr := rng.Float64() * 0.5
		// Path A: max-pool then threshold.
		pooled := tensor.MaxPool(x, 2)
		a := binarize(pooled, thr)
		// Path B: threshold then OR-pool.
		b := orPool(binarize(x, thr), 2)
		if !tensor.EqualApprox(a, b, 0) {
			t.Fatalf("trial %d: pool-then-threshold != threshold-then-OR", trial)
		}
	}
}

func TestBinarize(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0.05, 0.2, 0.5}, 4)
	b := binarize(x, 0.1)
	want := []float64{0, 0, 1, 1}
	for i, v := range want {
		if b.Data()[i] != v {
			t.Fatalf("binarize = %v, want %v", b.Data(), want)
		}
	}
}

func TestSearchThresholdsRunsAndBounds(t *testing.T) {
	net := trainedNet2(t)
	train := mnist.Synthetic(300, 6)
	cfg := DefaultSearchConfig()
	cfg.Samples = 150
	q, report, err := QuantizeNetwork(net, train, []int{1, 28, 28}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Layers) != 2 {
		t.Fatalf("report has %d layers, want 2", len(report.Layers))
	}
	for _, lr := range report.Layers {
		if lr.Threshold < cfg.ThresMin || lr.Threshold > cfg.ThresMax {
			t.Fatalf("layer %d threshold %v outside [%v,%v]", lr.Layer, lr.Threshold, cfg.ThresMin, cfg.ThresMax)
		}
		if lr.MaxOutput <= 0 {
			t.Fatalf("layer %d max output %v, want > 0", lr.Layer, lr.MaxOutput)
		}
		if lr.Accuracy < 0.5 {
			t.Fatalf("layer %d search accuracy %.3f; quantization collapsed", lr.Layer, lr.Accuracy)
		}
	}
	// After re-scaling, stage outputs must lie in [0,1] on the search set.
	for l := range q.Convs {
		// Spot check on a few images.
		for _, img := range train.Images[:10] {
			acts := q.BinaryActivations(img)
			_ = acts
			out := floatConv(&q.Convs[l], stageInput(q, l, img))
			if out.Max() > 1.5 {
				t.Fatalf("stage %d output max %.3f after re-scaling", l, out.Max())
			}
		}
	}
}

// stageInput computes the binarized input entering conv stage l.
func stageInput(q *QuantizedNet, l int, img *tensor.Tensor) *tensor.Tensor {
	cur := img
	eval := q.Digital()
	for m := 0; m < l; m++ {
		cur = q.convStage(eval, m, cur)
	}
	return cur
}

func TestQuantizedAccuracyCloseToFloat(t *testing.T) {
	// The headline Table-3 property: quantization costs only a small
	// accuracy delta.
	net := trainedNet2(t)
	train := mnist.Synthetic(1200, 5)
	test := mnist.Synthetic(400, 99)
	cfg := DefaultSearchConfig()
	cfg.Samples = 300
	q, _, err := QuantizeNetwork(net, train, []int{1, 28, 28}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	floatErr := nn.ErrorRate(nil, net, test, 0)
	quantErr := nn.ErrorRate(nil, q, test, 0)
	t.Logf("float err %.4f, quantized err %.4f", floatErr, quantErr)
	if quantErr > floatErr+0.10 {
		t.Fatalf("quantization degraded error %.3f → %.3f (> +10pp)", floatErr, quantErr)
	}
}

func TestSearchRejectsBadConfig(t *testing.T) {
	net := nn.NewTableNetwork(2, 1)
	q, _ := Extract(net, []int{1, 28, 28})
	_, err := SearchThresholds(q, mnist.Synthetic(10, 1), SearchConfig{ThresMin: 0.1, ThresMax: 0})
	if err == nil {
		t.Fatal("accepted inverted search interval")
	}
}

func TestPredictWithDigitalMatchesPredict(t *testing.T) {
	net := trainedNet2(t)
	q, _ := Extract(net, []int{1, 28, 28})
	q.Thresholds = []float64{0.02, 0.02}
	img := mnist.Synthetic(3, 8).Images[2]
	if q.Predict(img) != q.PredictWith(q.Digital(), img) {
		t.Fatal("PredictWith(Digital) != Predict")
	}
}

func TestBinaryActivationsAreBits(t *testing.T) {
	net := trainedNet2(t)
	q, _ := Extract(net, []int{1, 28, 28})
	q.Thresholds = []float64{0.01, 0.01}
	img := mnist.Synthetic(2, 3).Images[1]
	acts := q.BinaryActivations(img)
	if len(acts) != 2 {
		t.Fatalf("got %d activation maps, want 2", len(acts))
	}
	for ai, a := range acts {
		for _, v := range a.Data() {
			if v != 0 && v != 1 {
				t.Fatalf("activation map %d has non-binary value %v", ai, v)
			}
		}
	}
	// Shapes: conv1 bits pooled 13×13×4; conv2 bits pooled 5×5×8.
	if s := acts[0].Shape(); s[0] != 4 || s[1] != 13 || s[2] != 13 {
		t.Fatalf("act0 shape %v", s)
	}
	if s := acts[1].Shape(); s[0] != 8 || s[1] != 5 || s[2] != 5 {
		t.Fatalf("act1 shape %v", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := trainedNet2(t)
	q, _ := Extract(net, []int{1, 28, 28})
	q.Thresholds = []float64{0.013, 0.027}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := mnist.Synthetic(4, 12).Images[3]
	a := q.ForwardWith(q.Digital(), img)
	b := got.ForwardWith(got.Digital(), img)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded quantized net diverges at score %d: %v vs %v", i, a[i], b[i])
		}
	}
	if got.Thresholds[1] != 0.027 {
		t.Fatalf("threshold lost: %v", got.Thresholds)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

// snapshotCorruptions each decode cleanly and would otherwise panic in
// tensor.FromSlice, leave a net whose stages do not chain, or carry a
// non-finite weight, bias or threshold; only "intact" may load.
var snapshotCorruptions = []struct {
	name    string
	corrupt func(*quantSnapshot)
}{
	{"intact", func(*quantSnapshot) {}},
	{"kernel-data-short", func(s *quantSnapshot) { s.Convs[0].Data = s.Convs[0].Data[1:] }},
	{"kernel-zero-dim", func(s *quantSnapshot) { s.Convs[1].Shape[0] = 0 }},
	{"kernel-overflowing-dims", func(s *quantSnapshot) {
		s.Convs[0].Shape = []int{1 << 62, 1 << 2, 1, len(s.Convs[0].Data)}
	}},
	{"channels-mismatch", func(s *quantSnapshot) { s.InShape[0] = 2 }},
	{"kernel-larger-than-map", func(s *quantSnapshot) { s.InShape[1] = 2 }},
	{"stride-zero", func(s *quantSnapshot) { s.Convs[0].Stride = 0 }},
	{"pool-empties-map", func(s *quantSnapshot) { s.Convs[1].PoolSize = 100 }},
	{"fc-fan-in-mismatch", func(s *quantSnapshot) { s.InShape[2] = 40 }},
	{"fc-bias-short", func(s *quantSnapshot) { s.FCBias = s.FCBias[1:] }},
	{"thresholds-short", func(s *quantSnapshot) { s.Thresholds = s.Thresholds[1:] }},
	{"no-conv-stages", func(s *quantSnapshot) { s.Convs, s.Thresholds = nil, nil }},
	{"kernel-nan", func(s *quantSnapshot) { s.Convs[0].Data[3] = math.NaN() }},
	{"kernel-inf", func(s *quantSnapshot) { s.Convs[1].Data[0] = math.Inf(1) }},
	{"fc-weight-neg-inf", func(s *quantSnapshot) { s.FCData[7] = math.Inf(-1) }},
	{"fc-bias-nan", func(s *quantSnapshot) { s.FCBias[2] = math.NaN() }},
	{"threshold-nan", func(s *quantSnapshot) { s.Thresholds[0] = math.NaN() }},
	{"threshold-inf", func(s *quantSnapshot) { s.Thresholds[1] = math.Inf(1) }},
}

// savedNet2 returns the snapshot bytes of an untrained, extracted
// Network 2.
func savedNet2(tb testing.TB) []byte {
	tb.Helper()
	q, err := Extract(nn.NewTableNetwork(2, 1), []int{1, 28, 28})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corruptQuantSnapshot re-encodes the saved snapshot data after corrupt.
func corruptQuantSnapshot(tb testing.TB, data []byte, corrupt func(*quantSnapshot)) []byte {
	tb.Helper()
	var snap quantSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	corrupt(&snap)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(snap); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// TestLoadRejectsInconsistentGeometry pins the snapshot checks that run
// before any tensor is built.
func TestLoadRejectsInconsistentGeometry(t *testing.T) {
	saved := savedNet2(t)
	for _, tc := range snapshotCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(corruptQuantSnapshot(t, saved, tc.corrupt)))
			if (err == nil) != (tc.name == "intact") {
				t.Fatalf("Load error %v", err)
			}
		})
	}
}

// FuzzLoadQuantized pins Load's contract on arbitrary input: it either
// returns an error, or a net whose Predict classifies a valid 28×28
// image into one of its FC outputs without panicking, with the scores
// of a forward pass on the reference Im2Col fold bit for bit — so the
// fuzzer drives the conv-sum kernel over the geometries it generates.
// The seed corpus is a saved Network 2 plus the corruptions above;
// plain go test runs only the corpus.
func FuzzLoadQuantized(f *testing.F) {
	saved := savedNet2(f)
	for _, tc := range snapshotCorruptions {
		f.Add(corruptQuantSnapshot(f, saved, tc.corrupt))
	}
	img := tensor.New(1, 28, 28)
	for i := range img.Data() {
		img.Data()[i] = float64(i%7) / 6
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !slices.Equal(q.InShape, img.Shape()) {
			return // a net for another input shape has no 28×28 image to classify
		}
		if label, outs := q.Predict(img), len(q.FC.B); label < 0 || label >= outs {
			t.Fatalf("Predict returned label %d outside [0,%d)", label, outs)
		}
		got, want := q.ForwardWith(q.Digital(), img), forwardReference(q, img)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("score %d = %v, reference fold %v", i, got[i], want[i])
			}
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	net := nn.NewTableNetwork(2, 1)
	q, _ := Extract(net, []int{1, 28, 28})
	path := t.TempDir() + "/q/model.gob"
	if err := q.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeDistributionLongTail(t *testing.T) {
	// Trained ReLU networks must show the Table-1 long tail: the lowest
	// bin dominates.
	net := trainedNet2(t)
	data := mnist.Synthetic(60, 21)
	dist := AnalyzeDistribution(net, data)
	if len(dist) != 3 { // 2 conv layers + aggregate
		t.Fatalf("got %d distribution rows, want 3", len(dist))
	}
	for _, d := range dist {
		sum := d.Fractions[0] + d.Fractions[1] + d.Fractions[2] + d.Fractions[3]
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s fractions sum to %v", d.LayerName, sum)
		}
		if d.Fractions[0] < 0.5 {
			t.Fatalf("%s lowest bin %.3f; expected long-tail dominance", d.LayerName, d.Fractions[0])
		}
	}
	if dist[len(dist)-1].LayerName != "All Layers" {
		t.Fatalf("last row %q, want aggregate", dist[len(dist)-1].LayerName)
	}
}

func TestDistributionOfEmptyAndZero(t *testing.T) {
	d := distributionOf("empty", nil)
	if d.Count != 0 {
		t.Fatal("empty count wrong")
	}
	d = distributionOf("zeros", []float64{0, 0, 0})
	if d.Fractions[0] != 1 {
		t.Fatalf("all-zero layer fractions %v, want [1 0 0 0]", d.Fractions)
	}
}
