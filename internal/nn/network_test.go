package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sei/internal/mnist"
	"sei/internal/tensor"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	p := Softmax([]float64{1, 2, 3, 1000})
	sum := 0.0
	for _, v := range p {
		sum += v
		if math.IsNaN(v) {
			t.Fatal("softmax produced NaN on large logits")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	if p[3] < 0.99 {
		t.Fatalf("softmax argmax prob %v, want ≈1", p[3])
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits := tensor.FromSlice([]float64{0.5, -1, 2}, 3)
	loss, grad := CrossEntropyLoss(logits, 2)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	// Gradient must sum to 0 (softmax prob mass minus one-hot).
	if s := grad.Sum(); math.Abs(s) > 1e-12 {
		t.Fatalf("grad sum = %v, want 0", s)
	}
	if grad.Data()[2] >= 0 {
		t.Fatalf("grad at true label = %v, want < 0", grad.Data()[2])
	}
}

func TestCrossEntropyNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(5)
	for i := range logits.Data() {
		logits.Data()[i] = rng.NormFloat64()
	}
	_, grad := CrossEntropyLoss(logits, 3)
	const eps = 1e-6
	for i := 0; i < 5; i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := CrossEntropyLoss(logits, 3)
		logits.Data()[i] = orig - eps
		lm, _ := CrossEntropyLoss(logits, 3)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data()[i]) > 1e-5 {
			t.Fatalf("CE grad [%d]: analytic %g vs numeric %g", i, grad.Data()[i], num)
		}
	}
}

func TestTableNetworksCompose(t *testing.T) {
	for id := 1; id <= 3; id++ {
		net := NewTableNetwork(id, 1)
		out, err := net.CheckShapes([]int{1, 28, 28})
		if err != nil {
			t.Fatalf("network %d: %v", id, err)
		}
		if len(out) != 1 || out[0] != 10 {
			t.Fatalf("network %d output %v, want [10]", id, out)
		}
	}
}

func TestTableNetworkWeightMatrixDims(t *testing.T) {
	// The paper's "Weight Matrix" rows are kernelSize²·channels ×
	// filters; verify our constructors match Table 2.
	for id, spec := range Specs() {
		net := NewTableNetwork(id, 1)
		conv1 := net.Layers[0].(*Conv2D)
		conv2 := net.Layers[3].(*Conv2D)
		if got := conv1.InChannels * conv1.KH * conv1.KW; got != spec.WeightMatrix1Rows {
			t.Errorf("network %d: weight matrix 1 rows %d, want %d", id, got, spec.WeightMatrix1Rows)
		}
		if conv1.Filters != spec.WeightMatrix1Cols {
			t.Errorf("network %d: weight matrix 1 cols %d, want %d", id, conv1.Filters, spec.WeightMatrix1Cols)
		}
		if got := conv2.InChannels * conv2.KH * conv2.KW; got != spec.WeightMatrix2Rows {
			t.Errorf("network %d: weight matrix 2 rows %d, want %d", id, got, spec.WeightMatrix2Rows)
		}
		if conv2.Filters != spec.WeightMatrix2Cols {
			t.Errorf("network %d: weight matrix 2 cols %d, want %d", id, conv2.Filters, spec.WeightMatrix2Cols)
		}
	}
}

func TestUnknownNetworkIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTableNetwork(9) did not panic")
		}
	}()
	NewTableNetwork(9, 1)
}

func TestOpsCount(t *testing.T) {
	// Network 1, hand-computed: conv1 24·24·25·12 MACs, conv2
	// 8·8·300·64 MACs, FC 1024·10 MACs; ×2 ops per MAC.
	net := NewTableNetwork(1, 1)
	want := int64(2 * (24*24*25*12 + 8*8*300*64 + 1024*10))
	if got := net.Ops([]int{1, 28, 28}); got != want {
		t.Fatalf("Ops = %d, want %d", got, want)
	}
}

func TestOpsOrderingMatchesTable2(t *testing.T) {
	// The paper's complexity column orders Network1 ≫ Network3 >
	// Network2; our count must preserve that ordering.
	ops := map[int]int64{}
	for id := 1; id <= 3; id++ {
		ops[id] = NewTableNetwork(id, 1).Ops([]int{1, 28, 28})
	}
	if !(ops[1] > ops[3] && ops[3] > ops[2]) {
		t.Fatalf("ops ordering wrong: %v", ops)
	}
}

func TestForwardTapsCoverAllLayers(t *testing.T) {
	net := NewTableNetwork(2, 1)
	img := tensor.New(1, 28, 28)
	logits, taps := net.ForwardTaps(img)
	if len(taps) != len(net.Layers) {
		t.Fatalf("got %d taps, want %d", len(taps), len(net.Layers))
	}
	last := taps[len(taps)-1]
	if !tensor.EqualApprox(last.Value, logits, 0) {
		t.Fatal("final tap is not the logits")
	}
	if taps[0].LayerName != "conv3x3x4" {
		t.Fatalf("first tap name %q", taps[0].LayerName)
	}
}

func TestNumParams(t *testing.T) {
	net := NewTableNetwork(2, 1)
	// conv1 4·1·3·3, conv2 8·4·3·3, fc 200·10 + 10.
	want := 4*9 + 8*4*9 + 200*10 + 10
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestTrainingReducesLossAndError(t *testing.T) {
	train, test := mnist.SyntheticSplit(800, 200, 5)
	net := NewTableNetwork(2, 7)
	before := ErrorRate(nil, net, test, 0)
	cfg := DefaultTrainConfig()
	loss := Train(net, train, cfg)
	after := ErrorRate(nil, net, test, 0)
	if loss > 1.0 {
		t.Fatalf("final loss %.3f too high; training failed", loss)
	}
	if after >= before {
		t.Fatalf("error rate did not improve: %.3f → %.3f", before, after)
	}
	if after > 0.30 {
		t.Fatalf("error rate after training %.3f, want < 0.30", after)
	}
}

func TestTrainDeterministic(t *testing.T) {
	data := mnist.Synthetic(60, 3)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	a := NewTableNetwork(2, 7)
	b := NewTableNetwork(2, 7)
	Train(a, data, cfg)
	Train(b, data, cfg)
	pa := a.Params()
	pb := b.Params()
	for i := range pa {
		if !tensor.EqualApprox(pa[i].Value, pb[i].Value, 0) {
			t.Fatalf("training is not deterministic: param %d differs", i)
		}
	}
}

func TestTrainPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Train with zero epochs did not panic")
		}
	}()
	Train(NewTableNetwork(2, 1), mnist.Synthetic(4, 1), TrainConfig{BatchSize: 4})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := NewTableNetwork(3, 11)
	var buf bytes.Buffer
	if err := Save(net, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != net.Name {
		t.Fatalf("name %q, want %q", got.Name, net.Name)
	}
	img := mnist.Synthetic(5, 2).Images[0]
	if !tensor.EqualApprox(net.Forward(img), got.Forward(img), 1e-12) {
		t.Fatal("loaded model computes different logits")
	}
}

func TestSaveLoadFile(t *testing.T) {
	net := NewTableNetwork(2, 1)
	path := t.TempDir() + "/sub/model.gob"
	if err := SaveFile(net, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParams() != net.NumParams() {
		t.Fatal("loaded model has different parameter count")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

// TestClassifierErrorRateMatchesErrorRate pins ErrorRate to a plain
// count of Predict mismatches.
func TestClassifierErrorRateMatchesErrorRate(t *testing.T) {
	data := mnist.Synthetic(40, 4)
	net := NewTableNetwork(2, 2)
	wrong := 0
	for i, img := range data.Images {
		if net.Predict(img) != data.Labels[i] {
			wrong++
		}
	}
	if got, want := ErrorRate(nil, net, data, 0), float64(wrong)/float64(data.Len()); got != want {
		t.Fatalf("ErrorRate %v, serial Predict count %v", got, want)
	}
}
