package quant

import (
	"bytes"
	"math"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/tensor"
)

var calibFixture struct {
	q     *QuantizedNet
	train *mnist.Dataset
	test  *mnist.Dataset
}

// quantizedFixture returns a fresh deep copy of a quantized Network 2
// (built once per test binary) plus shared datasets, so tests can
// mutate their copy freely.
func quantizedFixture(t *testing.T) (*QuantizedNet, *mnist.Dataset, *mnist.Dataset) {
	t.Helper()
	if calibFixture.q == nil {
		net := trainedNet2(t)
		calibFixture.train = mnist.Synthetic(1200, 5)
		calibFixture.test = mnist.Synthetic(300, 77)
		cfg := DefaultSearchConfig()
		cfg.Samples = 200
		q, _, err := QuantizeNetwork(net, calibFixture.train, []int{1, 28, 28}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		calibFixture.q = q
	}
	var buf bytes.Buffer
	if err := calibFixture.q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return clone, calibFixture.train, calibFixture.test
}

func TestRecalibrateFCImprovesOrHolds(t *testing.T) {
	q, train, test := quantizedFixture(t)
	before := nn.ErrorRate(nil, q, test, 0)
	if err := RecalibrateFC(q, train, DefaultRecalibrateConfig()); err != nil {
		t.Fatal(err)
	}
	after := nn.ErrorRate(nil, q, test, 0)
	t.Logf("recalibrate: %.4f -> %.4f", before, after)
	if after > before+0.03 {
		t.Fatalf("recalibration degraded error: %.4f -> %.4f", before, after)
	}
}

func TestRecalibrateFCOnlyTouchesFC(t *testing.T) {
	q, train, _ := quantizedFixture(t)
	convBefore := q.Convs[0].W.Clone()
	thrBefore := append([]float64(nil), q.Thresholds...)
	if err := RecalibrateFC(q, train, DefaultRecalibrateConfig()); err != nil {
		t.Fatal(err)
	}
	if !tensor.EqualApprox(q.Convs[0].W, convBefore, 0) {
		t.Fatal("recalibration mutated conv weights")
	}
	for i := range thrBefore {
		if q.Thresholds[i] != thrBefore[i] {
			t.Fatal("recalibration mutated thresholds")
		}
	}
}

func TestRecalibrateFCRejectsBadConfig(t *testing.T) {
	q, train, _ := quantizedFixture(t)
	for _, cfg := range []RecalibrateConfig{
		{Epochs: 0, BatchSize: 8, LR: 0.1},
		{Epochs: 1, BatchSize: 0, LR: 0.1},
		{Epochs: 1, BatchSize: 8, LR: 0},
	} {
		if err := RecalibrateFC(q, train, cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
}

func TestRecalibrateFCReducesTrainingLossDirection(t *testing.T) {
	// The FC update is plain softmax regression; training accuracy on
	// the binarized features must not drop.
	q, train, _ := quantizedFixture(t)
	sub := train.Subset(200)
	acc := func() float64 {
		correct := 0
		for i, img := range sub.Images {
			if q.Predict(img) == sub.Labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(sub.Len())
	}
	before := acc()
	if err := RecalibrateFC(q, train, DefaultRecalibrateConfig()); err != nil {
		t.Fatal(err)
	}
	after := acc()
	if after < before-0.02 {
		t.Fatalf("training accuracy dropped: %.4f -> %.4f", before, after)
	}
}

func TestRefineThresholdsNeverWorseOnSearchSet(t *testing.T) {
	q, train, _ := quantizedFixture(t)
	cfg := DefaultRefineConfig()
	cfg.Samples = 200
	sub := train.Subset(cfg.Samples)
	acc := func() float64 {
		correct := 0
		for i, img := range sub.Images {
			if q.Predict(img) == sub.Labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(sub.Len())
	}
	before := acc()
	best, err := RefineThresholds(q, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best < before-1e-9 {
		t.Fatalf("refinement returned accuracy %.4f below starting %.4f", best, before)
	}
	if got := acc(); math.Abs(got-best) > 1e-9 {
		t.Fatalf("reported accuracy %.4f does not match state %.4f", best, got)
	}
	for i, thr := range q.Thresholds {
		if thr < 0 {
			t.Fatalf("threshold %d went negative: %v", i, thr)
		}
	}
}

func TestRefineThresholdsRejectsBadConfig(t *testing.T) {
	q, train, _ := quantizedFixture(t)
	for _, cfg := range []RefineConfig{
		{Rounds: 0, Step: 0.01, Radius: 2},
		{Rounds: 1, Step: 0, Radius: 2},
		{Rounds: 1, Step: 0.01, Radius: 0},
	} {
		if _, err := RefineThresholds(q, train, cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
}

func TestActivityFactors(t *testing.T) {
	q, _, test := quantizedFixture(t)
	factors := q.ActivityFactors(test.Subset(40))
	if len(factors) != 3 { // input layer + conv2 input + FC input
		t.Fatalf("got %d factors, want 3", len(factors))
	}
	if factors[0] != 1.0 {
		t.Fatalf("analog input activity %v, want 1.0", factors[0])
	}
	for i := 1; i < 3; i++ {
		if factors[i] <= 0 || factors[i] > 1 {
			t.Fatalf("factor %d = %v outside (0,1]", i, factors[i])
		}
		// The Table-1 long tail: binary activations are sparse.
		if factors[i] > 0.6 {
			t.Fatalf("factor %d = %v; expected sparse activations", i, factors[i])
		}
	}
}

func TestActivityFactorsEmptyDataset(t *testing.T) {
	q, _, _ := quantizedFixture(t)
	factors := q.ActivityFactors(&mnist.Dataset{})
	for i, f := range factors {
		if f != 1.0 {
			t.Fatalf("empty dataset factor %d = %v, want 1.0", i, f)
		}
	}
}

func TestRefineThresholdsStopsWhenConverged(t *testing.T) {
	// With a huge step every candidate is terrible, so round 1 finds no
	// improvement and the loop must exit without mutating thresholds.
	q, train, _ := quantizedFixture(t)
	before := append([]float64(nil), q.Thresholds...)
	cfg := RefineConfig{Rounds: 5, Step: 10, Radius: 2, Samples: 100}
	if _, err := RefineThresholds(q, train, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if q.Thresholds[i] != before[i] {
			t.Fatalf("thresholds changed despite no improvement: %v -> %v", before, q.Thresholds)
		}
	}
}

// TestCalibrateIsTheThreeStepChain pins Calibrate to the chain it
// replaces — recalibrate, refine, recalibrate, the recalibrations on
// the default config with the refine config's workers — bit for bit,
// and checks that an invalid refine config fails before any step runs.
func TestCalibrateIsTheThreeStepChain(t *testing.T) {
	got, train, _ := quantizedFixture(t)
	want, _, _ := quantizedFixture(t)
	train = train.Subset(300)
	cfg := DefaultRefineConfig()
	cfg.Samples = 100
	cfg.Workers = 2
	if err := Calibrate(got, train, cfg); err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultRecalibrateConfig()
	rcfg.Workers = 2
	if err := RecalibrateFC(want, train, rcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RefineThresholds(want, train, cfg); err != nil {
		t.Fatal(err)
	}
	if err := RecalibrateFC(want, train, rcfg); err != nil {
		t.Fatal(err)
	}
	for i := range want.Thresholds {
		if got.Thresholds[i] != want.Thresholds[i] {
			t.Fatalf("thresholds %v, want %v", got.Thresholds, want.Thresholds)
		}
	}
	for i, w := range want.FC.W.Data() {
		if got.FC.W.Data()[i] != w {
			t.Fatalf("FC weight %d = %v, want %v", i, got.FC.W.Data()[i], w)
		}
	}
	for i, b := range want.FC.B {
		if got.FC.B[i] != b {
			t.Fatalf("FC bias %d = %v, want %v", i, got.FC.B[i], b)
		}
	}

	bad, _, _ := quantizedFixture(t)
	before := append([]float64(nil), bad.FC.W.Data()...)
	if err := Calibrate(bad, train, RefineConfig{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	for i, w := range before {
		if bad.FC.W.Data()[i] != w {
			t.Fatal("a rejected config still recalibrated the FC layer")
		}
	}
}
