package sei

// Micro-benchmarks of the hot kernels. The paper's tables and figures
// are pinned by cmd/seisim/testdata/quick-all.golden, and the engine's
// speed, energy and error are gated by perfbench through cmd/seibench.

import (
	"math/rand"
	"sync"
	"testing"

	"sei/internal/experiments"
	"sei/internal/homog"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext shares one trained/quantized Network 2 across benches
// (and the allocation-guard tests that ride along with them).
func benchContext(b testing.TB) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.QuickConfig())
	})
	return benchCtx
}

// BenchmarkConvForward measures one Network-2 forward pass.
func BenchmarkConvForward(b *testing.B) {
	net := nn.NewTableNetwork(2, 1)
	img := mnist.Synthetic(1, 1).Images[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(img)
	}
}

// BenchmarkQuantizedForward measures one binarized forward pass.
func BenchmarkQuantizedForward(b *testing.B) {
	net := nn.NewTableNetwork(2, 1)
	q, err := quant.Extract(net, []int{1, 28, 28})
	if err != nil {
		b.Fatal(err)
	}
	q.Thresholds = []float64{0.02, 0.02}
	img := mnist.Synthetic(1, 1).Images[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(img)
	}
}

// BenchmarkSEIPredict measures one SEI hardware classification on the
// default dispatch (the bit-packed fast path for the ideal-analog
// default device). allocs/op must be 0 — the zero-allocation contract
// of the fast path; BenchmarkSEIPredictFloat in bench_predict_test.go
// is the float-path baseline it is compared against in bench-reports/history/BENCH_PR4.json.
func BenchmarkSEIPredict(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	img := c.Test.Images[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictInstrumented is BenchmarkSEIPredict with a live
// recorder attached: the delta between the two is the enabled-recorder
// cost per classification. BenchmarkSEIPredict itself (nil recorder)
// doubles as the disabled-overhead guard — the hot path pays one nil
// check per hardware event.
func BenchmarkSEIPredictInstrumented(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	d.Instrument(rec)
	img := c.Test.Images[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.StopTimer()
	if rec.CounterValues()[obs.HWMVMOps] == 0 {
		b.Fatal("instrumented run recorded no MVM ops")
	}
}

// BenchmarkGADistance measures one Equ.-10 evaluation on a
// Network-1-sized FC matrix.
func BenchmarkGADistance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.New(1024, 10)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	order := homog.RandomOrder(1024, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		homog.Distance(w, order, 8)
	}
}

// BenchmarkTrainingEpoch measures one epoch of Network-2 SGD on 100
// samples.
func BenchmarkTrainingEpoch(b *testing.B) {
	data := mnist.Synthetic(100, 1)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := nn.NewTableNetwork(2, 1)
		b.StartTimer()
		nn.Train(net, data, cfg)
	}
}

// TestBenchWorkloadSizing documents the quick-config workload the
// bench suite runs at.
func TestBenchWorkloadSizing(t *testing.T) {
	cfg := experiments.QuickConfig()
	if cfg.TrainSamples != 800 || cfg.TestSamples != 200 {
		t.Fatalf("quick workload changed: %d/%d — update bench docs", cfg.TrainSamples, cfg.TestSamples)
	}
}
