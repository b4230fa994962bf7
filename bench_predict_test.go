package sei

// Inference-path benchmarks and allocation guards for the two packed
// SEI walkers: the per-image walker (internal/seicore/fast.go) and the
// bit-sliced batch walker (internal/seicore/sliced.go).
// BenchmarkSEIPredict (in bench_test.go) runs the default dispatch —
// the per-image walker for the ideal-analog default device;
// BenchmarkSEIPredictFloat pins the same design to the float path so
// the pair measures the packed speedup directly;
// BenchmarkSEIPredictBatch wraps the design to keep batches on the
// chunked per-image engine; BenchmarkSEIPredictBatchSliced measures the
// 64-images-per-word walker against BenchmarkSEIPredict's per-image
// cost; the Bounded and Noisy variants run the same walkers with
// activation bounds on or read noise in the device model, and
// BenchmarkSEIPredictBatchNoisy pits the seeded 64-lane noisy groups
// against the chunked engine. `make
// bench-json` records all of them plus allocs/op in a trend-gated
// bench-reports/ report (historic figures: bench-reports/history/).

import (
	"math/rand"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/seicore"
)

// benchSEIDesign builds the benchmark SEI design: trained/quantized
// Network 2 on the default (ideal-analog) device, static threshold.
func benchSEIDesign(b testing.TB) *seicore.SEIDesign {
	b.Helper()
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSEIPredictFloat is BenchmarkSEIPredict with the fast path
// disabled: the pre-packing float implementation, the baseline for the
// speedup number in bench-reports/history/BENCH_PR4.json.
func BenchmarkSEIPredictFloat(b *testing.B) {
	d := benchSEIDesign(b)
	d.SetFastPath(false)
	defer d.SetFastPath(true)
	img := benchContext(b).Test.Images[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictBatch measures batched inference through the
// per-image parallel engine on all cores — the design is wrapped so it
// does not offer nn.SlicedBatchPredictor, which keeps this the
// chunked-engine baseline the sliced benchmark is compared against.
// The result buffer is reused across iterations (nn.PredictBatchInto),
// so steady-state allocations amortize to near zero per image.
func BenchmarkSEIPredictBatch(b *testing.B) {
	c := struct{ nn.ParallelClassifier }{benchSEIDesign(b)}
	imgs := benchContext(b).Test.Images
	var res []nn.PredictResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = nn.PredictBatchInto(nil, c, imgs, 0, res)
	}
	b.StopTimer()
	for i, r := range res {
		if r.Err != nil {
			b.Fatalf("image %d: %v", i, r.Err)
		}
	}
	b.ReportMetric(float64(b.N*len(imgs))/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictBatchSliced measures the bit-sliced batch path:
// full 64-image groups classified one packed pass each, 64 images per
// machine word. The image count is trimmed to a multiple of 64 so every
// group takes the sliced kernel and images/sec is the pure lane-
// parallel throughput (compared against BenchmarkSEIPredict's
// per-image cost as sei_batch_sliced_speedup_x in bench-reports/history/BENCH_PR6.json).
func BenchmarkSEIPredictBatchSliced(b *testing.B) {
	d := benchSEIDesign(b)
	imgs := benchContext(b).Test.Images
	imgs = imgs[:len(imgs)/nn.SlicedGroupSize*nn.SlicedGroupSize]
	if len(imgs) == 0 {
		b.Fatalf("benchmark context has fewer than %d test images", nn.SlicedGroupSize)
	}
	var res []nn.PredictResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = nn.PredictBatchInto(nil, d, imgs, 0, res)
	}
	b.StopTimer()
	for i, r := range res {
		if r.Err != nil {
			b.Fatalf("image %d: %v", i, r.Err)
		}
	}
	b.ReportMetric(float64(b.N*len(imgs))/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictBounded is BenchmarkSEIPredict with the runtime
// activation bounds on (DESIGN.md §16): the same labels, with crossbar
// rows and sense-amp compares skipped when the suffix bound decides a
// column early. The delta against BenchmarkSEIPredict is the bound
// machinery's CPU cost or saving; the energy effect shows in
// perfbench's net1-bounded pj_per_inference.
func BenchmarkSEIPredictBounded(b *testing.B) {
	d := benchSEIDesign(b)
	d.SetBounded(true)
	defer d.SetBounded(false)
	img := benchContext(b).Test.Images[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictBatchSlicedBounded is the sliced batch benchmark
// with runtime activation bounds on: per-lane bound walks over packed
// 64-image words.
func BenchmarkSEIPredictBatchSlicedBounded(b *testing.B) {
	d := benchSEIDesign(b)
	d.SetBounded(true)
	defer d.SetBounded(false)
	imgs := benchContext(b).Test.Images
	imgs = imgs[:len(imgs)/nn.SlicedGroupSize*nn.SlicedGroupSize]
	if len(imgs) == 0 {
		b.Fatalf("benchmark context has fewer than %d test images", nn.SlicedGroupSize)
	}
	var res []nn.PredictResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = nn.PredictBatchInto(nil, d, imgs, 0, res)
	}
	b.StopTimer()
	for i, r := range res {
		if r.Err != nil {
			b.Fatalf("image %d: %v", i, r.Err)
		}
	}
	b.ReportMetric(float64(b.N*len(imgs))/b.Elapsed().Seconds(), "images/sec")
}

// benchNoisySEIDesign is benchSEIDesign with per-column read noise
// (sigma 0.05, the Table-5 robustness configuration): the fixture for
// the packed non-ideal path benchmarks (DESIGN.md §17).
func benchNoisySEIDesign(b testing.TB) *seicore.SEIDesign {
	b.Helper()
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	cfg.Layer.Model.ReadNoiseSigma = 0.05
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSEIPredictNoisy measures the packed non-ideal path: column
// popcount sums with read noise applied as a separate vectorized pass.
// Bit-identical to BenchmarkSEIPredictNoisyFloat's labels; the ratio
// of the two is the Monte Carlo campaign speedup.
func BenchmarkSEIPredictNoisy(b *testing.B) {
	d := benchNoisySEIDesign(b)
	img := benchContext(b).Test.Images[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictNoisyFloat pins the same noisy design to the
// float path: the pre-packing baseline the noisy speedup is measured
// against.
func BenchmarkSEIPredictNoisyFloat(b *testing.B) {
	d := benchNoisySEIDesign(b)
	d.SetFastPath(false)
	defer d.SetFastPath(true)
	img := benchContext(b).Test.Images[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictBatchNoisy measures one 256-image batch on the
// noisy benchmark design (σ 0.05) through nn.PredictBatchInto at one
// worker. "seeded" is the default dispatch: four 64-lane groups on the
// sliced walker, each lane's read noise pre-drawn from its chunk's
// stream. "chunked" is the same batch on the chunked per-image engine,
// the design wrapped so it offers no batch kernel. Labels, hw_* totals
// and noise draws are bit-identical; the ratio is the seeded kernel's
// speedup (DESIGN.md §17).
func BenchmarkSEIPredictBatchNoisy(b *testing.B) {
	d := benchNoisySEIDesign(b)
	imgs := mnist.Synthetic(256, 11).Images
	for _, bc := range []struct {
		name string
		c    nn.Classifier
	}{{"seeded", d}, {"chunked", struct{ nn.ParallelClassifier }{d}}} {
		b.Run(bc.name, func(b *testing.B) {
			var res []nn.PredictResult
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = nn.PredictBatchInto(nil, bc.c, imgs, 1, res)
			}
			b.StopTimer()
			for i, r := range res {
				if r.Err != nil {
					b.Fatalf("image %d: %v", i, r.Err)
				}
			}
			b.ReportMetric(float64(b.N*len(imgs))/b.Elapsed().Seconds(), "images/sec")
		})
	}
}

// TestSEIPredictBatchSlicedZeroAllocs is the engine-level allocation
// guard for the sliced path on the real benchmark design: once the
// scratch pool is warm and the result buffer is reused, a full sliced
// batch through nn.PredictBatchInto performs zero heap allocations.
func TestSEIPredictBatchSlicedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark context")
	}
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race; allocation counts are not meaningful")
	}
	d := benchSEIDesign(t)
	imgs := benchContext(t).Test.Images[:nn.SlicedGroupSize]
	res := nn.PredictBatchInto(nil, d, imgs, 1, nil) // warm the pool and size res
	if avg := testing.AllocsPerRun(50, func() {
		res = nn.PredictBatchInto(nil, d, imgs, 1, res)
	}); avg != 0 {
		t.Errorf("sliced batch allocates %.1f objects per pass, want 0", avg)
	}
}

// TestSEIPredictZeroAllocsSteadyState is the allocation guard on the
// real benchmark design (trained Network 2, not the small test
// fixture): once the scratch pool is warm, a fast-path Predict performs
// zero heap allocations per image.
func TestSEIPredictZeroAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full benchmark context")
	}
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race; allocation counts are not meaningful")
	}
	d := benchSEIDesign(t)
	img := benchContext(t).Test.Images[0]
	if avg := testing.AllocsPerRun(100, func() { d.Predict(img) }); avg != 0 {
		t.Errorf("fast-path Predict allocates %.1f objects per image, want 0", avg)
	}
}
