package sei

// Calibration-path benchmarks for the candidate-lane threshold-search
// engine (internal/quant/engine.go). The
// SearchThresholds/SearchThresholdsNaive pair measures the same
// Algorithm-1 search through the lane sweep and the retained
// pre-engine reference on the bench context's Network 2 (the network
// the Table 4/5 benches run), so the ratio is the engine speedup.

import (
	"testing"

	"sei/internal/mnist"
	"sei/internal/quant"
)

// benchSearch runs one full Algorithm-1 search per iteration through
// the given implementation, on a fresh extraction each time (the
// search mutates weights and thresholds). Workers=1 isolates the
// algorithmic speedup from parallel scaling.
func benchSearch(b *testing.B, search func(*quant.QuantizedNet, *mnist.Dataset, quant.SearchConfig) (*quant.SearchReport, error)) {
	c := benchContext(b)
	net := c.Network(2)
	cfg := quant.DefaultSearchConfig()
	cfg.Samples = 100
	cfg.Workers = 1
	var report *quant.SearchReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q, err := quant.Extract(net, []int{1, 28, 28})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		report, err = search(q, c.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if report.Stats.Evaluations > 0 {
		b.ReportMetric(report.Stats.SkipRate(), "skip_rate")
	}
}

// BenchmarkSearchThresholds measures the candidate-lane search engine:
// crossing indices, up to 64 candidates per remainder pass, pooled
// arenas.
func BenchmarkSearchThresholds(b *testing.B) {
	benchSearch(b, quant.SearchThresholds)
}

// BenchmarkSearchThresholdsNaive measures the retained pre-engine
// reference (full remainder forward pass per candidate × sample, fresh
// buffers per call) — the baseline for the engine's speedup and
// allocation numbers.
func BenchmarkSearchThresholdsNaive(b *testing.B) {
	benchSearch(b, quant.SearchThresholdsReference)
}

// BenchmarkQuantizePipeline measures the full calibration pipeline —
// Algorithm-1 search, then quant.Calibrate (FC recalibration,
// coordinate-descent threshold refinement, FC recalibration) — end to
// end on all cores, the shape cmd/seisim pays before any inference
// experiment runs.
func BenchmarkQuantizePipeline(b *testing.B) {
	c := benchContext(b)
	net := c.Network(2)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = 100
	fcfg := quant.DefaultRefineConfig()
	fcfg.Samples = 100
	fcfg.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, _, err := quant.QuantizeNetwork(net, c.Train, []int{1, 28, 28}, scfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := quant.Calibrate(q, c.Train, fcfg); err != nil {
			b.Fatal(err)
		}
	}
}
