package sei

// Parallel-scaling benchmarks for the deterministic evaluation engine
// (internal/par). Every benchmark passes Workers=0, which resolves to
// runtime.GOMAXPROCS(0), so `go test -bench=Parallel -cpu 1,2,4`
// measures the same workload at 1, 2 and 4 workers — the results are
// bit-identical across the row, only wall-clock changes.

import (
	"math/rand"
	"testing"

	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/seicore"
)

// BenchmarkParallelFloatEval measures full-test-set float inference.
func BenchmarkParallelFloatEval(b *testing.B) {
	c := benchContext(b)
	net := c.Network(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ErrorRate(nil, net, c.Test, 0)
	}
}

// BenchmarkParallelQuantEval measures full-test-set binarized inference.
func BenchmarkParallelQuantEval(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ErrorRate(nil, q, c.Test, 0)
	}
}

// BenchmarkParallelSEIEval measures full-test-set SEI hardware
// simulation — the dominant cost of Tables 4 and 5.
func BenchmarkParallelSEIEval(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ErrorRate(nil, d, c.Test, 0)
	}
}

// BenchmarkParallelThresholdSearch measures the Algorithm-1 greedy
// threshold search — the calibration hot path.
func BenchmarkParallelThresholdSearch(b *testing.B) {
	c := benchContext(b)
	net := c.Network(2)
	cfg := quant.DefaultSearchConfig()
	cfg.Samples = 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quant.QuantizeNetwork(net, c.Train, []int{1, 28, 28}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
