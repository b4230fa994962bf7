package seicore

import (
	"math/rand"
	"reflect"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/quant"
)

// net1Quantized extracts an untrained Network 1 and searches its
// thresholds on a few images: its 300-row binary stage spans five
// window words, the last one partial, which the Network 2 fixture
// (fan 36, one word) never exercises.
func net1Quantized(t *testing.T, train *mnist.Dataset) *quant.QuantizedNet {
	t.Helper()
	q, err := quant.Extract(nn.NewTableNetwork(1, 3), []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quant.DefaultSearchConfig()
	cfg.Samples = 60
	if _, err := quant.SearchThresholds(q, train, cfg); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestBoundedSlicedMatchesBoundedFast pins the bounded sliced engine's
// parity contract on every design shape and on full, partial and
// single-lane batches: with SetBounded on, one PredictBatchSliced call
// produces bit-identical labels AND bit-identical counter totals —
// hw_* and sei_* alike — to per-image bounded Predict calls. The
// Network 1 cases cover multi-word windows (fan 300), so every word of
// the lane transpose reaches the bounded kernel.
func TestBoundedSlicedMatchesBoundedFast(t *testing.T) {
	f := getFixture(t)
	q1 := net1Quantized(t, f.train)
	perm := rand.New(rand.NewSource(11)).Perm(36)
	perm1 := rand.New(rand.NewSource(12)).Perm(q1.Convs[1].FanIn())
	static := func() SEIBuildConfig {
		cfg := DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		return cfg
	}
	cases := []struct {
		name string
		q    *quant.QuantizedNet // nil: the Network 2 fixture
		cfg  func() SEIBuildConfig
	}{
		{"default-bipolar", nil, static},
		{"split-contiguous", nil, func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"split-permuted-order", nil, func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16
			cfg.Orders = [][]int{nil, perm}
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"unipolar-dynamic", nil, func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.Mode = ModeUnipolarDynamic
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"calibrated-split", nil, func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16
			cfg.CalibImages = 10
			cfg.CalibPositions = 8
			return cfg
		}},
		{"net1-fan300", q1, static},
		{"net1-split-permuted-order", q1, func() SEIBuildConfig {
			cfg := static()
			cfg.Layer.MaxCrossbar = 128
			cfg.Orders = [][]int{nil, perm1}
			return cfg
		}},
	}
	imgs := f.test.Images
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.q
			if q == nil {
				q = f.q
			}
			d, err := BuildSEI(q, f.train, tc.cfg(), rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			d.SetBounded(true)
			defer d.SetBounded(false)
			for _, lanes := range []int{1, 2, 63, 64} {
				batch := imgs[:lanes]
				sLabels, sCounters := evalSliced(t, d, batch)
				pLabels, pCounters := evalPerImage(t, d, batch)
				if !reflect.DeepEqual(sLabels, pLabels) {
					t.Errorf("lanes=%d: bounded sliced labels diverge from per-image bounded path", lanes)
				}
				if !reflect.DeepEqual(sCounters, pCounters) {
					t.Errorf("lanes=%d: bounded counters diverge:\n sliced    %v\n per-image %v", lanes, sCounters, pCounters)
				}
			}
		})
	}
}

// TestBoundedSlicedZeroAllocs pins that the bounded sliced path stays
// allocation-free in steady state.
func TestBoundedSlicedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race; allocation counts are not meaningful")
	}
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	d.SetBounded(true)
	defer d.SetBounded(false)
	imgs := f.test.Images[:64]
	res := make([]nn.PredictResult, 64)
	if avg := testing.AllocsPerRun(50, func() { d.PredictBatchSliced(imgs, res) }); avg != 0 {
		t.Errorf("bounded sliced batch allocates %.1f objects per call, want 0", avg)
	}
}
