package seicore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/rram"
)

// evalBothPaths runs the same design over data on the requested path
// with full instrumentation and returns the labels plus every counter
// total. The design and quantized net are detached again afterwards so
// the shared fixture stays uninstrumented.
func evalBothPaths(t *testing.T, d *SEIDesign, q *quant.QuantizedNet, data *mnist.Dataset, fast bool, workers int) ([]int, map[string]int64) {
	t.Helper()
	rec := obs.New()
	d.Instrument(rec)
	q.Instrument(rec)
	d.SetFastPath(fast)
	defer func() {
		d.Instrument(nil)
		q.Instrument(nil)
		d.SetFastPath(true)
	}()
	res := nn.PredictBatchObs(rec, d, data.Images, workers)
	labels := make([]int, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("image %d: %v", i, r.Err)
		}
		labels[i] = r.Label
	}
	return labels, rec.CounterValues()
}

// TestFastPathMatchesFloatPath pins the fast path's core contract on
// several design shapes: bit-identical labels AND bit-identical
// hardware-counter totals versus the float path.
func TestFastPathMatchesFloatPath(t *testing.T) {
	f := getFixture(t)
	perm := rand.New(rand.NewSource(11)).Perm(36)
	cases := []struct {
		name string
		cfg  func() SEIBuildConfig
	}{
		{"default-bipolar", func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"split-contiguous", func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16 // forces conv stage 1 and FC to split
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"split-permuted-order", func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16
			cfg.Orders = [][]int{nil, perm} // non-contiguous blocks
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"unipolar-dynamic", func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.Mode = ModeUnipolarDynamic
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"calibrated-split", func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16
			cfg.CalibImages = 10
			cfg.CalibPositions = 8
			return cfg
		}},
	}
	sub := f.test.Subset(60)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := BuildSEI(f.q, f.train, tc.cfg(), rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			if !d.ideal {
				t.Fatalf("ideal-analog design did not enable the fast path")
			}
			fastLabels, fastCounters := evalBothPaths(t, d, f.q, sub, true, 2)
			floatLabels, floatCounters := evalBothPaths(t, d, f.q, sub, false, 2)
			if !reflect.DeepEqual(fastLabels, floatLabels) {
				t.Errorf("fast-path labels diverge from float path")
			}
			if !reflect.DeepEqual(fastCounters, floatCounters) {
				t.Errorf("counters diverge:\n fast  %v\n float %v", fastCounters, floatCounters)
			}
		})
	}
}

// TestFastPathDisabledForNonIdealModels pins the dispatch rule: any
// analog read-out effect (read noise, IR drop, I-V nonlinearity)
// keeps the design off the ideal-only paths (sliced walker, bounded
// mode), and the design still evaluates.
func TestFastPathDisabledForNonIdealModels(t *testing.T) {
	f := getFixture(t)
	mods := map[string]func(*rram.DeviceModel){
		"read-noise":   func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05 },
		"ir-drop":      func(m *rram.DeviceModel) { m.IRDropAlpha = 0.1 },
		"nonlinearity": func(m *rram.DeviceModel) { m.IVNonlinearity = 1.0 },
	}
	for name, mod := range mods {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultSEIBuildConfig()
			cfg.DynamicThreshold = false
			mod(&cfg.Layer.Model)
			d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			if d.ideal || d.SlicedBatchEligible() {
				t.Fatalf("%s model enabled the ideal-only paths", name)
			}
			if _, err := nn.Predict(d, f.test.Images[0]); err != nil {
				t.Fatalf("predict: %v", err)
			}
		})
	}
}

// TestFastPathZeroAllocs pins the arena design: after the scratch pool
// is warm, a fast-path Predict performs zero heap allocations.
func TestFastPathZeroAllocs(t *testing.T) {
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
	img := f.test.Images[0]
	if avg := testing.AllocsPerRun(200, func() { d.Predict(img) }); avg != 0 {
		t.Errorf("fast-path Predict allocates %.1f objects per image, want 0", avg)
	}
}

// TestFastPathSurvivesSaveLoad pins that a snapshot round-trip
// re-derives the fast path and predicts identically.
func TestFastPathSurvivesSaveLoad(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = 16
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesign(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.ideal {
		t.Fatalf("loaded ideal-analog design did not re-enable the fast path")
	}
	sub := f.test.Subset(40)
	for i, img := range sub.Images {
		if a, b := d.Predict(img), loaded.Predict(img); a != b {
			t.Fatalf("image %d: original %d, loaded %d", i, a, b)
		}
	}
	if raceEnabled {
		return // sync.Pool is lossy under -race; skip the alloc count
	}
	if avg := testing.AllocsPerRun(100, func() { loaded.Predict(sub.Images[0]) }); avg != 0 {
		t.Errorf("loaded design's Predict allocates %.1f objects per image, want 0", avg)
	}
}

// TestKernelSelection pins which kernel the packed walkers pick at
// stage 0 and at the SEI conv stage for each design configuration, so a
// change to a selection rule shows up here and not only as a benchmark
// delta. The fixture's conv stage has fan-in 36: one machine word.
func TestKernelSelection(t *testing.T) {
	f := getFixture(t)
	perm := rand.New(rand.NewSource(11)).Perm(36)
	colNoise := func(c *SEIBuildConfig) { c.Layer.Model.ReadNoiseSigma = 0.05 }
	cellNoise := func(c *SEIBuildConfig) {
		c.Layer.Model.ReadNoiseSigma = 0.05
		c.Layer.Model.ReadNoisePerCell = true
	}
	irDrop := func(c *SEIBuildConfig) { c.Layer.Model.IRDropAlpha = 0.1 }
	split := func(c *SEIBuildConfig) { c.Layer.MaxCrossbar = 16 }
	permuted := func(c *SEIBuildConfig) {
		c.Layer.MaxCrossbar = 16
		c.Orders = [][]int{nil, perm} // non-contiguous blocks
	}
	cases := []struct {
		name                string
		mod                 func(*SEIBuildConfig)
		bounded, instrument bool
		stage0, conv        stageKernel
	}{
		{"ideal", nil, false, false, kernelStrip, kernelWord},
		{"ideal-bounded", nil, true, false, kernelStrip, kernelBounded},
		{"ideal-instrumented", nil, false, true, kernelGather, kernelWord},
		{"ideal-bounded-instrumented", nil, true, true, kernelGather, kernelBounded},
		{"per-column-noise", colNoise, false, false, kernelStrip, kernelWord},
		{"per-column-noise-bounded", colNoise, true, false, kernelStrip, kernelWord},
		{"per-column-noise-instrumented", colNoise, false, true, kernelGather, kernelWord},
		{"per-cell-noise", cellNoise, false, false, kernelGather, kernelBitvec},
		{"ir-drop-bounded", irDrop, true, false, kernelStrip, kernelWord},
		{"split-contiguous", split, false, false, kernelStrip, kernelWord},
		{"split-permuted", permuted, false, false, kernelStrip, kernelBitvec},
		{"split-permuted-bounded", permuted, true, false, kernelStrip, kernelBounded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultSEIBuildConfig()
			cfg.DynamicThreshold = false
			if tc.mod != nil {
				tc.mod(&cfg)
			}
			d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			d.SetBounded(tc.bounded)
			if tc.instrument {
				d.Instrument(obs.New())
			}
			if got := d.stage0Kernel(); got != tc.stage0 {
				t.Errorf("stage 0 kernel %v, want %v", got, tc.stage0)
			}
			if got := d.convKernel(d.Convs[0]); got != tc.conv {
				t.Errorf("conv stage kernel %v, want %v", got, tc.conv)
			}
		})
	}
}
