package seicore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sei/internal/bitvec"
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
// mode), only the I-V nonlinearity keeps it off the packed walker, and
// the design still evaluates.
func TestFastPathDisabledForNonIdealModels(t *testing.T) {
	f := getFixture(t)
	cases := []struct {
		name          string
		mod           func(*rram.DeviceModel)
		ideal, packed bool
	}{
		{"default", func(m *rram.DeviceModel) {}, true, true},
		// A per-cell noise flag without a sigma draws nothing.
		{"per-cell-zero-sigma", func(m *rram.DeviceModel) { m.ReadNoisePerCell = true }, true, true},
		{"read-noise", func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05 }, false, true},
		{"per-cell-noise", func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05; m.ReadNoisePerCell = true }, false, true},
		{"ir-drop", func(m *rram.DeviceModel) { m.IRDropAlpha = 0.1 }, false, true},
		{"nonlinearity", func(m *rram.DeviceModel) { m.IVNonlinearity = 1.0 }, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultSEIBuildConfig()
			cfg.DynamicThreshold = false
			c.mod(&cfg.Layer.Model)
			d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			if d.ideal != c.ideal || d.SlicedBatchEligible() != c.ideal {
				t.Fatalf("ideal %v, sliced-eligible %v; want %v", d.ideal, d.SlicedBatchEligible(), c.ideal)
			}
			if d.packed != c.packed {
				t.Fatalf("packed %v, want %v", d.packed, c.packed)
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

// TestKernelSelection pins the one kernel choice the packed walkers
// make: an SEI conv stage runs the bounded row walk iff bounded mode is
// on and the design is ideal. Block permutation, per-cell noise and
// instrumentation change no kernel, so they are inputs here, not
// choices; the fixture's conv stage has fan-in 36 and 8 columns.
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
		want                bool
	}{
		{"ideal", nil, false, false, false},
		{"ideal-bounded", nil, true, false, true},
		{"ideal-instrumented", nil, false, true, false},
		{"ideal-bounded-instrumented", nil, true, true, true},
		{"per-column-noise", colNoise, false, false, false},
		{"per-column-noise-bounded", colNoise, true, false, false},
		{"per-column-noise-instrumented", colNoise, false, true, false},
		{"per-cell-noise", cellNoise, false, false, false},
		{"ir-drop-bounded", irDrop, true, false, false},
		{"split-contiguous", split, false, false, false},
		{"split-permuted", permuted, false, false, false},
		{"split-permuted-bounded", permuted, true, false, true},
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
			if got := d.boundedAt(d.Convs[0]); got != tc.want {
				t.Errorf("bounded row walk %v, want %v", got, tc.want)
			}
		})
	}
}

// TestGatherWindowMatchesIm2Col cross-checks the packed window gather
// against a bit-by-bit im2col over random maps and geometries: strides
// 1–3, kernel rows that straddle map words and window words, kernel
// widths past one word, and a destination full of stale bits.
func TestGatherWindowMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		g := stageGeom{inC: 1 + rng.Intn(3), kh: 1 + rng.Intn(4), kw: 1 + rng.Intn(70), stride: 1 + rng.Intn(3)}
		g.inH, g.inW = g.kh+rng.Intn(8), g.kw+rng.Intn(8)
		g.outH, g.outW = (g.inH-g.kh)/g.stride+1, (g.inW-g.kw)/g.stride+1
		g.fan = g.inC * g.kh * g.kw
		in := bitvec.New(g.inC * g.inH * g.inW)
		for i := 0; i < in.Len(); i++ {
			if rng.Intn(2) == 0 {
				in.Set(i)
			}
		}
		win := make([]uint64, (g.fan+63)/64)
		for i := range win {
			win[i] = rng.Uint64()
		}
		oy, ox := rng.Intn(g.outH), rng.Intn(g.outW)
		gatherWindow(in.Words(), &g, oy, ox, win)
		di := 0
		for ch := 0; ch < g.inC; ch++ {
			for ky := 0; ky < g.kh; ky++ {
				for kx := 0; kx < g.kw; kx++ {
					want := in.Get((ch*g.inH+oy*g.stride+ky)*g.inW + ox*g.stride + kx)
					if got := win[di>>6]>>uint(di&63)&1 == 1; got != want {
						t.Fatalf("trial %d %+v at (%d,%d): window bit %d = %v, want %v", trial, g, oy, ox, di, got, want)
					}
					di++
				}
			}
		}
		if n, m := onesIn(win, 0, len(win)*64), onesIn(win, 0, g.fan); n != m {
			t.Fatalf("trial %d: %d bits set past the fan-in", trial, n-m)
		}
	}
}
