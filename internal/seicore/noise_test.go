package seicore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/rram"
)

// noisyBuildConfig is the shared base for the packed non-ideal tests:
// the default build with dynamic-threshold calibration off (so no
// training set is needed) and the device model modified by mod.
func noisyBuildConfig(mod func(*rram.DeviceModel)) SEIBuildConfig {
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	mod(&cfg.Layer.Model)
	return cfg
}

// TestNoisyPackedMatchesFloatPath pins the packed non-ideal path's core
// contract on several design shapes and device models: bit-identical
// labels AND bit-identical counter totals — including sei_noise_draws,
// the RNG-consumption ledger — versus the float path.
func TestNoisyPackedMatchesFloatPath(t *testing.T) {
	f := getFixture(t)
	perm := rand.New(rand.NewSource(11)).Perm(36)
	cases := []struct {
		name string
		cfg  func() SEIBuildConfig
	}{
		{"per-column", func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05 })
		}},
		{"per-cell", func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
		}},
		{"per-cell-ir-drop", func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
				m.IRDropAlpha = 0.1
			})
		}},
		{"per-column-split-permuted", func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05 })
			cfg.Layer.MaxCrossbar = 16
			cfg.Orders = [][]int{nil, perm}
			return cfg
		}},
		{"per-cell-split", func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
			cfg.Layer.MaxCrossbar = 16
			return cfg
		}},
		{"unipolar-per-cell", func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
			cfg.Layer.Mode = ModeUnipolarDynamic
			return cfg
		}},
	}
	sub := f.test.Subset(50)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := BuildSEI(f.q, nil, tc.cfg(), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			if d.ideal || !d.packed {
				t.Fatalf("ideal=%v packed=%v, want the packed non-ideal path", d.ideal, d.packed)
			}
			packedLabels, packedCounters := evalBothPaths(t, d, f.q, sub, true, 2)
			floatLabels, floatCounters := evalBothPaths(t, d, f.q, sub, false, 2)
			if !reflect.DeepEqual(packedLabels, floatLabels) {
				t.Errorf("packed noisy labels diverge from float path")
			}
			if !reflect.DeepEqual(packedCounters, floatCounters) {
				t.Errorf("counters diverge:\n packed %v\n float  %v", packedCounters, floatCounters)
			}
			if packedCounters[obs.SEINoiseDraws] == 0 {
				t.Errorf("noisy evaluation recorded zero sei_noise_draws")
			}
		})
	}
}

// TestNoisyPackedUninstrumentedMatchesFloat pins the campaign
// configuration — no Recorder attached — where stage 0 takes the
// row-strip kernel, which the instrumented parity tests above never
// reach: labels must still be bit-identical to the float path run
// uninstrumented over the same per-chunk noise clones, on a noisy and
// on an ideal design (whose strip pass draws nothing).
func TestNoisyPackedUninstrumentedMatchesFloat(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(50)
	for _, sigma := range []float64{0.05, 0} {
		cfg := noisyBuildConfig(func(m *rram.DeviceModel) { m.ReadNoiseSigma = sigma })
		d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if k := d.stage0Kernel(); k != kernelStrip {
			t.Fatalf("sigma=%v: stage-0 kernel %v, want strip", sigma, k)
		}
		// The wrapper hides the sliced walker, so every image goes
		// through Predict.
		c := struct{ nn.ParallelClassifier }{d}
		run := func(fast bool) []int {
			d.SetFastPath(fast)
			defer d.SetFastPath(true)
			res := nn.PredictBatchObs(nil, c, sub.Images, 2)
			labels := make([]int, len(res))
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("image %d: %v", i, r.Err)
				}
				labels[i] = r.Label
			}
			return labels
		}
		if packed, float := run(true), run(false); !reflect.DeepEqual(packed, float) {
			t.Errorf("sigma=%v: uninstrumented packed labels diverge from float path", sigma)
		}
	}
}

// TestNoisyPackedWorkerInvariance pins that per-cell noisy evaluation
// is bit-identical for every worker count: the counter-indexed streams
// are re-anchored per chunk exactly like the per-column RNGs.
func TestNoisyPackedWorkerInvariance(t *testing.T) {
	f := getFixture(t)
	cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
		m.ReadNoiseSigma = 0.05
		m.ReadNoisePerCell = true
	})
	cfg.Layer.MaxCrossbar = 16
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(40)
	base, baseCounters := evalBothPaths(t, d, f.q, sub, true, 1)
	for _, workers := range []int{2, 8} {
		labels, counters := evalBothPaths(t, d, f.q, sub, true, workers)
		if !reflect.DeepEqual(base, labels) {
			t.Errorf("workers=%d: labels diverge from serial run", workers)
		}
		if !reflect.DeepEqual(baseCounters, counters) {
			t.Errorf("workers=%d: counters diverge from serial run", workers)
		}
	}
}

// TestNoiseApproxPrecedence pins that read noise takes precedence
// over SetBounded: bounds model exact sums only, so on a noisy design
// the bounded toggle is ignored — the noise path wins, and the packed
// walker reproduces the plain packed run, labels and counters, and
// records no bound activity.
func TestNoiseApproxPrecedence(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(40)
	t.Run("noise-approx-wins", func(t *testing.T) {
		for _, perCell := range []bool{false, true} {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = perCell
			})
			cfg.Layer.MaxCrossbar = 16 // split blocks
			d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(10)))
			if err != nil {
				t.Fatal(err)
			}
			d.SetBounded(true)
			boundedLabels, boundedCounters := evalBothPaths(t, d, f.q, sub, true, 2)
			d.SetBounded(false)
			packedLabels, packedCounters := evalBothPaths(t, d, f.q, sub, true, 2)
			if !reflect.DeepEqual(boundedLabels, packedLabels) {
				t.Errorf("perCell=%v: bounded run diverges from the plain packed run", perCell)
			}
			if !reflect.DeepEqual(boundedCounters, packedCounters) {
				t.Errorf("perCell=%v: counters diverge:\n bounded %v\n packed  %v", perCell, boundedCounters, packedCounters)
			}
			if boundedCounters[obs.SEIRowsSkipped] != 0 || boundedCounters[obs.SEIColsEarlyExit] != 0 {
				t.Errorf("perCell=%v: noisy run recorded bound activity; the bounded walk ran on a noisy design", perCell)
			}
		}
	})
}

// TestNoisyPackedZeroAllocs pins the arena reuse on the packed
// non-ideal path: after the scratch pool is warm, Predict performs
// zero heap allocations for both noise models.
func TestNoisyPackedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race; allocation counts are not meaningful")
	}
	f := getFixture(t)
	for _, tc := range []struct {
		name    string
		perCell bool
	}{{"per-column", false}, {"per-cell", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = tc.perCell
			})
			d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(12)))
			if err != nil {
				t.Fatal(err)
			}
			img := f.test.Images[0]
			if avg := testing.AllocsPerRun(200, func() { d.Predict(img) }); avg != 0 {
				t.Errorf("packed noisy Predict allocates %.1f objects per image, want 0", avg)
			}
		})
	}
}

// TestPerCellSurvivesSaveLoad pins that a snapshot round-trip restores
// the per-cell noise configuration: the loaded design re-enables the
// packed non-ideal path and evaluates deterministically.
func TestPerCellSurvivesSaveLoad(t *testing.T) {
	f := getFixture(t)
	cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
		m.ReadNoiseSigma = 0.05
		m.ReadNoisePerCell = true
	})
	cfg.Layer.MaxCrossbar = 16
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	a, err := LoadDesign(bytes.NewReader(data), 21)
	if err != nil {
		t.Fatal(err)
	}
	if a.ideal || !a.packed {
		t.Fatalf("loaded per-cell design: ideal=%v packed=%v, want packed non-ideal path", a.ideal, a.packed)
	}
	b, err := LoadDesign(bytes.NewReader(data), 21)
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(30)
	labelsA := make([]int, sub.Len())
	for i, img := range sub.Images {
		labelsA[i] = a.Predict(img)
	}
	for i, img := range sub.Images {
		if got := b.Predict(img); got != labelsA[i] {
			t.Fatalf("image %d: two identically-seeded loads disagree (%d vs %d)", i, labelsA[i], got)
		}
	}
	res := nn.PredictBatchObs(nil, a, sub.Images, 4)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}
