package seicore

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
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
		// q, when set, replaces the shared fixture's quantized net; post
		// transforms the built design.
		q    func(*testing.T) *quant.QuantizedNet
		post func(*testing.T, *SEIDesign) *SEIDesign
	}{
		{name: "per-column", cfg: func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05 })
		}},
		{name: "per-cell", cfg: func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
		}},
		{name: "per-cell-ir-drop", cfg: func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
				m.IRDropAlpha = 0.1
			})
		}},
		{name: "per-column-split-permuted", cfg: func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) { m.ReadNoiseSigma = 0.05 })
			cfg.Layer.MaxCrossbar = 16
			cfg.Orders = [][]int{nil, perm}
			return cfg
		}},
		{name: "per-cell-split", cfg: func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
			cfg.Layer.MaxCrossbar = 16
			return cfg
		}},
		{name: "unipolar-per-cell", cfg: func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
			cfg.Layer.Mode = ModeUnipolarDynamic
			return cfg
		}},
		{name: "per-cell-stride2", q: stride2Net, cfg: func() SEIBuildConfig {
			return noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
		}},
		{name: "per-cell-split-permuted-fc-snapshot", post: permuteFC, cfg: func() SEIBuildConfig {
			cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
				m.ReadNoiseSigma = 0.05
				m.ReadNoisePerCell = true
			})
			cfg.Layer.MaxCrossbar = 16
			return cfg
		}},
	}
	sub := f.test.Subset(50)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := f.q
			if tc.q != nil {
				q = tc.q(t)
			}
			d, err := BuildSEI(q, nil, tc.cfg(), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			if tc.post != nil {
				d = tc.post(t, d)
			}
			if d.ideal || !d.packed {
				t.Fatalf("ideal=%v packed=%v, want the packed non-ideal path", d.ideal, d.packed)
			}
			packedLabels, packedCounters := evalBothPaths(t, d, d.Q, sub, true, 2)
			floatLabels, floatCounters := evalBothPaths(t, d, d.Q, sub, false, 2)
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

// stride2Net quantizes a small network whose input stage has a 4×4
// kernel at stride 2, a shape none of the paper's networks has: its
// 13×13 output grid also leaves a pool-cropped edge row and column.
func stride2Net(t *testing.T) *quant.QuantizedNet {
	t.Helper()
	f := getFixture(t)
	rng := rand.New(rand.NewSource(21))
	net := &nn.Network{Name: "Stride2", Layers: []nn.Layer{
		nn.NewConv2D(4, 1, 4, 4, 2, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewConv2D(8, 4, 3, 3, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(32, 10, rng),
	}}
	train := f.train.Subset(600)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	nn.Train(net, train, tcfg)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = 200
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if q.Convs[0].Stride != 2 {
		t.Fatalf("input stage stride %d, want 2", q.Convs[0].Stride)
	}
	return q
}

// permuteFC saves d, deals the FC layer's inputs across its blocks in
// a random order (each block keeps its size and carries its inputs'
// effective-weight rows) and loads the result: a permuted FC layer,
// which only a snapshot can produce.
func permuteFC(t *testing.T, d *SEIDesign) *SEIDesign {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap designSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	fc := &snap.FC
	rows := make([][]float64, fc.N) // effective-weight row per logical input
	for _, b := range fc.Blocks {
		for i, j := range b.Inputs {
			rows[j] = b.Eff[i*fc.M : (i+1)*fc.M]
		}
	}
	order := rand.New(rand.NewSource(13)).Perm(fc.N)
	for bi := range fc.Blocks {
		b := &fc.Blocks[bi]
		b.Inputs, order = order[:len(b.Inputs)], order[len(b.Inputs):]
		b.Eff = nil
		for _, j := range b.Inputs {
			b.Eff = append(b.Eff, rows[j]...)
		}
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesign(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FC.K < 2 || loaded.FC.perm == nil {
		t.Fatalf("FC K=%d perm=%v, want permuted split blocks", loaded.FC.K, loaded.FC.perm != nil)
	}
	return loaded
}

// TestNoisyPackedUninstrumentedMatchesFloat pins the campaign
// configuration — no Recorder attached, so the stage-0 counter pass is
// skipped: labels must still be bit-identical to the float path run
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
