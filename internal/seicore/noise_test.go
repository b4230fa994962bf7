package seicore

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sei/internal/bitvec"
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

// TestAggregatedNoiseDistribution is the KS harness pinning the
// aggregated-variance approximation: for a fixed active-row set, the
// exact per-cell pass perturbs column c by σ·Σ w·g — a zero-mean
// Gaussian with variance σ²·Σw² — and the aggregated pass samples that
// distribution directly. Normalized by σ·√(Σw²), both must be standard
// normal: we check first/second moments and run a two-sample
// Kolmogorov–Smirnov test at α ≈ 0.001.
func TestAggregatedNoiseDistribution(t *testing.T) {
	f := getFixture(t)
	cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
		m.ReadNoiseSigma = 0.05
		m.ReadNoisePerCell = true
	})
	cfg.Layer.MaxCrossbar = 16
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	layer := d.Convs[0]
	b := &layer.blocks[0]
	if b.sq == nil {
		t.Fatal("per-cell layer block has no squared-weight table")
	}
	m := layer.M
	const sigma = 0.05

	// Activate about two thirds of the layer's inputs.
	in := bitvec.New(layer.N)
	ones := 0
	for j := 0; j < layer.N; j++ {
		if j%3 != 0 {
			in.Set(j)
		}
	}
	for _, j := range b.inputs {
		if in.Get(j) {
			ones++
		}
	}
	if ones == 0 {
		t.Fatal("no active rows in block")
	}

	// Per-column normalizers from the variance table.
	norm := make([]float64, m)
	sq := b.sq.Data()
	for local, j := range b.inputs {
		if !in.Get(j) {
			continue
		}
		for c, v := range sq[local*m : (local+1)*m] {
			norm[c] += v
		}
	}
	for c := range norm {
		norm[c] = sigma * math.Sqrt(norm[c])
	}

	const trials = 400
	g := make([]float64, m)
	vs := make([]float64, m)
	var exact, agg []float64
	for i := 0; i < trials; i++ {
		main := make([]float64, m)
		st := newNoiseStream(int64(1000 + i))
		if draws := cellNoiseBits(st, sigma, b, in, main, g); draws != ones*m {
			t.Fatalf("exact pass consumed %d draws, want %d", draws, ones*m)
		}
		for c, v := range main {
			if norm[c] > 0 {
				exact = append(exact, v/norm[c])
			}
		}
		main = make([]float64, m)
		st = newNoiseStream(int64(500000 + i))
		if draws := cellNoiseAggregated(st, sigma, b, in, main, g, vs); draws != m {
			t.Fatalf("aggregated pass consumed %d draws, want %d", draws, m)
		}
		for c, v := range main {
			if norm[c] > 0 {
				agg = append(agg, v/norm[c])
			}
		}
	}

	checkStdNormal := func(name string, xs []float64) {
		t.Helper()
		var mean, v float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(len(xs))
		if math.Abs(mean) > 0.05 {
			t.Errorf("%s: normalized mean %.4f, want ≈ 0", name, mean)
		}
		if math.Abs(v-1) > 0.1 {
			t.Errorf("%s: normalized variance %.4f, want ≈ 1", name, v)
		}
	}
	checkStdNormal("exact", exact)
	checkStdNormal("aggregated", agg)

	if d := ksStatistic(exact, agg); d > 1.95*math.Sqrt(float64(len(exact)+len(agg))/float64(len(exact)*len(agg))) {
		t.Errorf("KS statistic %.4f exceeds the α≈0.001 critical value for n=%d m=%d", d, len(exact), len(agg))
	}
}

// ksStatistic computes the two-sample Kolmogorov–Smirnov statistic
// sup|F₁−F₂|. Both inputs are sorted in place.
func ksStatistic(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	var d float64
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		if diff := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b))); diff > d {
			d = diff
		}
	}
	return d
}

// TestNoiseApproxPrecedence pins how the two approximation-related
// toggles interact on a noisy design (DESIGN.md §17):
//
//   - SetBounded never applies there (bounds model exact sums only), so
//     with both toggles on, the noise approximation is what runs: on a
//     per-column design, where it is an identity, the packed walker
//     reproduces the plain packed run and records no bound activity.
//   - SetNoiseApprox changes a per-cell design's draws: fewer of them,
//     deterministic across runs.
func TestNoiseApproxPrecedence(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(40)

	build := func(t *testing.T, perCell bool) *SEIDesign {
		t.Helper()
		cfg := noisyBuildConfig(func(m *rram.DeviceModel) {
			m.ReadNoiseSigma = 0.05
			m.ReadNoisePerCell = perCell
		})
		cfg.Layer.MaxCrossbar = 16 // split blocks
		d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	run := func(t *testing.T, d *SEIDesign, bounded, noiseApprox bool) ([]int, map[string]int64) {
		t.Helper()
		d.SetBounded(bounded)
		d.SetNoiseApprox(noiseApprox)
		defer func() {
			d.SetBounded(false)
			d.SetNoiseApprox(false)
		}()
		return evalBothPaths(t, d, f.q, sub, true, 2)
	}

	t.Run("noise-approx-wins", func(t *testing.T) {
		d := build(t, false)
		bothLabels, bothCounters := run(t, d, true, true)
		packedLabels, packedCounters := run(t, d, false, false)
		if !reflect.DeepEqual(bothLabels, packedLabels) {
			t.Errorf("noiseApprox+bounded diverges from the plain packed run")
		}
		if !reflect.DeepEqual(bothCounters, packedCounters) {
			t.Errorf("counters diverge:\n both   %v\n packed %v", bothCounters, packedCounters)
		}
		if bothCounters[obs.SEIRowsSkipped] != 0 || bothCounters[obs.SEIColsEarlyExit] != 0 {
			t.Errorf("noisy run recorded bound activity; the bounded walk ran on a noisy design")
		}
	})

	t.Run("per-cell-noise-approx-changes-draws", func(t *testing.T) {
		d := build(t, true)
		_, exactCounters := run(t, d, false, false)
		aggLabels, aggCounters := run(t, d, false, true)
		if aggCounters[obs.SEINoiseDraws] >= exactCounters[obs.SEINoiseDraws] {
			t.Errorf("aggregated mode drew %d ≥ exact %d; approximation saved nothing",
				aggCounters[obs.SEINoiseDraws], exactCounters[obs.SEINoiseDraws])
		}
		// Labels are expected to be *close* to the exact run's but not
		// necessarily equal; require only determinism.
		again, _ := run(t, d, false, true)
		if !reflect.DeepEqual(aggLabels, again) {
			t.Errorf("aggregated mode is not deterministic across runs")
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
