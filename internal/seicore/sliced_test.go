package seicore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// evalSliced classifies imgs with one PredictBatchSliced call under
// full instrumentation and returns the labels plus every counter
// total. Counter comparability with evalPerImage holds because both
// drive the design directly — no engine scheduling counters involved.
func evalSliced(t *testing.T, d *SEIDesign, imgs []*tensor.Tensor) ([]int, map[string]int64) {
	t.Helper()
	rec := obs.New()
	d.Instrument(rec)
	d.Q.Instrument(rec)
	defer func() {
		d.Instrument(nil)
		d.Q.Instrument(nil)
	}()
	out := make([]nn.PredictResult, len(imgs))
	if !d.PredictBatchSliced(imgs, out) {
		t.Fatalf("PredictBatchSliced refused %d eligible images", len(imgs))
	}
	labels := make([]int, len(imgs))
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("image %d: %v", i, r.Err)
		}
		labels[i] = r.Label
	}
	return labels, rec.CounterValues()
}

// evalPerImage classifies imgs one per-image fast-path Predict at a
// time under full instrumentation — the sliced path's bit-identity
// reference.
func evalPerImage(t *testing.T, d *SEIDesign, imgs []*tensor.Tensor) ([]int, map[string]int64) {
	t.Helper()
	rec := obs.New()
	d.Instrument(rec)
	d.Q.Instrument(rec)
	defer func() {
		d.Instrument(nil)
		d.Q.Instrument(nil)
	}()
	labels := make([]int, len(imgs))
	for i, img := range imgs {
		labels[i] = d.Predict(img)
	}
	return labels, rec.CounterValues()
}

// TestSlicedMatchesPerImage pins the tentpole contract on every design
// shape the per-image fast path is tested on — contiguous and permuted
// splits, unipolar dynamic columns, calibrated dynamic thresholds —
// and on full, partial and single-lane batches: labels AND
// hardware-counter totals are bit-identical to per-image Predict.
func TestSlicedMatchesPerImage(t *testing.T) {
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
	imgs := f.test.Images
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := BuildSEI(f.q, f.train, tc.cfg(), rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			if !d.SlicedBatchEligible() {
				t.Fatalf("ideal-analog design is not sliced-eligible")
			}
			for _, lanes := range []int{1, 2, 63, 64} {
				batch := imgs[:lanes]
				sLabels, sCounters := evalSliced(t, d, batch)
				pLabels, pCounters := evalPerImage(t, d, batch)
				if !reflect.DeepEqual(sLabels, pLabels) {
					t.Errorf("lanes=%d: sliced labels diverge from per-image fast path", lanes)
				}
				if !reflect.DeepEqual(sCounters, pCounters) {
					t.Errorf("lanes=%d: counters diverge:\n sliced    %v\n per-image %v", lanes, sCounters, pCounters)
				}
			}
		})
	}
}

// TestSlicedRefusals pins every condition under which the sliced
// kernel must hand the batch back: ineligible designs, empty and
// oversized batches, geometry mismatches, and the SetFastPath toggle.
func TestSlicedRefusals(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	imgs := f.test.Images[:4]
	out := make([]nn.PredictResult, 128)

	if d.PredictBatchSliced(nil, out) {
		t.Error("empty batch accepted")
	}
	big := make([]*tensor.Tensor, nn.SlicedGroupSize+1)
	for i := range big {
		big[i] = imgs[0]
	}
	if d.PredictBatchSliced(big, out) {
		t.Error("oversized batch accepted")
	}
	if d.PredictBatchSliced(imgs, out[:2]) {
		t.Error("short result slice accepted")
	}
	bad := []*tensor.Tensor{imgs[0], tensor.New(1, 3, 3), imgs[1]}
	if d.PredictBatchSliced(bad, out) {
		t.Error("geometry-mismatched batch accepted")
	}
	if d.PredictBatchSliced([]*tensor.Tensor{imgs[0], nil}, out) {
		t.Error("nil image accepted")
	}

	d.SetFastPath(false)
	if d.SlicedBatchEligible() {
		t.Error("SetFastPath(false) left the design sliced-eligible")
	}
	d.SetFastPath(true)
	if !d.PredictBatchSliced(imgs, out) {
		t.Error("re-enabled design refused a valid batch")
	}

	noisy := DefaultSEIBuildConfig()
	noisy.DynamicThreshold = false
	noisy.Layer.Model.ReadNoiseSigma = 0.05
	nd, err := BuildSEI(f.q, nil, noisy, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if nd.SlicedBatchEligible() || nd.PredictBatchSliced(imgs, out) {
		t.Error("noisy design is sliced-eligible")
	}
}

// TestSlicedZeroAllocs pins the arena design: once the scratch pool is
// warm, a full 64-image sliced pass performs zero heap allocations.
func TestSlicedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race; allocation counts are not meaningful")
	}
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	imgs := f.test.Images[:nn.SlicedGroupSize]
	out := make([]nn.PredictResult, len(imgs))
	if !d.PredictBatchSliced(imgs, out) { // warm the pool
		t.Fatal("sliced pass refused")
	}
	if avg := testing.AllocsPerRun(50, func() { d.PredictBatchSliced(imgs, out) }); avg != 0 {
		t.Errorf("sliced batch allocates %.1f objects per pass, want 0", avg)
	}
}

// TestErrorRateTakesSlicedPath pins nn.ErrorRate to the served path:
// on an ideal design 130 images run as two sliced 64-image groups plus
// a per-image tail, and the error rate and every counter except the
// scheduling and sliced-dispatch ones equal the float path's, at every
// worker count.
func TestErrorRateTakesSlicedPath(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if !d.SlicedBatchEligible() {
		t.Fatal("ideal design not sliced-eligible")
	}
	sub := f.test.Subset(130)
	run := func(fast bool, workers int) (float64, map[string]int64) {
		rec := obs.New()
		d.Instrument(rec)
		d.Q.Instrument(rec)
		d.SetFastPath(fast)
		defer func() {
			d.Instrument(nil)
			d.Q.Instrument(nil)
			d.SetFastPath(true)
		}()
		return nn.ErrorRate(rec, d, sub, workers), rec.CounterValues()
	}
	for _, workers := range []int{1, 2} {
		slicedErr, got := run(true, workers)
		if got[nn.MetricSlicedGroups] != 2 || got[nn.MetricEvalImages] != 130 {
			t.Fatalf("workers=%d: %s=%d %s=%d, want 2 and 130", workers,
				nn.MetricSlicedGroups, got[nn.MetricSlicedGroups], nn.MetricEvalImages, got[nn.MetricEvalImages])
		}
		if got[obs.HWSAComparisons] == 0 {
			t.Fatalf("workers=%d: no hardware counters recorded", workers)
		}
		floatErr, want := run(false, workers)
		if slicedErr != floatErr {
			t.Fatalf("workers=%d: sliced error rate %v, float path %v", workers, slicedErr, floatErr)
		}
		if !reflect.DeepEqual(engineIndependent(got), engineIndependent(want)) {
			t.Fatalf("workers=%d: counters diverge from the float path:\n got  %v\n want %v",
				workers, engineIndependent(got), engineIndependent(want))
		}
	}
}

// TestSlicedConcurrent hammers one shared design from several
// goroutines — the serving shape — and checks every result against the
// serial sliced pass, unbounded and bounded (whose per-lane windows
// live in the pooled arena too). Run under -race in CI.
func TestSlicedConcurrent(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	imgs := f.test.Images[:nn.SlicedGroupSize]
	for _, bounded := range []bool{false, true} {
		t.Run(fmt.Sprintf("bounded=%v", bounded), func(t *testing.T) {
			d.SetBounded(bounded)
			defer d.SetBounded(false)
			want, _ := evalSliced(t, d, imgs)
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]nn.PredictResult, len(imgs))
					for iter := 0; iter < 5; iter++ {
						if !d.PredictBatchSliced(imgs, out) {
							errs <- "refused"
							return
						}
						for i, r := range out {
							if r.Label != want[i] {
								errs <- "label mismatch"
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatalf("concurrent sliced pass: %s", e)
			}
		})
	}
}

// TestSlicedSurvivesSaveLoad pins that a snapshot round-trip
// re-derives sliced eligibility and classifies identically.
func TestSlicedSurvivesSaveLoad(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = 16
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(8)))
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
	if !loaded.SlicedBatchEligible() {
		t.Fatalf("loaded ideal-analog design is not sliced-eligible")
	}
	imgs := f.test.Images[:nn.SlicedGroupSize]
	a, _ := evalSliced(t, d, imgs)
	b, _ := evalSliced(t, loaded, imgs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("loaded design's sliced labels diverge from the original")
	}
}

// engineIndependent drops the counters that legitimately differ
// between dispatch routes — engine scheduling and sliced-group
// accounting — keeping labels' witnesses: hw_*, sei_* and eval_images.
func engineIndependent(all map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range all {
		if !strings.HasPrefix(k, "par_") && !strings.HasPrefix(k, "predict_sliced_") {
			out[k] = v
		}
	}
	return out
}

// noisyCases are the non-ideal designs the seeded kernel takes:
// per-column read noise, with and without IR drop, on contiguous and
// permuted splits, with and without a dynamic-threshold slope and the
// unipolar dynamic column (which the FC stage IR-scales), plus IR drop
// alone. gamma sets a nonzero γ on the split conv stage after build.
var noisyCases = []struct {
	name  string
	cfg   func() SEIBuildConfig
	gamma bool
}{
	{"per-column", func() SEIBuildConfig {
		cfg := DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		cfg.Layer.Model.ReadNoiseSigma = 0.05
		return cfg
	}, false},
	{"per-column-ir-drop", func() SEIBuildConfig {
		cfg := DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		cfg.Layer.Model.ReadNoiseSigma = 0.05
		cfg.Layer.Model.IRDropAlpha = 0.05
		return cfg
	}, false},
	{"split-permuted-gamma", func() SEIBuildConfig {
		cfg := DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		cfg.Layer.MaxCrossbar = 16
		cfg.Orders = [][]int{nil, rand.New(rand.NewSource(12)).Perm(36)}
		cfg.Layer.Model.ReadNoiseSigma = 0.05
		return cfg
	}, true},
	{"unipolar-split-per-column-ir-drop", func() SEIBuildConfig {
		cfg := DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		cfg.Layer.Mode = ModeUnipolarDynamic
		cfg.Layer.MaxCrossbar = 32
		cfg.Layer.Model.ReadNoiseSigma = 0.05
		cfg.Layer.Model.IRDropAlpha = 0.05
		return cfg
	}, false},
	{"ir-drop-only", func() SEIBuildConfig {
		cfg := DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		cfg.Layer.Model.IRDropAlpha = 0.05
		return cfg
	}, false},
}

// buildNoisy builds one noisyCases design.
func buildNoisy(t *testing.T, f *fixture, i int) *SEIDesign {
	t.Helper()
	tc := noisyCases[i]
	d, err := BuildSEI(f.q, nil, tc.cfg(), rand.New(rand.NewSource(int64(20+i))))
	if err != nil {
		t.Fatal(err)
	}
	if tc.gamma {
		l := d.Convs[0]
		if l.K < 2 {
			t.Fatalf("%s: conv stage 1 has K=%d, want a split", tc.name, l.K)
		}
		l.Gamma = l.Threshold / float64(l.N)
		for bi := range l.OnesMean {
			l.OnesMean[bi] = float64(len(l.blocks[bi].inputs)) / 3
		}
	}
	if d.SlicedBatchEligible() || !d.SeededBatchEligible() {
		t.Fatalf("%s: sliced-eligible %v, seeded-eligible %v; want false, true",
			tc.name, d.SlicedBatchEligible(), d.SeededBatchEligible())
	}
	return d
}

// TestSeededMatchesChunkedAndFloat pins the seeded kernel's contract
// through nn's dispatch: on every non-ideal design it takes, labels
// and every engine-independent counter — hw_* totals, sei_noise_draws
// and eval_images — equal the chunked per-image engine's (the design
// wrapped so it offers no batch kernel) and the float path's, for
// batch sizes around the 64-lane group and at every worker count. The
// batches of 65 and more also pin the ragged tail's chunk seeds.
func TestSeededMatchesChunkedAndFloat(t *testing.T) {
	f := getFixture(t)
	for i, tc := range noisyCases {
		t.Run(tc.name, func(t *testing.T) {
			d := buildNoisy(t, f, i)
			run := func(c nn.Classifier, imgs []*tensor.Tensor, workers int) ([]int, map[string]int64) {
				rec := obs.New()
				d.Instrument(rec)
				d.Q.Instrument(rec)
				defer func() {
					d.Instrument(nil)
					d.Q.Instrument(nil)
				}()
				res := nn.PredictBatchObs(rec, c, imgs, workers)
				labels := make([]int, len(res))
				for j, r := range res {
					if r.Err != nil {
						t.Fatalf("image %d: %v", j, r.Err)
					}
					labels[j] = r.Label
				}
				return labels, rec.CounterValues()
			}
			chunked := struct{ nn.ParallelClassifier }{d}
			for _, n := range []int{1, 63, 64, 65, 120, 130} {
				imgs := f.test.Images[:n]
				d.SetFastPath(false)
				wantLabels, all := run(d, imgs, 1)
				d.SetFastPath(true)
				wantCounters := engineIndependent(all)
				if tc.name != "ir-drop-only" && wantCounters[obs.SEINoiseDraws] == 0 {
					t.Fatalf("n=%d: float path recorded no noise draws", n)
				}
				for _, workers := range []int{1, 2, 8} {
					for _, path := range []struct {
						name string
						c    nn.Classifier
					}{{"seeded", d}, {"chunked", chunked}} {
						labels, all := run(path.c, imgs, workers)
						if got, want := all[nn.MetricSlicedGroups], int64(n/nn.SlicedGroupSize); path.name == "seeded" && got != want {
							t.Fatalf("n=%d workers=%d: %d seeded groups, want %d", n, workers, got, want)
						}
						counters := engineIndependent(all)
						if !reflect.DeepEqual(labels, wantLabels) {
							t.Errorf("n=%d workers=%d %s: labels diverge from the float path", n, workers, path.name)
						}
						if !reflect.DeepEqual(counters, wantCounters) {
							t.Errorf("n=%d workers=%d %s: counters diverge from the float path:\n got  %v\n want %v",
								n, workers, path.name, counters, wantCounters)
						}
					}
				}
			}
		})
	}
}

// TestSeededRefusals pins every condition under which the seeded
// kernel hands the batch back, leaving out untouched: per-cell noise,
// an I-V nonlinearity, SetFastPath(false), more than 64 lanes, too few
// seeds for the batch's chunks, and PredictBatchSliced's batch checks.
func TestSeededRefusals(t *testing.T) {
	f := getFixture(t)
	imgs := f.test.Images[:nn.SlicedGroupSize]
	seeds := []int64{1, 2, 3, 4}
	sentinel := nn.PredictResult{Label: -7}
	out := make([]nn.PredictResult, 2*nn.SlicedGroupSize)
	refuses := func(name string, d *SEIDesign, imgs []*tensor.Tensor, seeds []int64) {
		t.Helper()
		for i := range out {
			out[i] = sentinel
		}
		if d.PredictBatchSeeded(imgs, seeds, out) {
			t.Errorf("%s: seeded kernel accepted the batch", name)
		}
		for i, r := range out {
			if r != sentinel {
				t.Fatalf("%s: refusal wrote out[%d] = %+v", name, i, r)
			}
		}
	}
	build := func(cfg SEIBuildConfig) *SEIDesign {
		t.Helper()
		d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(30)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	perCell := DefaultSEIBuildConfig()
	perCell.DynamicThreshold = false
	perCell.Layer.Model.ReadNoiseSigma = 0.05
	perCell.Layer.Model.ReadNoisePerCell = true
	if d := build(perCell); d.SeededBatchEligible() {
		t.Error("per-cell noise design is seeded-eligible")
	} else {
		refuses("per-cell noise", d, imgs, seeds)
	}
	iv := DefaultSEIBuildConfig()
	iv.DynamicThreshold = false
	iv.Layer.Model.IVNonlinearity = 1
	if d := build(iv); d.SeededBatchEligible() {
		t.Error("I-V nonlinear design is seeded-eligible")
	} else {
		refuses("I-V nonlinearity", d, imgs, seeds)
	}

	d := buildNoisy(t, f, 0)
	d.SetFastPath(false)
	if d.SeededBatchEligible() {
		t.Error("SetFastPath(false) left the design seeded-eligible")
	}
	refuses("SetFastPath(false)", d, imgs, seeds)
	d.SetFastPath(true)

	big := append(append([]*tensor.Tensor(nil), imgs...), imgs[0])
	refuses("65 lanes", d, big, []int64{1, 2, 3, 4, 5})
	refuses("three seeds for four chunks", d, imgs, seeds[:3])
	refuses("no seeds", d, imgs[:1], nil)
	refuses("empty batch", d, nil, seeds)
	refuses("nil image", d, []*tensor.Tensor{imgs[0], nil}, seeds)
	refuses("geometry mismatch", d, []*tensor.Tensor{imgs[0], tensor.New(1, 3, 3)}, seeds)
	if !d.PredictBatchSeeded(imgs[:17], seeds[:2], out) {
		t.Error("two seeds for 17 images refused")
	}
	if !d.PredictBatchSeeded(imgs, seeds, out) {
		t.Error("valid seeded batch refused")
	}
}

// TestNoisySlicedZeroAllocs pins the seeded kernel's arena: once the
// scratch pool is warm, a full 64-lane noisy group — re-seeding the
// arena's generator per chunk and layer and pre-drawing into its
// buffer — performs zero heap allocations (the chunked engine
// allocates three generator clones per 16 images).
func TestNoisySlicedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race; allocation counts are not meaningful")
	}
	f := getFixture(t)
	d := buildNoisy(t, f, 1)
	imgs := f.test.Images[:nn.SlicedGroupSize]
	seeds := []int64{5, 6, 7, 8}
	out := make([]nn.PredictResult, len(imgs))
	if !d.PredictBatchSeeded(imgs, seeds, out) { // warm the pool
		t.Fatal("seeded pass refused")
	}
	if avg := testing.AllocsPerRun(20, func() { d.PredictBatchSeeded(imgs, seeds, out) }); avg != 0 {
		t.Errorf("seeded group allocates %.1f objects per pass, want 0", avg)
	}
}
