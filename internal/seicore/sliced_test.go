package seicore

import (
	"bytes"
	"math/rand"
	"reflect"
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

// TestSlicedConcurrent hammers one shared design from several
// goroutines — the serving shape — and checks every result against the
// serial sliced pass. Run under -race in CI.
func TestSlicedConcurrent(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	imgs := f.test.Images[:nn.SlicedGroupSize]
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
