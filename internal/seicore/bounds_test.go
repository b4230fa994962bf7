package seicore

import (
	"math/rand"
	"reflect"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/tensor"
	"sei/internal/vecf"
)

// evalBounded runs the design over data on the bounded fast path with
// full instrumentation, returning labels and counter totals.
func evalBounded(t *testing.T, d *SEIDesign, data *mnist.Dataset, workers int) ([]int, map[string]int64) {
	t.Helper()
	rec := obs.New()
	d.Instrument(rec)
	d.SetBounded(true)
	defer func() {
		d.Instrument(nil)
		d.SetBounded(false)
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

// TestBoundedFastMatchesUnbounded pins the bounded mode's label
// contract across design shapes and worker counts: bounded fast,
// unbounded fast and float paths all agree bit-for-bit in labels,
// while the bounded run records genuine skips on the default design.
func TestBoundedFastMatchesUnbounded(t *testing.T) {
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
			cfg.Layer.MaxCrossbar = 16
			cfg.DynamicThreshold = false
			return cfg
		}},
		{"split-permuted-order", func() SEIBuildConfig {
			cfg := DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 16
			cfg.Orders = [][]int{nil, perm}
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
			floatLabels, _ := evalBothPaths(t, d, f.q, sub, false, 2)
			var base []int
			for _, workers := range []int{1, 2, 8} {
				labels, counters := evalBounded(t, d, sub, workers)
				if !reflect.DeepEqual(labels, floatLabels) {
					t.Errorf("workers=%d: bounded labels diverge from float path", workers)
				}
				if base == nil {
					base = labels
					t.Logf("skipped=%d driven=%d colsEarly=%d evals=%d blocksSkipped=%d",
						counters[obs.SEIRowsSkipped], counters[obs.SEIRowsDriven],
						counters[obs.SEIColsEarlyExit], counters[obs.SEIBoundEvals],
						counters[obs.SEIBlocksSkipped])
				}
				if tc.name == "default-bipolar" && counters[obs.SEIRowsSkipped] == 0 {
					t.Errorf("workers=%d: bounded run skipped no rows on Network 2", workers)
				}
			}
		})
	}
}

// TestBoundedCounterWorkerInvariance pins that the bounded run's full
// counter map — hw_* and sei_* alike — is identical at every worker
// count.
func TestBoundedCounterWorkerInvariance(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = 16
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(50)
	_, base := evalBounded(t, d, sub, 1)
	for _, workers := range []int{2, 8} {
		_, counters := evalBounded(t, d, sub, workers)
		if !reflect.DeepEqual(counters, base) {
			t.Errorf("workers=%d: bounded counters diverge from serial run:\n got  %v\n want %v",
				workers, counters, base)
		}
	}
}

// TestSuffixBoundTight is the tightness property test: with integer
// weights (exactly representable, no rounding anywhere) each
// checkpoint's sufPos must equal the true maximum of the remaining
// rows' contribution over every subset of those rows — which for
// independent rows is the sum of the positive entries — and sufNeg the
// true minimum. Verified against brute-force random subsets: no subset
// sum may exceed sufPos or undercut sufNeg, and the all-positive /
// all-negative subsets must achieve them exactly.
func TestSuffixBoundTight(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		m := 1 + rng.Intn(12)
		eff := tensor.New(n, m)
		for i := range eff.Data() {
			eff.Data()[i] = float64(rng.Intn(21) - 10)
		}
		cb := newColBounds(eff)
		if cb == nil {
			t.Fatalf("trial %d: no bounds for %dx%d", trial, n, m)
		}
		ncp := checkpoints(n, cb.stride)
		for cp := 0; cp < ncp; cp++ {
			lo := cp * cb.stride
			for c := 0; c < m; c++ {
				wantPos, wantNeg := 0.0, 0.0
				for r := lo; r < n; r++ {
					v := eff.Data()[r*m+c]
					if v > 0 {
						wantPos += v
					} else {
						wantNeg += v
					}
				}
				if got := cb.sufPos[cp*m+c]; got != wantPos {
					t.Fatalf("trial %d cp %d col %d: sufPos %v, want %v", trial, cp, c, got, wantPos)
				}
				if got := cb.sufNeg[cp*m+c]; got != wantNeg {
					t.Fatalf("trial %d cp %d col %d: sufNeg %v, want %v", trial, cp, c, got, wantNeg)
				}
				// Random subsets of the remaining rows can never beat the
				// bound (tightness direction is pinned by equality above).
				for s := 0; s < 8; s++ {
					sum := 0.0
					for r := lo; r < n; r++ {
						if rng.Intn(2) == 1 {
							sum += eff.Data()[r*m+c]
						}
					}
					if sum > cb.sufPos[cp*m+c] || sum < cb.sufNeg[cp*m+c] {
						t.Fatalf("trial %d cp %d col %d: subset sum %v outside [%v,%v]",
							trial, cp, c, sum, cb.sufNeg[cp*m+c], cb.sufPos[cp*m+c])
					}
				}
			}
		}
	}
}

// TestBoundColsDecisionsSound fuzzes the shared decision kernel on
// float weights against a brute-force scan: any column BoundCols
// decides must match the full accumulation's compare, for random
// partial positions and references near the decision boundary.
func TestBoundColsDecisionsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(40)
		m := 1 + rng.Intn(8)
		eff := tensor.New(n, m)
		for i := range eff.Data() {
			eff.Data()[i] = rng.NormFloat64()
		}
		cb := newColBounds(eff)
		active := make([]bool, n)
		for r := range active {
			active[r] = rng.Intn(2) == 1
		}
		// Full scan: the ground-truth column sums.
		full := make([]float64, m)
		for r := 0; r < n; r++ {
			if !active[r] {
				continue
			}
			for c := 0; c < m; c++ {
				full[c] += eff.Data()[r*m+c]
			}
		}
		cp := rng.Intn(checkpoints(n, cb.stride))
		lo := cp * cb.stride
		// Partial sums up to (not including) row lo, as the walk holds
		// them when evaluating checkpoint cp.
		acc := make([]float64, m)
		for r := 0; r < lo; r++ {
			if !active[r] {
				continue
			}
			for c := 0; c < m; c++ {
				acc[c] += eff.Data()[r*m+c]
			}
		}
		ref := full[rng.Intn(m)] + rng.NormFloat64()*0.01
		base := cp * m
		dec0, dec1 := boundColsRef(acc, cb, base, cp, ref)
		for c := 0; c < m; c++ {
			bit := uint64(1) << uint(c)
			if dec0&bit != 0 && full[c] > ref {
				t.Fatalf("trial %d col %d: bound said 0 but full sum %v > ref %v", trial, c, full[c], ref)
			}
			if dec1&bit != 0 && full[c] <= ref {
				t.Fatalf("trial %d col %d: bound said 1 but full sum %v <= ref %v", trial, c, full[c], ref)
			}
		}
	}
}

// boundColsRef invokes the vecf kernel with the table slices for one
// checkpoint, as the walk does.
func boundColsRef(acc []float64, cb *colBounds, base, cp int, ref float64) (uint64, uint64) {
	m := cb.m
	return vecf.BoundCols(acc, cb.sufPos[base:base+m], cb.sufNeg[base:base+m],
		cb.sufAbs[base:base+m], cb.slackU[cp], ref, colMask(m))
}

// TestBoundedZeroAllocs pins that the bounded fast path stays
// allocation-free in steady state.
func TestBoundedZeroAllocs(t *testing.T) {
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
	img := f.test.Images[0]
	if avg := testing.AllocsPerRun(200, func() { d.Predict(img) }); avg != 0 {
		t.Errorf("bounded Predict allocates %.1f objects per image, want 0", avg)
	}
}
