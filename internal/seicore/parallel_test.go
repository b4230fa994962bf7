package seicore

import (
	"math/rand"
	"sync"
	"testing"

	"sei/internal/nn"
	"sei/internal/rram"
)

func TestBuildSEIRejectsNegativeWorkers(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Workers = -3
	if _, err := BuildSEI(f.q, f.train, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("BuildSEI accepted negative Workers")
	}
}

// buildCalibrated builds a split, dynamically-thresholded SEI design
// with the given worker count from identical RNG state.
func buildCalibrated(t *testing.T, workers int, sigma float64) *SEIDesign {
	t.Helper()
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.Model = rram.DefaultDeviceModel()
	cfg.Layer.Model.ReadNoiseSigma = sigma
	cfg.Layer.MaxCrossbar = 128 // forces conv2 and FC to split
	cfg.CalibImages = 30
	cfg.Workers = workers
	d, err := BuildSEI(f.q, f.train, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildSEICalibrationWorkerCountInvariant(t *testing.T) {
	for _, sigma := range []float64{0, 0.02} {
		ref := buildCalibrated(t, 1, sigma)
		for _, workers := range []int{2, 8, 0} {
			d := buildCalibrated(t, workers, sigma)
			for li := range ref.Convs {
				a, b := ref.Convs[li], d.Convs[li]
				if a.Gamma != b.Gamma || a.DigitalThreshold != b.DigitalThreshold {
					t.Fatalf("sigma=%v workers=%d: conv %d calibrated to (γ=%v D=%d), serial (γ=%v D=%d)",
						sigma, workers, li, b.Gamma, b.DigitalThreshold, a.Gamma, a.DigitalThreshold)
				}
				for bi := range a.OnesMean {
					if a.OnesMean[bi] != b.OnesMean[bi] {
						t.Fatalf("sigma=%v workers=%d: conv %d OnesMean[%d] differs", sigma, workers, li, bi)
					}
				}
			}
			for stage, res := range ref.CalibResults {
				got := d.CalibResults[stage]
				if got.AgreementBefore != res.AgreementBefore || got.AgreementAfter != res.AgreementAfter {
					t.Fatalf("sigma=%v workers=%d: stage %d accuracy (%v→%v), serial (%v→%v)",
						sigma, workers, stage, got.AgreementBefore, got.AgreementAfter,
						res.AgreementBefore, res.AgreementAfter)
				}
			}
		}
	}
}

func TestNoisyEvalWorkerCountInvariant(t *testing.T) {
	f := getFixture(t)
	d := buildCalibrated(t, 0, 0.03)
	sub := f.test.Subset(96)
	ref := nn.ErrorRate(nil, d, sub, 1)
	for _, workers := range []int{2, 8, 0} {
		if got := nn.ErrorRate(nil, d, sub, workers); got != ref {
			t.Fatalf("workers=%d: noisy error %.6f != serial %.6f", workers, got, ref)
		}
	}
}

// TestSharedDesignStress evaluates one shared noise-free SEIDesign from
// many goroutines at once; run under -race it proves the Predict path
// is read-only.
func TestSharedDesignStress(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(48)
	want := make([]int, sub.Len())
	for i := range want {
		want[i] = d.Predict(sub.Images[i])
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sub.Len(); i++ {
				// Interleave goroutines across samples.
				s := (i + g) % sub.Len()
				if got := d.Predict(sub.Images[s]); got != want[s] {
					errs <- "shared Predict diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
