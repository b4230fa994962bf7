package seicore

import (
	"math/rand"
	"testing"

	"sei/internal/nn"
	"sei/internal/rram"
)

// The 1-bit data path's structural advantage: device I-V nonlinearity
// distorts analog-input designs but leaves 1-bit-input designs almost
// untouched (every input is 0 or full swing).
func TestNonlinearityHurtsAnalogMoreThanBinary(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(120)

	run := func(nl float64) (analogErr, binaryErr float64) {
		model := rram.IdealDeviceModel(4)
		model.IVNonlinearity = nl
		dac, err := BuildDACADC(f.net, []int{1, 28, 28}, model, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		onebit, err := BuildOneBitADC(f.q, model, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return nn.ErrorRate(nil, dac, sub, 0), nn.ErrorRate(nil, onebit, sub, 0)
	}

	aLin, bLin := run(0)
	aNL, bNL := run(3)
	t.Logf("nonlinearity 0: analog %.4f binary %.4f; nonlinearity 3: analog %.4f binary %.4f",
		aLin, bLin, aNL, bNL)
	analogDelta := aNL - aLin
	binaryDelta := bNL - bLin
	if binaryDelta > 0.05 {
		t.Fatalf("binary design degraded %.4f under nonlinearity; should be nearly immune", binaryDelta)
	}
	if analogDelta < binaryDelta-0.02 {
		t.Fatalf("analog design (Δ%.4f) not hurt more than binary (Δ%.4f)", analogDelta, binaryDelta)
	}
}

func TestStuckFaultsDegradeGracefully(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(120)
	errAt := func(rate float64) float64 {
		model := rram.DefaultDeviceModel()
		model.StuckOnRate = rate / 2
		model.StuckOffRate = rate / 2
		d, err := BuildOneBitADC(f.q, model, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return nn.ErrorRate(nil, d, sub, 0)
	}
	clean := errAt(0)
	mild := errAt(0.001)
	heavy := errAt(0.10)
	t.Logf("stuck faults: clean %.4f, 0.1%% %.4f, 10%% %.4f", clean, mild, heavy)
	if mild > clean+0.08 {
		t.Fatalf("0.1%% faults exploded error: %.4f vs %.4f", mild, clean)
	}
	if heavy <= clean {
		t.Fatalf("10%% faults did not degrade accuracy (%.4f vs %.4f)", heavy, clean)
	}
}

func TestReadNoiseDegradesMonotonically(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(120)
	errAt := func(sigma float64) float64 {
		model := rram.DefaultDeviceModel()
		model.ReadNoiseSigma = sigma
		cfg := DefaultSEIBuildConfig()
		cfg.Layer.Model = model
		cfg.DynamicThreshold = false
		d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return nn.ErrorRate(nil, d, sub, 0)
	}
	clean := errAt(0)
	noisy := errAt(0.5)
	t.Logf("read noise: clean %.4f, sigma 0.5 %.4f", clean, noisy)
	if noisy <= clean {
		t.Fatalf("massive read noise did not degrade accuracy (%.4f vs %.4f)", noisy, clean)
	}
}

func TestIRDropDegradesSplitLayers(t *testing.T) {
	f := getFixture(t)
	sub := f.test.Subset(120)
	errAt := func(alpha float64) float64 {
		model := rram.DefaultDeviceModel()
		model.IRDropAlpha = alpha
		cfg := DefaultSEIBuildConfig()
		cfg.Layer.Model = model
		cfg.DynamicThreshold = false
		d, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return nn.ErrorRate(nil, d, sub, 0)
	}
	clean := errAt(0)
	dropped := errAt(0.9)
	t.Logf("IR drop: clean %.4f, alpha 0.9 %.4f", clean, dropped)
	// Network 2's arrays are small (≤ 200 active rows of 512), so mild
	// IR drop is tolerable, but a severe one must show up.
	if dropped < clean {
		t.Logf("note: severe IR drop did not hurt on this small network")
	}
	if errAt(0.05) > clean+0.05 {
		t.Fatalf("mild IR drop (α=0.05) exploded error")
	}
}
