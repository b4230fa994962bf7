package rram

import (
	"math"
	"math/rand"
	"testing"
)

func writeTarget(cells int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	tgt := make([]float64, cells)
	for i := range tgt {
		tgt[i] = rng.Float64()
	}
	return tgt
}

func TestProgramVerifyIdealOnePulse(t *testing.T) {
	m := IdealDeviceModel(4)
	tgt := writeTarget(64, 1)
	g, stats, err := ProgramVerify(m, tgt, DefaultWriteConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalPulses != 64 || stats.MeanPulses() != 1 {
		t.Fatalf("ideal device needed %.2f pulses/cell, want 1", stats.MeanPulses())
	}
	if stats.FailedCells != 0 || stats.MaxRelError != 0 {
		t.Fatalf("ideal device stats wrong: %+v", stats)
	}
	for i, v := range tgt {
		if want := m.LevelConductance(m.QuantizeToLevel(v)); g[i] != want {
			t.Fatalf("cell %d conductance %g, want nominal %g", i, g[i], want)
		}
	}
}

func TestProgramVerifyTightensPrecision(t *testing.T) {
	m := DefaultDeviceModel()
	m.ProgramSigma = 0.1 // heavy variation
	cfg := DefaultWriteConfig()
	cfg.Tolerance = 0.03
	cfg.MaxPulses = 200
	tgt := writeTarget(144, 3)
	g, stats, err := ProgramVerify(m, tgt, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FailedCells != 0 {
		t.Fatalf("%d cells failed with generous pulse budget", stats.FailedCells)
	}
	if stats.MeanPulses() <= 1.5 {
		t.Fatalf("heavy variation verified in %.2f pulses/cell; expected retries", stats.MeanPulses())
	}
	// Every cell within tolerance of its nominal level.
	for i, v := range tgt {
		nominal := m.LevelConductance(m.QuantizeToLevel(v))
		if rel := math.Abs(g[i]-nominal) / nominal; rel > cfg.Tolerance+1e-12 {
			t.Fatalf("cell %d error %.4f beyond tolerance", i, rel)
		}
	}
	if stats.EnergyPJ != float64(stats.TotalPulses)*cfg.PulseEnergyPJ {
		t.Fatal("energy accounting wrong")
	}
}

func TestProgramVerifyMorePulsesWithMoreVariation(t *testing.T) {
	pulses := func(sigma float64) float64 {
		m := DefaultDeviceModel()
		m.ProgramSigma = sigma
		cfg := DefaultWriteConfig()
		cfg.MaxPulses = 500
		_, stats, err := ProgramVerify(m, writeTarget(256, 5), cfg, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		return stats.MeanPulses()
	}
	low, high := pulses(0.01), pulses(0.08)
	if high <= low {
		t.Fatalf("more variation did not need more pulses: %.2f vs %.2f", high, low)
	}
}

func TestProgramVerifyStuckCellsFail(t *testing.T) {
	m := DefaultDeviceModel()
	m.StuckOffRate = 1 // every cell stuck at GOff
	tgt := make([]float64, 16)
	for i := range tgt {
		tgt[i] = 1 // want GOn everywhere
	}
	cfg := DefaultWriteConfig()
	cfg.MaxPulses = 5
	g, stats, err := ProgramVerify(m, tgt, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FailedCells != 16 {
		t.Fatalf("stuck cells failed: %d, want 16", stats.FailedCells)
	}
	if stats.TotalPulses != 16*5 {
		t.Fatalf("pulses %d, want full budget 80", stats.TotalPulses)
	}
	for i, v := range g {
		if v != m.GOff {
			t.Fatalf("stuck cell %d left at %g, want GOff %g", i, v, m.GOff)
		}
	}
}

func TestProgramVerifyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := DefaultWriteConfig()
	bad.Tolerance = 0
	if _, _, err := ProgramVerify(DefaultDeviceModel(), make([]float64, 4), bad, rng); err == nil {
		t.Fatal("accepted zero tolerance")
	}
	m := DefaultDeviceModel()
	m.Bits = 0
	if _, _, err := ProgramVerify(m, make([]float64, 4), DefaultWriteConfig(), rng); err == nil {
		t.Fatal("accepted an invalid device model")
	}
}

func TestProgramDeterministicWithSeed(t *testing.T) {
	m := DefaultDeviceModel()
	tgt := writeTarget(36, 8)
	a, sa, err := ProgramVerify(m, tgt, DefaultWriteConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, sb, _ := ProgramVerify(m, tgt, DefaultWriteConfig(), rand.New(rand.NewSource(7)))
	if sa != sb {
		t.Fatalf("write stats differ under a fixed seed: %+v vs %+v", sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("programming is not deterministic under a fixed seed")
		}
	}
}

func TestExpectedPulsesMatchesMonteCarlo(t *testing.T) {
	m := DefaultDeviceModel()
	m.ProgramSigma = 0.05
	cfg := DefaultWriteConfig()
	cfg.Tolerance = 0.03
	cfg.MaxPulses = 500
	want := ExpectedPulses(m, cfg)

	_, stats, err := ProgramVerify(m, writeTarget(24*24, 21), cfg, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	got := stats.MeanPulses()
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("closed-form pulses %.2f vs Monte-Carlo %.2f (>25%% apart)", want, got)
	}
}

func TestExpectedPulsesEdgeCases(t *testing.T) {
	cfg := DefaultWriteConfig()
	m := IdealDeviceModel(4)
	if ExpectedPulses(m, cfg) != 1 {
		t.Fatal("ideal device should need one pulse")
	}
	m.ProgramSigma = 10 // hopeless variation → capped at MaxPulses
	if got := ExpectedPulses(m, cfg); got != float64(cfg.MaxPulses) {
		t.Fatalf("hopeless device pulses %.1f, want cap %d", got, cfg.MaxPulses)
	}
}

func TestDeploymentEnergy(t *testing.T) {
	m := IdealDeviceModel(4)
	cfg := DefaultWriteConfig()
	// 1000 cells × 1 pulse × 10 pJ.
	if got := DeploymentEnergyPJ(1000, m, cfg); got != 10000 {
		t.Fatalf("deployment energy %v, want 10000", got)
	}
}

func TestProgramVerifyImprovesOverPlainProgram(t *testing.T) {
	// Under the same heavy variation, verified cells must end closer to
	// their nominal level conductances than plain-programmed ones.
	m := DefaultDeviceModel()
	m.ProgramSigma = 0.15
	tgt := writeTarget(256, 9)

	cfg := DefaultWriteConfig()
	cfg.MaxPulses = 300
	verified, _, err := ProgramVerify(m, tgt, cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var errPlain, errVerified float64
	for i, v := range tgt {
		lvl := m.QuantizeToLevel(v)
		nominal := m.LevelConductance(lvl)
		d := m.ProgramConductance(lvl, rng) - nominal
		errPlain += d * d
		d = verified[i] - nominal
		errVerified += d * d
	}
	if errVerified >= errPlain {
		t.Fatalf("verify did not improve programming fidelity: %.4g vs %.4g", errVerified, errPlain)
	}
}
