package rram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sei/internal/tensor"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultDeviceModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultDeviceModel().Levels() != 16 {
		t.Fatalf("default device has %d levels, want 16 (4-bit)", DefaultDeviceModel().Levels())
	}
}

func TestModelValidation(t *testing.T) {
	bad := []DeviceModel{
		{Bits: 0, GOn: 1e-4, GOff: 1e-6},
		{Bits: 9, GOn: 1e-4, GOff: 1e-6},
		{Bits: 4, GOn: 1e-6, GOff: 1e-4}, // inverted range
		{Bits: 4, GOn: 1e-4, GOff: 1e-6, ProgramSigma: -1},
		{Bits: 4, GOn: 1e-4, GOff: 1e-6, StuckOnRate: 0.6, StuckOffRate: 0.6},
		{Bits: 4, GOn: 1e-4, GOff: 1e-6, IRDropAlpha: 1},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("model %d validated but is invalid: %+v", i, m)
		}
	}
}

func TestLevelConductanceMonotone(t *testing.T) {
	m := DefaultDeviceModel()
	prev := -1.0
	for l := 0; l <= m.MaxLevel(); l++ {
		g := m.LevelConductance(l)
		if g <= prev {
			t.Fatalf("conductance not strictly increasing at level %d", l)
		}
		prev = g
	}
	if m.LevelConductance(0) != m.GOff || m.LevelConductance(m.MaxLevel()) != m.GOn {
		t.Fatal("level endpoints do not hit GOff/GOn")
	}
}

func TestLevelConductancePanics(t *testing.T) {
	m := DefaultDeviceModel()
	for _, l := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LevelConductance(%d) did not panic", l)
				}
			}()
			m.LevelConductance(l)
		}()
	}
}

func TestQuantizeToLevel(t *testing.T) {
	m := DefaultDeviceModel()
	cases := []struct {
		v    float64
		want int
	}{
		{-0.5, 0}, {0, 0}, {1, 15}, {2, 15},
		{0.5, 8}, {1.0 / 15, 1}, {0.49 / 15, 0},
	}
	for _, c := range cases {
		if got := m.QuantizeToLevel(c.v); got != c.want {
			t.Errorf("QuantizeToLevel(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestProgramConductanceVariationStats(t *testing.T) {
	m := DefaultDeviceModel()
	m.ProgramSigma = 0.1
	rng := rand.New(rand.NewSource(1))
	const n = 4000
	sum, sum2 := 0.0, 0.0
	nominal := m.LevelConductance(10)
	for i := 0; i < n; i++ {
		g := m.ProgramConductance(10, rng)
		r := math.Log(g / nominal)
		sum += r
		sum2 += r * r
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("lognormal mean %.4f, want ≈0", mean)
	}
	if std < 0.08 || std > 0.12 {
		t.Fatalf("lognormal std %.4f, want ≈0.1", std)
	}
}

func TestStuckFaultRates(t *testing.T) {
	m := DefaultDeviceModel()
	m.ProgramSigma = 0
	m.StuckOnRate = 0.1
	m.StuckOffRate = 0.2
	rng := rand.New(rand.NewSource(2))
	const n = 10000
	on, off := 0, 0
	for i := 0; i < n; i++ {
		switch g := m.ProgramConductance(8, rng); g {
		case m.GOn:
			on++
		case m.GOff:
			off++
		}
	}
	if fr := float64(on) / n; fr < 0.08 || fr > 0.12 {
		t.Fatalf("stuck-on rate %.3f, want ≈0.1", fr)
	}
	if fr := float64(off) / n; fr < 0.17 || fr > 0.23 {
		t.Fatalf("stuck-off rate %.3f, want ≈0.2", fr)
	}
}

func TestQuantizeToLevelNaN(t *testing.T) {
	// Regression: NaN compares false against both clamp bounds, so it
	// used to flow through math.Round into int(NaN) — an out-of-range
	// level that panicked downstream in LevelConductance.
	m := DefaultDeviceModel()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 7} {
		lvl := m.QuantizeToLevel(v)
		if lvl < 0 || lvl > m.MaxLevel() {
			t.Fatalf("QuantizeToLevel(%v) = %d outside [0,%d]", v, lvl, m.MaxLevel())
		}
		// The level must be programmable without panicking.
		if g := m.LevelConductance(lvl); g < m.GOff || g > m.GOn {
			t.Fatalf("LevelConductance(%d) = %g outside [%g,%g]", lvl, g, m.GOff, m.GOn)
		}
	}
	if got := m.QuantizeToLevel(math.NaN()); got != 0 {
		t.Fatalf("QuantizeToLevel(NaN) = %d, want 0 (the unprogrammed state)", got)
	}
}

func TestQuantizeSymmetric(t *testing.T) {
	w := tensor.FromSlice([]float64{-2, -1, 0, 0.5, 2}, 5)
	q, scale, err := QuantizeSymmetric(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != -127 || q[4] != 127 || q[2] != 0 {
		t.Fatalf("quantized %v", q)
	}
	if math.Abs(scale-2.0/127) > 1e-12 {
		t.Fatalf("scale %v, want %v", scale, 2.0/127)
	}
	// Round-trip error bounded by scale/2.
	for i, v := range w.Data() {
		if math.Abs(float64(q[i])*scale-v) > scale/2+1e-12 {
			t.Fatalf("round-trip error too large at %d", i)
		}
	}
}

func TestQuantizeSymmetricZeroMatrix(t *testing.T) {
	q, scale, err := QuantizeSymmetric(tensor.New(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		t.Fatalf("zero-matrix scale %v, want 1", scale)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero matrix quantized to nonzero")
		}
	}
}

func TestQuantizeSymmetricBadBits(t *testing.T) {
	if _, _, err := QuantizeSymmetric(tensor.New(2), 1); err == nil {
		t.Fatal("accepted 1-bit weights")
	}
}

func TestSliceCount(t *testing.T) {
	cases := []struct{ wb, db, want int }{
		{8, 4, 2}, {8, 2, 4}, {8, 3, 3}, {8, 5, 2}, {8, 8, 1}, {8, 6, 2},
	}
	for _, c := range cases {
		if got := SliceCount(c.wb, c.db); got != c.want {
			t.Errorf("SliceCount(%d,%d) = %d, want %d", c.wb, c.db, got, c.want)
		}
	}
}

// Property: SliceMagnitude digits reconstruct the magnitude and each
// digit fits the device level range, for every device precision.
func TestSliceMagnitudeRoundTrip(t *testing.T) {
	// The paper's two-cell high-bits/low-bits split of an 8-bit weight.
	if got := SliceMagnitude(0xAB, 8, 4); len(got) != 2 || got[0] != 0xB || got[1] != 0xA {
		t.Fatalf("SliceMagnitude(0xAB, 8, 4) = %x, want [b a]", got)
	}
	f := func(raw uint8, bitsRaw uint8) bool {
		m := int(raw)
		bits := 2 + int(bitsRaw)%7 // 2..8
		digits := SliceMagnitude(m, 8, bits)
		recon, coeff := 0, 1
		for _, d := range digits {
			if d < 0 || d >= 1<<bits {
				return false
			}
			recon += d * coeff
			coeff <<= bits
		}
		return recon == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceMagnitudePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative magnitude did not panic")
		}
	}()
	SliceMagnitude(-1, 8, 4)
}
