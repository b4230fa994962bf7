package rram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransferLinearDefault(t *testing.T) {
	f := DefaultDeviceModel().TransferCalibrated()
	for _, x := range []float64{0, 0.25, 0.5, 1} {
		if f(x) != x {
			t.Fatalf("linear transfer f(%v) = %v", x, f(x))
		}
	}
}

func TestTransferSinhShape(t *testing.T) {
	m := DefaultDeviceModel()
	m.IVNonlinearity = 2
	f := m.TransferCalibrated()
	for _, x := range []float64{0, 0.25, 0.5, 1} {
		if want := math.Sinh(2*x) / math.Sinh(2); f(x) != want {
			t.Fatalf("f(%v) = %v, want sinh(2x)/sinh(2) = %v", x, f(x), want)
		}
	}
}

// Property: the sinh transfer converges to linear as the nonlinearity
// vanishes.
func TestTransferConvergesToLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := rng.Float64()
		m := DefaultDeviceModel()
		m.IVNonlinearity = 1e-4
		return math.Abs(m.TransferCalibrated()(x)-x) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the transfer is strictly increasing (a physical I-V curve).
func TestTransferMonotone(t *testing.T) {
	m := DefaultDeviceModel()
	m.IVNonlinearity = 3
	f := m.TransferCalibrated()
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		if f(x) <= prev {
			t.Fatalf("transfer not increasing at x=%v", x)
		}
		prev = f(x)
	}
}

func TestTransferCalibratedFixedPoints(t *testing.T) {
	m := DefaultDeviceModel()
	m.IVNonlinearity = 2.5
	f := m.TransferCalibrated()
	if f(0) != 0 || math.Abs(f(1)-1) > 1e-15 {
		t.Fatalf("calibrated transfer endpoints f(0)=%v f(1)=%v", f(0), f(1))
	}
	// Convexity: intermediate voltages under-contribute after full-swing
	// calibration.
	for _, x := range []float64{0.2, 0.5, 0.8} {
		if f(x) >= x {
			t.Fatalf("calibrated f(%v) = %v, want < x", x, f(x))
		}
	}
	// Linear device: identity.
	lin := DefaultDeviceModel()
	if g := lin.TransferCalibrated(); g(0.37) != 0.37 {
		t.Fatal("linear calibrated transfer not identity")
	}
}

func TestValidateRejectsNegativeNonlinearity(t *testing.T) {
	m := DefaultDeviceModel()
	m.IVNonlinearity = -1
	if m.Validate() == nil {
		t.Fatal("accepted negative nonlinearity")
	}
}
