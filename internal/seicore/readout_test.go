package seicore

import (
	"math/rand"
	"testing"

	"sei/internal/rram"
)

func randomSums(m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, m)
	for i := range s {
		s[i] = 10 * rng.NormFloat64()
	}
	return s
}

// TestReadoutIRDropScalesColumns pins the first-order IR-drop model:
// every column sum is scaled by exactly 1 − α·ones·irRows/512, and the
// scale is returned for the FC layer's dynamic column.
func TestReadoutIRDropScalesColumns(t *testing.T) {
	m := rram.IdealDeviceModel(4)
	m.IRDropAlpha = 0.2
	for _, c := range []struct{ irRows, ones int }{{4, 30}, {2, 1}, {8, 64}, {4, 0}} {
		r := newReadout(m, c.irRows, nil)
		want := randomSums(9, int64(c.ones))
		sums := append([]float64(nil), want...)
		scale := r.columns(sums, c.ones)
		wantScale := 1 - 0.2*float64(c.ones*c.irRows)/rram.MaxCrossbarSize
		if scale != wantScale {
			t.Fatalf("irRows=%d ones=%d: scale %v, want %v", c.irRows, c.ones, scale, wantScale)
		}
		for i := range sums {
			if sums[i] != want[i]*wantScale {
				t.Fatalf("irRows=%d ones=%d: column %d = %v, want %v", c.irRows, c.ones, i, sums[i], want[i]*wantScale)
			}
		}
	}
}

// TestReadoutIdealLeavesSumsExact pins that a read-out without noise or
// IR drop is the identity on column sums, on both the column pass and
// the float path's full read. A per-cell noise flag without a sigma
// and the I-V nonlinearity (applied to analog inputs before the sums
// form, not to the sums) are not read-out effects.
func TestReadoutIdealLeavesSumsExact(t *testing.T) {
	perCell := rram.IdealDeviceModel(4)
	perCell.ReadNoisePerCell = true
	nonlinear := rram.IdealDeviceModel(4)
	nonlinear.IVNonlinearity = 2
	for name, m := range map[string]rram.DeviceModel{
		"ideal":               rram.IdealDeviceModel(4),
		"default":             rram.DefaultDeviceModel(),
		"per-cell-zero-sigma": perCell,
		"nonlinear":           nonlinear,
	} {
		r := newReadout(m, 4, rand.New(rand.NewSource(1)))
		if r.noisy() {
			t.Fatalf("%s: read-out draws noise", name)
		}
		want := randomSums(7, 2)
		sums := append([]float64(nil), want...)
		if scale := r.columns(sums, 17); scale != 1 {
			t.Fatalf("%s: columns scale %v, want 1", name, scale)
		}
		data := randomSums(3*7, 3)
		if scale := r.readFloat(data, []int{0, 2, 1}, []float64{1, 0, 1}, sums, 2, nil); scale != 1 {
			t.Fatalf("%s: readFloat scale %v, want 1", name, scale)
		}
		for i := range sums {
			if sums[i] != want[i] {
				t.Fatalf("%s: column %d changed %v → %v", name, i, want[i], sums[i])
			}
		}
	}
}

// TestMergedLayerNonlinearDistortsAnalogNotBinary pins the
// full-swing-calibrated I-V transfer on the DAC-driven layer: 0/1
// inputs read exactly as on the linear device programmed from the same
// seed, analog inputs do not.
func TestMergedLayerNonlinearDistortsAnalogNotBinary(t *testing.T) {
	w := randomMatrix(24, 5, 7)
	lin := rram.DefaultDeviceModel() // with programming variation
	nl := lin
	nl.IVNonlinearity = 2
	linLayer, err := NewMergedLayer(w, lin, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	nlLayer, err := NewMergedLayer(w, nl, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	bin := make([]float64, 24)
	analog := make([]float64, 24)
	for i := range bin {
		if rng.Float64() < 0.5 {
			bin[i] = 1
		}
		analog[i] = rng.Float64()
	}
	want, got := linLayer.Eval(bin), nlLayer.Eval(bin)
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("binary input, column %d: nonlinear %v, linear %v", c, got[c], want[c])
		}
	}
	want, got = linLayer.Eval(analog), nlLayer.Eval(analog)
	same := true
	for c := range want {
		same = same && got[c] == want[c]
	}
	if same {
		t.Fatal("analog input read identically under I-V nonlinearity")
	}
}
