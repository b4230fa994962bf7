package vecf

import (
	"math"
	"math/rand"
	"testing"
)

// adversarialValues are the float64 inputs most likely to expose a
// kernel that rounds differently from the scalar expression: signed
// zeros, denormals, values near cancellation, NaN and infinities.
var adversarialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1e-308, -1e-308, 1e308, 3.141592653589793, -2.718281828459045,
	math.NaN(), math.Inf(1), math.Inf(-1),
	1.0000000000000002, 0.9999999999999999,
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = adversarialValues[rng.Intn(len(adversarialValues))]
		} else {
			v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		}
	}
	return v
}

// bitsEqual compares exact bit patterns, except that any NaN equals
// any NaN: when both operands of an add are NaNs with different
// payloads, x86 propagates the first source operand's payload, and
// neither the Go spec nor this package pins which operand that is —
// only NaN-ness itself is deterministic.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMulAccLanesMatchesScalar pins the dispatched kernel bit-identical
// to the scalar mul-then-add expression on random and adversarial
// inputs, across weight-vector lengths.
func TestMulAccLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		x := randVec(rng, Lanes)
		w := randVec(rng, m)
		acc := randVec(rng, m*Lanes)
		want := append([]float64(nil), acc...)
		for c := 0; c < m; c++ {
			for i := 0; i < Lanes; i++ {
				want[c*Lanes+i] += w[c] * x[i]
			}
		}
		MulAccLanes(acc, x, w)
		if !bitsEqual(acc, want) {
			t.Fatalf("trial %d (m=%d): kernel diverges from scalar mul-then-add", trial, m)
		}
	}
	// Zero-length weights: a no-op that must not touch acc.
	acc := []float64{1, 2}
	MulAccLanes(acc, make([]float64, Lanes), nil)
	if acc[0] != 1 || acc[1] != 2 {
		t.Fatal("empty weight vector modified acc")
	}
}

// TestMulAccLanesZeroIdentity pins the property the sliced stage-0
// path relies on: accumulating a w*x product that is ±0 never changes
// an accumulator, because a sum of products under round-to-nearest can
// be +0 or nonzero but never -0.
func TestMulAccLanesZeroIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, Lanes) // all-zero lanes (±0 mixed in)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = math.Copysign(0, -1)
			}
		}
		// The identity requires finite weights (NaN·0 and Inf·0 are NaN)
		// and accumulators that are not -0 — both invariants of the
		// sliced path, whose weights and partial sums are always finite
		// and whose sums can never round to -0.
		w := randVec(rng, 4)
		for i := range w {
			if math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
				w[i] = float64(i) - 1.5
			}
		}
		acc := randVec(rng, 4*Lanes)
		for i := range acc {
			if math.Signbit(acc[i]) && acc[i] == 0 {
				acc[i] = 0 // accumulators are never -0 in the sliced path
			}
		}
		want := append([]float64(nil), acc...)
		MulAccLanes(acc, x, w)
		if !bitsEqual(acc, want) {
			t.Fatalf("trial %d: zero-valued lanes changed the accumulator", trial)
		}
	}
}

// TestGtMask64MatchesScalar pins the compare kernel against the Go `>`
// operator lane by lane, including NaN (false) and threshold-equal
// (false) lanes.
func TestGtMask64MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		x := randVec(rng, Lanes)
		thr := adversarialValues[rng.Intn(len(adversarialValues))]
		if trial%3 == 0 {
			thr = x[rng.Intn(Lanes)] // exercise the equal-compares-false edge
		}
		var want uint64
		for i, v := range x {
			if v > thr {
				want |= 1 << uint(i)
			}
		}
		if got := GtMask64(x, thr); got != want {
			t.Fatalf("trial %d: mask %016x, want %016x (thr=%v)", trial, got, want, thr)
		}
	}
}

// TestConvWin4MatchesScalar pins the fused window kernel against the
// scalar composition: ascending-row mul-then-add accumulation from +0,
// on odd trials the read-noise gain `acc *= 1 + sigma*g`, then a `>`
// compare per lane. Offsets overlap and repeat, rowMask is sparse and
// sometimes empty, and thresholds and gains include negative values
// (which an all-skipped window must still fire) and NaN.
func TestConvWin4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(12)
		x := randVec(rng, (rows+4)*Lanes)
		w := randVec(rng, rows*4)
		off := make([]int64, rows)
		for r := range off {
			off[r] = int64(rng.Intn(len(x) - Lanes + 1))
		}
		var rowMask uint64
		for r := 0; r < rows; r++ {
			if rng.Intn(4) != 0 {
				rowMask |= 1 << uint(r)
			}
		}
		thr := adversarialValues[rng.Intn(len(adversarialValues))]
		var want [4]uint64
		var acc [4 * Lanes]float64
		for r := 0; r < rows; r++ {
			if rowMask&(1<<uint(r)) == 0 {
				continue
			}
			for c := 0; c < 4; c++ {
				for i := 0; i < Lanes; i++ {
					acc[c*Lanes+i] += w[r*4+c] * x[off[r]+int64(i)]
				}
			}
		}
		var gains []float64
		sigma := 0.05
		if trial%2 == 1 {
			gains = make([]float64, 4*Lanes)
			for i := range gains {
				gains[i] = adversarialValues[rng.Intn(len(adversarialValues))]
			}
			for c := 0; c < 4; c++ {
				for i := 0; i < Lanes; i++ {
					acc[c*Lanes+i] *= 1 + sigma*gains[i*4+c]
				}
			}
		}
		for c := 0; c < 4; c++ {
			for i := 0; i < Lanes; i++ {
				if acc[c*Lanes+i] > thr {
					want[c] |= 1 << uint(i)
				}
			}
		}
		var got [4]uint64
		ConvWin4(x, w, off, rowMask, gains, sigma, thr, &got)
		if got != want {
			t.Fatalf("trial %d (rows=%d mask=%x thr=%v): got %x, want %x",
				trial, rows, rowMask, thr, got, want)
		}
	}
}

// TestAddRowLanesMatchesScalar pins the lane-major row add against the
// scalar loop on adversarial values, across row lengths and sparse to
// dense lane words.
func TestAddRowLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(13)
		row := randVec(rng, m)
		acc := randVec(rng, Lanes*m)
		word := rng.Uint64() & rng.Uint64() // biased sparse
		if trial%5 == 0 {
			word = rng.Uint64()
		}
		want := append([]float64(nil), acc...)
		for lane := 0; lane < Lanes; lane++ {
			if word&(1<<uint(lane)) == 0 {
				continue
			}
			for c, v := range row {
				want[lane*m+c] += v
			}
		}
		AddRowLanes(acc, row, word)
		if !bitsEqual(acc, want) {
			t.Fatalf("trial %d (m=%d word=%x): row add diverges from scalar", trial, m, word)
		}
	}
	// Empty word and empty row: no-ops that must not touch acc.
	acc := []float64{1, 2}
	AddRowLanes(acc, []float64{5}, 0)
	AddRowLanes(acc, nil, ^uint64(0))
	if acc[0] != 1 || acc[1] != 2 {
		t.Fatal("no-op row add modified acc")
	}
}

func BenchmarkMulAccLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randVec(rng, Lanes)
	w := []float64{0.25, -0.5, 1.5, -2}
	acc := make([]float64, len(w)*Lanes)
	b.SetBytes(int64(len(acc) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAccLanes(acc, x, w)
	}
}

func BenchmarkGtMask64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randVec(rng, Lanes)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= GtMask64(x, 0.125)
	}
	_ = sink
}
