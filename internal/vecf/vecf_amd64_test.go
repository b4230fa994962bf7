//go:build amd64

package vecf

import (
	"math"
	"math/rand"
	"testing"
)

// TestAVX2MatchesGeneric runs the AVX2 kernels head to head against
// the portable loops on the same inputs — the direct check that the
// vector instructions round identically to scalar Go. Skipped on
// hardware without AVX2, where dispatch already takes the generic
// path.
func TestAVX2MatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine; dispatch uses the generic kernels")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(12)
		x := randVec(rng, Lanes)
		w := randVec(rng, m)
		accA := randVec(rng, m*Lanes)
		accG := append([]float64(nil), accA...)
		mulAccLanes64AVX2(&accA[0], &x[0], &w[0], m)
		mulAccLanesGeneric(accG, x, w)
		if !bitsEqual(accA, accG) {
			t.Fatalf("trial %d (m=%d): AVX2 mul-acc diverges from generic", trial, m)
		}
		thr := x[rng.Intn(Lanes)]
		if trial%2 == 0 {
			thr = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
		}
		if a, g := gtMask64AVX2(&x[0], thr), gtMask64Generic(x, thr); a != g {
			t.Fatalf("trial %d: AVX2 mask %016x, generic %016x (thr=%v)", trial, a, g, thr)
		}
	}
}

// TestConvWin4AVX2MatchesGeneric runs the fused window kernel head to
// head against the portable loop on the same inputs, with and without
// the read-noise gains.
func TestConvWin4AVX2MatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine; dispatch uses the generic kernels")
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		rows := 1 + rng.Intn(12)
		x := randVec(rng, (rows+2)*Lanes)
		w := randVec(rng, rows*4)
		off := make([]int64, rows)
		for r := range off {
			off[r] = int64(rng.Intn(len(x) - Lanes + 1))
		}
		rowMask := rng.Uint64() & (1<<uint(rows) - 1)
		if rowMask == 0 && trial%2 == 0 {
			rowMask = 1
		}
		thr := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
		var gains []float64
		var gp *float64
		sigma := rng.Float64()
		if trial%2 == 1 {
			gains = randVec(rng, 4*Lanes)
			gp = &gains[0]
		}
		var a, g [4]uint64
		convWin4AVX2(&x[0], &w[0], &off[0], rowMask, thr, gp, sigma, &a[0])
		convWin4Generic(x, w, off, rowMask, gains, sigma, thr, &g)
		if a != g {
			t.Fatalf("trial %d (rows=%d mask=%x): AVX2 %x, generic %x", trial, rows, rowMask, a, g)
		}
	}
}

// TestAddRowLanesAVX2MatchesGeneric runs the row-add kernel head to
// head against the portable loop on the same inputs.
func TestAddRowLanesAVX2MatchesGeneric(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine; dispatch uses the generic kernels")
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(13)
		row := randVec(rng, m)
		accA := randVec(rng, Lanes*m)
		accG := append([]float64(nil), accA...)
		word := rng.Uint64()
		if word == 0 {
			word = 1
		}
		addRowLanesAVX2(&accA[0], &row[0], int64(m), word)
		addRowLanesGeneric(accG, row, word)
		if !bitsEqual(accA, accG) {
			t.Fatalf("trial %d (m=%d word=%x): AVX2 row add diverges from generic", trial, m, word)
		}
	}
}
