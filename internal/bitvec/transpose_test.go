package bitvec

import (
	"math/rand"
	"testing"
)

// naiveTranspose64 is the per-bit reference: bit c of row r moves to
// bit r of row c.
func naiveTranspose64(src []uint64) []uint64 {
	out := make([]uint64, 64)
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if src[r]>>uint(c)&1 != 0 {
				out[c] |= 1 << uint(r)
			}
		}
	}
	return out
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

func TestTranspose64MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]uint64{
		make([]uint64, 64), // all zero
	}
	ones := make([]uint64, 64)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	cases = append(cases, ones)
	diag := make([]uint64, 64)
	for i := range diag {
		diag[i] = 1 << uint(i)
	}
	cases = append(cases, diag)
	single := make([]uint64, 64)
	single[17] = 1 << 42
	cases = append(cases, single)
	for i := 0; i < 50; i++ {
		cases = append(cases, randWords(rng, 64))
	}
	for ci, src := range cases {
		want := naiveTranspose64(src)
		dst := make([]uint64, 64)
		Transpose64(dst, src)
		for r := range want {
			if dst[r] != want[r] {
				t.Fatalf("case %d: Transpose64 row %d = %016x, want %016x", ci, r, dst[r], want[r])
			}
		}
		// Involution: transposing twice restores the input.
		back := make([]uint64, 64)
		Transpose64(back, dst)
		for r := range src {
			if back[r] != src[r] {
				t.Fatalf("case %d: double transpose row %d = %016x, want %016x", ci, r, back[r], src[r])
			}
		}
		// In-place: same slice as source and destination.
		inPlace := append([]uint64(nil), src...)
		Transpose64(inPlace, inPlace)
		for r := range want {
			if inPlace[r] != want[r] {
				t.Fatalf("case %d: in-place row %d = %016x, want %016x", ci, r, inPlace[r], want[r])
			}
		}
	}
}

func TestTranspose64ShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transpose64 with short slices did not panic")
		}
	}()
	Transpose64(make([]uint64, 63), make([]uint64, 64))
}

func BenchmarkTranspose64(b *testing.B) {
	src := randWords(rand.New(rand.NewSource(5)), 64)
	dst := make([]uint64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose64(dst, src)
	}
}
