package bitvec

import (
	"math/rand"
	"testing"
)

// naive mirrors a Vec as []bool for cross-checking.
func toBools(v *Vec) []bool {
	out := make([]bool, v.Len())
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

func TestSetGetUnset(t *testing.T) {
	v := New(131) // crosses two word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 130} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.OnesCount(); got != 8 {
		t.Fatalf("OnesCount = %d, want 8", got)
	}
	v.Unset(64)
	if v.Get(64) || v.OnesCount() != 7 {
		t.Fatalf("Unset(64) left bit set or wrong count %d", v.OnesCount())
	}
}

func TestResetReusesBuffer(t *testing.T) {
	v := New(500)
	for i := 0; i < 500; i += 3 {
		v.Set(i)
	}
	words := &v.Words()[0]
	v.Reset(400)
	if v.Len() != 400 || v.OnesCount() != 0 {
		t.Fatalf("Reset left len=%d ones=%d", v.Len(), v.OnesCount())
	}
	if &v.Words()[0] != words {
		t.Fatalf("Reset to a smaller size reallocated the word buffer")
	}
}

func TestNextSetAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		v := New(n)
		var want []int
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				v.Set(i)
				want = append(want, i)
			}
		}
		var got []int
		for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: NextSet visited %d bits, want %d", n, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d: NextSet order got[%d]=%d, want %d", n, k, got[k], want[k])
			}
		}
	}
}

func TestNextSetBounds(t *testing.T) {
	v := New(70)
	v.Set(69)
	if got := v.NextSet(-5); got != 69 {
		t.Fatalf("NextSet(-5) = %d, want 69", got)
	}
	if got := v.NextSet(70); got != -1 {
		t.Fatalf("NextSet(len) = %d, want -1", got)
	}
	if got := v.NextSet(1000); got != -1 {
		t.Fatalf("NextSet past len = %d, want -1", got)
	}
}

func TestOr(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(64)
	b.Set(64)
	b.Set(99)
	a.Or(b)
	for _, i := range []int{3, 64, 99} {
		if !a.Get(i) {
			t.Fatalf("bit %d missing after Or", i)
		}
	}
	if a.OnesCount() != 3 {
		t.Fatalf("OnesCount after Or = %d, want 3", a.OnesCount())
	}
}

func TestSetFloats(t *testing.T) {
	xs := []float64{0, 1, 0.5, 0, -2, 0}
	v := New(1)
	v.SetFloats(xs)
	if v.Len() != len(xs) {
		t.Fatalf("SetFloats len = %d, want %d", v.Len(), len(xs))
	}
	for i, x := range xs {
		if v.Get(i) != (x != 0) {
			t.Fatalf("bit %d = %v for value %v", i, v.Get(i), x)
		}
	}
}

// TestCopyRangeRandom cross-checks the word-blit against a naive
// bit-by-bit copy over random offsets, including unaligned,
// word-crossing and full-word cases.
func TestCopyRangeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		srcN := 1 + rng.Intn(400)
		dstN := 1 + rng.Intn(400)
		src, dst := New(srcN), New(dstN)
		for i := 0; i < srcN; i++ {
			if rng.Intn(2) == 0 {
				src.Set(i)
			}
		}
		for i := 0; i < dstN; i++ {
			if rng.Intn(2) == 0 {
				dst.Set(i)
			}
		}
		n := rng.Intn(min(srcN, dstN) + 1)
		srcOff := rng.Intn(srcN - n + 1)
		dstOff := rng.Intn(dstN - n + 1)

		want := toBools(dst)
		for i := 0; i < n; i++ {
			want[dstOff+i] = src.Get(srcOff + i)
		}
		CopyRange(dst, dstOff, src, srcOff, n)
		got := toBools(dst)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (srcOff=%d dstOff=%d n=%d): bit %d = %v, want %v",
					trial, srcOff, dstOff, n, i, got[i], want[i])
			}
		}
	}
}

func TestCopyRangeBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-bounds CopyRange did not panic")
		}
	}()
	CopyRange(New(10), 5, New(10), 0, 8)
}

func BenchmarkNextSetSparse(b *testing.B) {
	v := New(4096)
	for i := 0; i < 4096; i += 97 {
		v.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := v.NextSet(0); j >= 0; j = v.NextSet(j + 1) {
			_ = j
		}
	}
}

func BenchmarkCopyRange(b *testing.B) {
	src, dst := New(4096), New(4096)
	for i := 0; i < 4096; i += 3 {
		src.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CopyRange(dst, 7, src, 13, 4000)
	}
}
