package bitvec

import (
	"math/rand"
	"testing"
)

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
