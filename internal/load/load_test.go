package load

import "testing"

func TestScheduleDeterministicAndOpenLoop(t *testing.T) {
	cfg := Config{Rate: 1000, Requests: 500, Seed: 7}
	a, b := Schedule(cfg), Schedule(cfg)
	if len(a) != 500 {
		t.Fatalf("schedule length %d, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs between equal-seed schedules: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] != 0 {
		t.Errorf("first arrival at %v, want 0", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	// Poisson arrivals at 1000/s: 500 requests span ~0.5 s. Allow wide
	// stochastic slack — the point is the scale, not the exact value.
	span := a[len(a)-1].Seconds()
	if span < 0.25 || span > 1.0 {
		t.Errorf("500 arrivals at 1000/s span %.3fs, want ≈0.5s", span)
	}
	if c := Schedule(Config{Rate: 1000, Requests: 500, Seed: 8}); c[100] == a[100] {
		t.Error("different seeds produced an identical schedule offset")
	}
}
