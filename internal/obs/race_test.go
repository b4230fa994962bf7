package obs

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecorder hammers one recorder from 16 goroutines —
// counters, gauges, histograms, the HW bundle, span samples and
// progress — and checks the totals. Run under -race (the CI workflow
// does) this is the package's thread-safety proof.
func TestConcurrentRecorder(t *testing.T) {
	const goroutines = 16
	const iters = 1000

	r := New()
	r.EnableProgress(io.Discard, time.Millisecond)
	sp := r.StartSpan("stress")

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hw := r.HW()
			for i := 0; i < iters; i++ {
				r.Counter("shared_events").Add(1)
				hw.MVM(1)
				hw.SACompares(2)
				hw.ActiveInputs(int64(i % 8))
				r.Histogram("lat", []float64{1, 10, 100}).Observe(float64(i % 100))
				r.Gauge("last_worker").Set(float64(g))
				sp.AddSamples(1)
				r.Progress("stress", g*iters+i+1, goroutines*iters)
			}
		}(g)
	}
	wg.Wait()
	sp.End()

	vals := r.CounterValues()
	const total = goroutines * iters
	for name, want := range map[string]int64{
		"shared_events": total,
		HWMVMOps:        total,
		HWSAComparisons: 2 * total,
	} {
		if vals[name] != want {
			t.Errorf("%s = %d, want %d", name, vals[name], want)
		}
	}
	if got := r.Histogram("lat", nil).Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	if got := sp.Samples(); got != total {
		t.Errorf("span samples = %d, want %d", got, total)
	}
}
