package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// withTestClock replaces the recorder's clock with a deterministic one
// ticking one second per reading, and rebases the run start.
func withTestClock(r *Recorder) time.Time {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	r.now = func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) }
	r.start = base
	r.root.start = base
	return base
}

func TestSpanNesting(t *testing.T) {
	r := New()
	withTestClock(r)
	outer := r.StartSpan("outer") // t+1
	inner := r.StartSpan("inner") // t+2
	inner.AddSamples(10)
	inner.End() // t+3: inner ran 1s
	outer.End() // t+4: outer ran 3s
	if got := inner.Duration(); got != time.Second {
		t.Errorf("inner duration = %v, want 1s", got)
	}
	if got := outer.Duration(); got != 3*time.Second {
		t.Errorf("outer duration = %v, want 3s", got)
	}
	if got := inner.Samples(); got != 10 {
		t.Errorf("inner samples = %d, want 10", got)
	}
	rep := r.Report("test")
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "outer" {
		t.Fatalf("top-level spans = %+v, want [outer]", rep.Spans)
	}
	if len(rep.Spans[0].Children) != 1 || rep.Spans[0].Children[0].Name != "inner" {
		t.Fatalf("outer children = %+v, want [inner]", rep.Spans[0].Children)
	}
	if got := rep.Spans[0].Children[0].SamplesPerSec; got != 10 {
		t.Errorf("inner samples/s = %v, want 10", got)
	}
}

// Ending an outer span closes its unended descendants, so a forgotten
// End cannot corrupt the stack.
func TestSpanEndClosesDescendants(t *testing.T) {
	r := New()
	withTestClock(r)
	outer := r.StartSpan("outer") // t+1
	inner := r.StartSpan("inner") // t+2
	outer.End()                   // t+3: closes both
	if got := inner.Duration(); got != time.Second {
		t.Errorf("inner duration = %v, want 1s", got)
	}
	if got := outer.Duration(); got != 2*time.Second {
		t.Errorf("outer duration = %v, want 2s", got)
	}
	next := r.StartSpan("next") // t+4: child of root again
	next.End()
	rep := r.Report("test")
	if len(rep.Spans) != 2 || rep.Spans[1].Name != "next" {
		t.Fatalf("spans = %+v, want [outer next] at top level", rep.Spans)
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	r := New()
	withTestClock(r)
	sp := r.StartSpan("phase") // t+1
	sp.End()                   // t+2
	sp.End()                   // no-op
	if got := sp.Duration(); got != time.Second {
		t.Errorf("duration = %v, want 1s after double End", got)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if r.Counter("events") != c {
		t.Error("Counter did not return the same instance on reuse")
	}
	g := r.Gauge("workers")
	g.Set(8)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v, want last-write 2", got)
	}
	vals := r.CounterValues()
	if vals["events"] != 7 {
		t.Errorf("CounterValues = %v, want events:7", vals)
	}
	if gv := r.Report("").Gauges; gv["workers"] != 2 {
		t.Errorf("report gauges = %v, want workers:2", gv)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("dist", []float64{1, 2, 4})
	// Bucket i holds v ≤ bounds[i]; the last bucket is +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 3, 4, 9} {
		h.Observe(v)
	}
	want := []int64{2, 1, 2, 1} // le1:{0.5,1} le2:{1.5} le4:{3,4} +Inf:{9}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 19 {
		t.Errorf("sum = %v, want 19", h.Sum())
	}
	if b := h.Bounds(); len(b) != 3 || b[2] != 4 {
		t.Errorf("bounds = %v, want [1 2 4]", b)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds did not panic")
		}
	}()
	newHistogram([]float64{2, 1})
}

func TestHWBundle(t *testing.T) {
	r := New()
	hw := r.HW()
	hw.MVM(2)
	hw.SACompares(3)
	hw.ColumnActivations(4)
	hw.ActiveInputs(5)
	hw.ORPool(6)
	vals := r.CounterValues()
	for name, want := range map[string]int64{
		HWMVMOps: 2, HWSAComparisons: 3, HWColumnActivations: 4,
		HWActiveInputs: 5, HWORPoolReductions: 6,
	} {
		if vals[name] != want {
			t.Errorf("%s = %d, want %d", name, vals[name], want)
		}
	}
}

// The nil recorder and everything it hands out must be safe no-ops:
// that is the disabled fast path every hot loop relies on.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x", []float64{1}).Observe(1)
	r.HW().MVM(1)
	r.HW().ActiveInputs(1)
	sp := r.StartSpan("x")
	sp.AddSamples(1)
	sp.End()
	r.EnableProgress(nil, time.Second)
	r.Progress("x", 1, 2)
	if r.CounterValues() != nil {
		t.Error("nil recorder returned non-nil snapshots")
	}
	rep := r.Report("off")
	if rep.Name != "off" || len(rep.Counters) != 0 {
		t.Errorf("nil report = %+v", rep)
	}
}

func TestProgress(t *testing.T) {
	r := New()
	withTestClock(r)
	var buf bytes.Buffer
	r.EnableProgress(&buf, 0)
	r.Progress("sweep", 1, 4)
	r.Progress("sweep", 4, 4)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("progress lines = %q, want 2 lines", buf.String())
	}
	if lines[0] != "obs: sweep 1/4 (25%)" {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "obs: sweep 4/4 (100%)") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestProgressRateLimit(t *testing.T) {
	r := New()
	withTestClock(r) // ticks 1s per reading
	var buf bytes.Buffer
	r.EnableProgress(&buf, 10*time.Second)
	r.Progress("sweep", 1, 100)   // prints (first)
	r.Progress("sweep", 2, 100)   // suppressed: 1s < 10s
	r.Progress("sweep", 3, 100)   // suppressed
	r.Progress("sweep", 100, 100) // prints (completion)
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("printed %d lines, want 2 (first + completion):\n%s", got, buf.String())
	}
}
