// Package obs is the repository's instrumentation layer: hierarchical
// phase spans, typed counters/gauges/histograms for simulator-level
// hardware events, and exporters for text, JSON run reports and
// Prometheus text format. It is zero-dependency (stdlib only) and
// race-safe: counters, gauges and histogram buckets are atomic, the
// span tree is mutex-guarded.
//
// Determinism contract (see DESIGN.md §9): every quantity recorded on a
// hot path is an integer event count whose total depends only on the
// work performed, never on scheduling. Counters incremented from
// parallel chunk bodies use atomic adds, which commute, so their totals
// do not depend on the worker count. Spans call time.Now only in serial orchestration code — never
// inside chunk bodies — so instrumented runs stay bit-identical for
// every worker count; wall time appears only in the report, not in any
// computed result.
//
// A nil *Recorder is valid everywhere and disables everything: every
// method on a nil Recorder (and on the nil Counter/Gauge/Histogram/
// Span/HW values it hands out) is a no-op, so the hot-path cost of
// disabled instrumentation is one nil check per event.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder owns one run's instrumentation state. Create with New; a
// nil Recorder disables all recording at near-zero cost.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	root     *Span
	cur      *Span
	hw       *HW
	progress *progressSink
	start    time.Time
	now      func() time.Time // test hook; defaults to time.Now
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder {
	r := &Recorder{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		now:      time.Now,
	}
	r.start = r.now()
	r.root = &Span{rec: r, Name: "run", start: r.start}
	r.cur = r.root
	r.hw = newHW(r)
	return r
}

// Counter returns the named monotonic counter, creating it on first
// use. A nil recorder returns a nil counter, whose Add is a no-op.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

func (r *Recorder) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named last-value gauge, creating it on first use.
// Gauges are for serial orchestration state (worker count, dataset
// sizes) — they are last-write-wins and must not be set from chunk
// bodies.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bucket bounds on first use (an implicit +Inf bucket
// is appended). Later calls ignore bounds and return the existing
// histogram.
func (r *Recorder) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HW returns the pre-resolved hardware-event counter bundle, so hot
// paths pay a single nil check per event instead of a map lookup. A
// nil recorder returns a nil bundle, whose methods are no-ops.
func (r *Recorder) HW() *HW {
	if r == nil {
		return nil
	}
	return r.hw
}

// CounterValues snapshots every counter. The determinism tests compare
// these maps across worker counts.
func (r *Recorder) CounterValues() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// sortedNames returns map keys in deterministic order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonic event counter. Add is atomic: increments from
// parallel chunk bodies commute, so the total is identical for every
// worker count. A nil Counter ignores Add.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins value, set only from serial orchestration
// code. A nil Gauge ignores Set.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
