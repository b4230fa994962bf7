package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBounds returns the default latency bucket upper bounds in
// seconds: 50 µs growing by 25 % per bucket up to one minute (~63
// buckets), fine enough that interpolated p50/p99/p999 land within a
// bucket ratio of the exact order statistics. The serving request
// histogram uses them.
func LatencyBounds() []float64 {
	var b []float64
	for v := 50e-6; v < 60; v *= 1.25 {
		b = append(b, v)
	}
	return b
}

// Histogram is a fixed-boundary distribution of observed values.
// Bucket counts are atomic integers: observations from parallel chunk
// bodies commute, so bucket totals are identical for every worker
// count. The running sum is exact for integer-valued observations
// (which is all the simulator records — event counts per operation).
// A nil Histogram ignores Observe.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf appended
	counts []atomic.Int64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(b) {
		panic(fmt.Sprintf("obs: histogram bounds %v are not ascending", bounds))
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value into the first bucket whose upper bound is
// ≥ v (the final bucket is +Inf).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Bounds returns the configured upper bounds (without the implicit
// +Inf bucket).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Counts returns the per-bucket counts; the final entry is the +Inf
// bucket.
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for _, c := range h.Counts() {
		total += c
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// Quantile returns the q-th quantile (q in [0,1]) of the observed
// distribution, estimated by linear interpolation inside the bucket
// holding the target rank — the same estimator Prometheus's
// histogram_quantile applies server-side, computed here from the exact
// bucket counts so every caller (load generator, bench reports, tests)
// gets one deterministic number. Values in the +Inf bucket clamp to
// the largest finite bound. Returns NaN for an empty histogram or a q
// outside [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	return quantile(h.bounds, h.Counts(), q)
}

// quantile is the shared bucket-interpolation estimator behind
// Histogram.Quantile and HistogramReport.Quantile. counts has one
// entry per bound plus the final +Inf bucket.
func quantile(bounds []float64, counts []int64, q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 || len(counts) == 0 {
		return math.NaN()
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cumPrev float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum := cumPrev + float64(c)
		if cum >= rank {
			if i >= len(bounds) {
				// +Inf bucket: clamp to the largest finite bound (0 when
				// every bound is +Inf-bucketed away).
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			hi := bounds[i]
			lo := 0.0
			switch {
			case i > 0:
				lo = bounds[i-1]
			case hi <= 0:
				// Unknowable lower edge of a non-positive first bucket:
				// report the bound itself, as histogram_quantile does.
				return hi
			}
			frac := (rank - cumPrev) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cumPrev = cum
	}
	// Unreachable: the cumulative count reaches total ≥ rank.
	return math.NaN()
}

// atomicFloat is a float64 accumulated with a CAS loop. Addition of
// the integer-valued observations the simulator records is exact and
// therefore commutative, keeping sums worker-count independent.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }
