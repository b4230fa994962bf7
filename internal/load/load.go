// Package load is a deterministic open-loop traffic generator for the
// serving stack. Open loop means the arrival schedule is fixed before
// the run starts: request i fires at its precomputed offset whether or
// not earlier requests have completed, so a slow server faces mounting
// concurrency instead of the coordinated-omission mercy a closed-loop
// (request → wait → request) driver grants it. The schedule itself is
// drawn from a seeded RNG — exponential inter-arrival gaps at the
// configured rate, i.e. a Poisson process — so the *offered load* of a
// run is a pure function of (Rate, Requests, Seed) and two runs
// with the same config stress the server with the same timeline.
//
// Latency is recorded into an obs.Histogram (obs.LatencyBounds()
// buckets, matching the server-side serve_request_seconds histogram)
// and summarized as interpolated p50/p99/p999 via obs quantile
// support. Wall-clock measurement is of course not deterministic —
// only the schedule is.
package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sei/internal/obs"
)

// latencyBounds is obs.LatencyBounds() computed once — Run resolves
// its histogram against this shared slice instead of rebuilding the
// ~63-element bound list per run.
var latencyBounds = obs.LatencyBounds()

// Config sizes one load run.
type Config struct {
	// Rate is the offered load in requests per second (must be > 0).
	Rate float64
	// Requests is the total number of requests in the schedule
	// (must be > 0).
	Requests int
	// Seed anchors the arrival-schedule RNG; equal seeds give equal
	// schedules.
	Seed int64
	// Timeout bounds one request (0 = no per-request timeout beyond
	// the run context).
	Timeout time.Duration
	// MaxInFlight caps concurrently outstanding requests. 0 means
	// unlimited — true open loop. When the cap is hit, further
	// arrivals are counted as dropped rather than delayed (the
	// schedule never slips; dropping preserves open-loop semantics
	// while bounding client resources).
	MaxInFlight int
}

// Validate rejects unusable configs.
func (c Config) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("load: rate %g must be positive", c.Rate)
	}
	if c.Requests <= 0 {
		return fmt.Errorf("load: %d requests must be positive", c.Requests)
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("load: max in-flight %d must be non-negative", c.MaxInFlight)
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	// Sent counts requests actually issued, stamped at issue time (the
	// moment the request goroutine launches, not at completion — an
	// in-flight tail is still "sent"). Errors counts issued requests
	// whose do returned non-nil. Dropped counts arrivals shed by the
	// MaxInFlight cap; Canceled counts arrivals skipped because the
	// run context ended. Sent + Dropped + Canceled == Requests.
	Sent, Errors, Dropped, Canceled int
	// Elapsed is first arrival to last completion.
	Elapsed time.Duration
	// OfferedRate is the configured rate; AchievedRate is successful
	// completions (Sent - Errors) per second of Elapsed — errored
	// requests don't count as achieved throughput.
	OfferedRate, AchievedRate float64
	// P50, P99, P999 are interpolated latency quantiles in seconds
	// over successful requests.
	P50, P99, P999 float64
	// MeanLatency is the arithmetic mean latency in seconds over
	// successful requests.
	MeanLatency float64
	// Latency is the full latency histogram snapshot (successful
	// requests; obs.LatencyBounds() buckets) for report persistence.
	Latency obs.HistogramReport
}

// Schedule returns the deterministic arrival offsets for cfg: Requests
// Poisson arrivals, exponential gaps at Rate from the seeded RNG. The
// first arrival is at offset 0 so short runs are not all warm-up gap.
func Schedule(cfg Config) []time.Duration {
	rng := rand.New(rand.NewSource(cfg.Seed))
	offsets := make([]time.Duration, cfg.Requests)
	t := 0.0
	for i := range offsets {
		offsets[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / cfg.Rate
	}
	return offsets
}

// Run drives do through cfg's arrival schedule and collects latency.
// do must be safe for concurrent use; it receives a context carrying
// the per-request timeout plus the request's schedule index, so a
// caller can vary the request shape deterministically (multi-image
// mixes, per-design routing). Run returns once every issued request
// has completed. Canceling ctx stops issuing new arrivals (counted as
// Canceled) and waits for the in-flight tail.
func Run(ctx context.Context, cfg Config, do func(ctx context.Context, i int) error) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if do == nil {
		return nil, errors.New("load: nil request function")
	}
	rec := obs.New()
	hist := rec.Histogram("load_latency_seconds", latencyBounds)
	var (
		wg       sync.WaitGroup
		failed   atomic.Int64
		inFlight atomic.Int64
	)
	sent, dropped, canceled := 0, 0, 0
	start := time.Now()
	for i, off := range Schedule(cfg) {
		if d := time.Until(start.Add(off)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			canceled++
			continue
		}
		if cfg.MaxInFlight > 0 && inFlight.Load() >= int64(cfg.MaxInFlight) {
			dropped++
			continue
		}
		// Issued: counted here, at launch, not at completion — "sent"
		// must not understate offered pressure while a tail is still
		// in flight.
		sent++
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inFlight.Add(-1)
			rctx := ctx
			if cfg.Timeout > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
				defer cancel()
			}
			t0 := time.Now()
			err := do(rctx, i)
			lat := time.Since(t0).Seconds()
			if err != nil {
				failed.Add(1)
				return
			}
			hist.Observe(lat)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := &Result{
		Sent:        sent,
		Errors:      int(failed.Load()),
		Dropped:     dropped,
		Canceled:    canceled,
		Elapsed:     elapsed,
		OfferedRate: cfg.Rate,
		P50:         hist.Quantile(0.5),
		P99:         hist.Quantile(0.99),
		P999:        hist.Quantile(0.999),
	}
	if n := hist.Count(); n > 0 {
		res.MeanLatency = hist.Sum() / float64(n)
	}
	if elapsed > 0 {
		res.AchievedRate = float64(res.Sent-res.Errors) / elapsed.Seconds()
	}
	res.Latency = rec.Report("").Histograms["load_latency_seconds"]
	return res, nil
}
