// Package load is the seeded open-loop arrival schedule perfbench
// sends to the serving stack. Open loop means request i fires at its
// precomputed offset whether or not earlier requests have completed.
// The gaps are exponential at the configured rate (a Poisson process)
// drawn from a seeded RNG, so the offered load is a pure function of
// (Rate, Requests, Seed).
package load

import (
	"math/rand"
	"time"
)

// Config sizes one schedule.
type Config struct {
	// Rate is the offered load in requests per second.
	Rate float64
	// Requests is the number of arrivals.
	Requests int
	// Seed anchors the arrival RNG; equal seeds give equal schedules.
	Seed int64
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
