package load

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

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

func TestRunRecordsLatencyQuantiles(t *testing.T) {
	cfg := Config{Rate: 2000, Requests: 200, Seed: 1}
	res, err := Run(context.Background(), cfg, func(context.Context, int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 200 || res.Errors != 0 || res.Dropped != 0 || res.Canceled != 0 {
		t.Fatalf("sent/errors/dropped/canceled = %d/%d/%d/%d, want 200/0/0/0",
			res.Sent, res.Errors, res.Dropped, res.Canceled)
	}
	if res.Latency.Count != 200 {
		t.Fatalf("latency histogram count = %d, want 200", res.Latency.Count)
	}
	for name, q := range map[string]float64{"p50": res.P50, "p99": res.P99, "p999": res.P999} {
		if math.IsNaN(q) || q < 0.0005 || q > 1 {
			t.Errorf("%s = %g, want ≈1ms-scale latency", name, q)
		}
	}
	if res.P50 > res.P99 || res.P99 > res.P999 {
		t.Errorf("quantiles not monotone: p50 %g, p99 %g, p999 %g", res.P50, res.P99, res.P999)
	}
	if res.MeanLatency < 0.0005 || res.MeanLatency > 0.5 {
		t.Errorf("mean latency = %g, want ≈1ms", res.MeanLatency)
	}
	if res.AchievedRate <= 0 {
		t.Errorf("achieved rate = %g, want > 0", res.AchievedRate)
	}
	// Snapshot and live quantiles agree: reports can re-derive them.
	if got := res.Latency.Quantile(0.99); got != res.P99 {
		t.Errorf("snapshot p99 %g != run p99 %g", got, res.P99)
	}
}

// TestRunAchievedRateExcludesErrors is the regression test for the
// AchievedRate accounting: only successful completions count as
// achieved throughput, and Sent still counts every issued request.
func TestRunAchievedRateExcludesErrors(t *testing.T) {
	var n atomic.Int64
	cfg := Config{Rate: 5000, Requests: 100, Seed: 2}
	res, err := Run(context.Background(), cfg, func(context.Context, int) error {
		if n.Add(1)%2 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 100 || res.Errors != 50 {
		t.Fatalf("sent/errors = %d/%d, want 100/50", res.Sent, res.Errors)
	}
	if res.Latency.Count != 50 {
		t.Fatalf("histogram count = %d, want 50 (errors excluded)", res.Latency.Count)
	}
	want := float64(res.Sent-res.Errors) / res.Elapsed.Seconds()
	if res.AchievedRate != want {
		t.Fatalf("achieved rate %g, want successes/elapsed = %g", res.AchievedRate, want)
	}
	// Sanity: a 50%-error run must achieve roughly half its issue rate.
	issueRate := float64(res.Sent) / res.Elapsed.Seconds()
	if res.AchievedRate > 0.6*issueRate {
		t.Errorf("achieved rate %g vs issue rate %g: errors not excluded", res.AchievedRate, issueRate)
	}
}

// TestRunCountsSentAtIssueTime is the regression test for the Sent
// accounting: requests still in flight are already "sent" — the doc
// says "requests actually issued", not "completed".
func TestRunCountsSentAtIssueTime(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	cfg := Config{Rate: 100000, Requests: 8, Seed: 5}
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(context.Background(), cfg, func(context.Context, int) error {
			started <- struct{}{}
			<-release // every request is in flight, none completed
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	for i := 0; i < 8; i++ {
		<-started // all 8 issued while all 8 are incomplete
	}
	close(release)
	res := <-done
	if res == nil {
		t.Fatal("run failed")
	}
	if res.Sent != 8 || res.Errors != 0 {
		t.Fatalf("sent/errors = %d/%d, want 8/0", res.Sent, res.Errors)
	}
}

func TestRunMaxInFlightDropsInsteadOfDelaying(t *testing.T) {
	block := make(chan struct{})
	cfg := Config{Rate: 100000, Requests: 50, Seed: 3, MaxInFlight: 4}
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(context.Background(), cfg, func(context.Context, int) error {
			<-block
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(50 * time.Millisecond) // let the schedule drain into the cap
	close(block)
	res := <-done
	if res == nil {
		t.Fatal("run failed")
	}
	if res.Sent+res.Dropped != 50 {
		t.Fatalf("sent %d + dropped %d != 50", res.Sent, res.Dropped)
	}
	if res.Dropped == 0 {
		t.Error("expected drops with 4 in-flight slots against a blocked server")
	}
	if res.Canceled != 0 {
		t.Errorf("canceled = %d, want 0 (nothing canceled the run)", res.Canceled)
	}
}

// TestRunContextCancelCountsCanceledNotDropped pins the split between
// the two shedding causes: a canceled run context must not masquerade
// as MaxInFlight pressure.
func TestRunContextCancelCountsCanceledNotDropped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{Rate: 100, Requests: 100, Seed: 4, MaxInFlight: 64} // ~1s schedule
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := Run(ctx, cfg, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Canceled == 0 {
		t.Error("expected canceled tail to be counted as Canceled")
	}
	if res.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (cap never hit; cancellation is not MaxInFlight pressure)", res.Dropped)
	}
	if res.Sent+res.Dropped+res.Canceled != 100 {
		t.Fatalf("sent %d + dropped %d + canceled %d != 100", res.Sent, res.Dropped, res.Canceled)
	}
}

// TestRunPassesScheduleIndex pins that do receives each request's
// schedule index exactly once — the hook request mixes key off.
func TestRunPassesScheduleIndex(t *testing.T) {
	seen := make([]atomic.Int64, 40)
	cfg := Config{Rate: 100000, Requests: 40, Seed: 6}
	res, err := Run(context.Background(), cfg, func(_ context.Context, i int) error {
		seen[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 40 {
		t.Fatalf("sent = %d, want 40", res.Sent)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d seen %d times, want 1", i, got)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{Rate: 0, Requests: 10},
		{Rate: -1, Requests: 10},
		{Rate: 100, Requests: 0},
		{Rate: 100, Requests: 10, MaxInFlight: -1},
	} {
		if _, err := Run(context.Background(), cfg, func(context.Context, int) error { return nil }); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	if _, err := Run(context.Background(), Config{Rate: 1, Requests: 1}, nil); err == nil {
		t.Error("nil do accepted, want error")
	}
}
