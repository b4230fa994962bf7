package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sei/internal/obs"
	"sei/internal/tensor"
)

// slowClassifier burns a fixed wall time per image — a stand-in for an
// expensive design in saturation tests.
type slowClassifier struct{ perImage time.Duration }

func (s *slowClassifier) Predict(*tensor.Tensor) int {
	time.Sleep(s.perImage)
	return 0
}

// TestBatcherPartialSubmitNoLeak is the regression test for the
// partial-submit leak: a request that cannot fit whole must leave the
// queue untouched — no prefix of its jobs admitted, none of them later
// counted as canceled, no slots burned that other clients were
// rejected for.
func TestBatcherPartialSubmitNoLeak(t *testing.T) {
	f := getFastFixture(t)
	gate := &gatedClassifier{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	rec := obs.New()
	b, err := NewBatcher(BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, QueueCap: 4, Workers: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Hold the loop in a flush, then park two single-image predicts in
	// the queue: 2 of 4 slots free.
	results := make(chan error, 3)
	go func() {
		_, err := b.Predict(context.Background(), gate, []*tensor.Tensor{f.data.Images[0]})
		results <- err
	}()
	<-gate.entered
	for i := 1; i <= 2; i++ {
		img := f.data.Images[i]
		go func() {
			_, err := b.Predict(context.Background(), gate, []*tensor.Tensor{img})
			results <- err
		}()
	}
	waitFor(t, func() bool { return b.QueueDepth() == 2 })

	// Three images against two free slots: rejected whole.
	_, err = b.Predict(context.Background(), gate, f.data.Images[3:6])
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized-for-now submit error = %v, want ErrQueueFull", err)
	}
	if got := b.QueueDepth(); got != 2 {
		t.Fatalf("queue depth after rejection = %d, want 2 (rejected request leaked a prefix)", got)
	}
	if got := rec.CounterValues()[MetricQueueFull]; got != 1 {
		t.Fatalf("serve_queue_full = %d, want 1", got)
	}

	close(gate.gate)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("surviving predict %d failed: %v", i, err)
		}
	}
	// The leak's tell was phantom cancellations: jobs from the rejected
	// request flushing as canceled. None may exist.
	if got := rec.CounterValues()[MetricCanceled]; got != 0 {
		t.Fatalf("serve_canceled = %d, want 0 (rejected request's jobs reached the queue)", got)
	}
}

// TestBatchLargerThanQueueRejectedUpFront pins ErrBatchTooLarge: a
// request that can never fit fails immediately — even against an empty
// queue — and maps to HTTP 413, distinct from 429 backpressure.
func TestBatchLargerThanQueueRejectedUpFront(t *testing.T) {
	f := getFastFixture(t)
	rec := obs.New()
	b, err := NewBatcher(BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond, QueueCap: 2, Workers: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, err = b.Predict(context.Background(), constClassifier(1), f.data.Images[:3])
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("3 images vs queue of 2: err = %v, want ErrBatchTooLarge", err)
	}
	if got := b.QueueDepth(); got != 0 {
		t.Fatalf("queue depth = %d, want 0", got)
	}
	// Too-large is not backpressure: the queue-full counter stays 0.
	if got := rec.CounterValues()[MetricQueueFull]; got != 0 {
		t.Fatalf("serve_queue_full = %d, want 0 for ErrBatchTooLarge", got)
	}

	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	ts, _ := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond, QueueCap: 2, Workers: 1},
		Options{})
	status, _, err := doPredict(ts.URL, "demo", f.data.Images[:3])
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP status = %d, want 413", status)
	}
}

// TestFlushLatencyEWMA pins the admission estimator's arithmetic: the
// first observation seeds the EWMA, later ones fold in at ¼ weight.
func TestFlushLatencyEWMA(t *testing.T) {
	b, err := NewBatcher(BatcherConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.FlushLatency(); got != 0 {
		t.Fatalf("initial flush latency = %v, want 0", got)
	}
	b.observeFlush(100 * time.Millisecond)
	if got := b.FlushLatency(); got != 100*time.Millisecond {
		t.Fatalf("after first flush = %v, want 100ms", got)
	}
	b.observeFlush(200 * time.Millisecond)
	if got := b.FlushLatency(); got != 125*time.Millisecond {
		t.Fatalf("after second flush = %v, want 125ms ((3·100+200)/4)", got)
	}
}

// TestDeadlineShedding pins deadline-aware admission: once the
// observed flush latency exceeds a request's remaining deadline, the
// request is shed at the door with ErrDeadlineTooTight (HTTP 429)
// instead of burning a queue slot on a guaranteed timeout.
func TestDeadlineShedding(t *testing.T) {
	f := getFastFixture(t)
	rec := obs.New()
	b, err := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Pretend flushes have been taking half a second.
	b.flushNanos.Store(int64(500 * time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = b.Predict(ctx, f.net, f.data.Images[:1])
	if !errors.Is(err, ErrDeadlineTooTight) {
		t.Fatalf("50ms deadline vs 500ms flush: err = %v, want ErrDeadlineTooTight", err)
	}
	if got := rec.CounterValues()[MetricDeadlineShed]; got != 1 {
		t.Fatalf("serve_deadline_shed = %d, want 1", got)
	}
	// A deadline with headroom — and a deadline-free request — still
	// pass admission.
	roomy, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := b.Predict(roomy, f.net, f.data.Images[:1]); err != nil {
		t.Fatalf("roomy deadline rejected: %v", err)
	}
	if _, err := b.Predict(context.Background(), f.net, f.data.Images[:1]); err != nil {
		t.Fatalf("deadline-free request rejected: %v", err)
	}
	if got := rec.CounterValues()[MetricDeadlineShed]; got != 1 {
		t.Fatalf("serve_deadline_shed = %d after admitted requests, want still 1", got)
	}
}

// TestServeDeadlineShedHTTP drives the shed through the HTTP surface:
// server timeout far below the observed flush latency answers 429.
func TestServeDeadlineShedHTTP(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	rec := obs.New()
	ts, p := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1, Obs: rec},
		Options{Obs: rec, Timeout: 20 * time.Millisecond})
	// Materialize the design's batcher and poison its flush EWMA.
	batcherFor(t, p, "demo").flushNanos.Store(int64(10 * time.Second))

	status, _, err := doPredict(ts.URL, "demo", f.data.Images[:1])
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("shed predict status = %d, want 429", status)
	}
	if got := rec.CounterValues()[MetricDeadlineShed]; got != 1 {
		t.Fatalf("serve_deadline_shed = %d, want 1", got)
	}
}

// TestRecordLatencyZeroAllocs pins the histogram-bookkeeping hoist:
// steady-state per-request recording of the request, decode, batch
// and encode latencies must not allocate (the bounds slice and histograms are
// resolved once at construction).
func TestRecordLatencyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rec := obs.New()
	bounds := obs.LatencyBounds()
	s := &server{
		latency: rec.Histogram(MetricRequestSeconds, bounds),
		decode:  rec.Histogram(MetricDecodeSeconds, bounds),
		batch:   rec.Histogram(MetricBatchSeconds, bounds),
		encode:  rec.Histogram(MetricEncodeSeconds, bounds),
	}
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		observeSince(s.latency, start)
		observeSince(s.decode, start)
		observeSince(s.batch, start)
		observeSince(s.encode, start)
	})
	if allocs != 0 {
		t.Fatalf("latency recording allocates %.1f per request, want 0", allocs)
	}
}

// TestServeSaturationColdDesignUnaffected is the cross-design
// starvation test: one design driven past its capacity must shed on
// its own queue while a second, cheap design keeps answering with zero
// errors and sane latency — the per-design pool means there is no
// shared queue for the hot design to fill.
func TestServeSaturationColdDesignUnaffected(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	// Hot design: ~2ms per image, MaxBatch 8, serial → ≈500 images/s
	// capacity. Cold design: the fast fixture network.
	reg.Register("hot", &slowClassifier{perImage: 2 * time.Millisecond})
	reg.Register("cold", f.net)
	rec := obs.New()
	ts, _ := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond, QueueCap: 16, Workers: 1, Obs: rec},
		Options{Obs: rec})

	// Hot stream: 64 closed-loop clients × 5 single-image predicts.
	// 64 outstanding requests exceed the queue (16) plus one batch in
	// flight (8), so the hot queue must overflow.
	const hotClients, hotPerClient = 64, 5
	var hotFailed atomic.Int64
	var hot sync.WaitGroup
	for c := 0; c < hotClients; c++ {
		hot.Add(1)
		go func() {
			defer hot.Done()
			for i := 0; i < hotPerClient; i++ {
				status, _, err := doPredict(ts.URL, "hot", f.data.Images[:1])
				if err != nil || status != http.StatusOK {
					hotFailed.Add(1)
				}
			}
		}()
	}

	// Meanwhile the cold design answers a steady trickle; every request
	// must succeed promptly.
	var coldMax time.Duration
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		status, pr, err := doPredict(ts.URL, "cold", f.data.Images[i:i+1])
		if err != nil {
			t.Fatalf("cold request %d: %v", i, err)
		}
		if status != http.StatusOK || pr.Results[0].Error != "" {
			t.Fatalf("cold request %d starved: status %d, results %+v", i, status, pr.Results)
		}
		if d := time.Since(t0); d > coldMax {
			coldMax = d
		}
		time.Sleep(2 * time.Millisecond)
	}
	hot.Wait()

	// The hot design must actually have been saturated (shed load), or
	// the test proved nothing.
	if hotFailed.Load() == 0 {
		t.Fatalf("hot design shed nothing with %d concurrent clients: saturation never happened", hotClients)
	}
	if rec.CounterValues()[MetricQueueFull] == 0 {
		t.Fatal("serve_queue_full = 0 under saturation")
	}
	// Generous bound — the point is "not starved behind the hot queue",
	// not a latency SLO: a cold predict is microseconds of work, so even
	// a loaded CI box clears 2 s unless it queued behind hot flushes.
	if coldMax > 2*time.Second {
		t.Fatalf("cold design worst latency %v under hot saturation, want < 2s", coldMax)
	}
}

// TestPoolShardsPerDesign pins the pool surface itself: one batcher
// per design, lock-free repeat lookups returning the same instance,
// removal tearing the queue down, and close draining everything.
func TestPoolShardsPerDesign(t *testing.T) {
	p, err := NewPool(BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond, QueueCap: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.For("a")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := p.For("b")
	if err != nil {
		t.Fatal(err)
	}
	if a1 == b1 {
		t.Fatal("two designs share one batcher")
	}
	a2, err := p.For("a")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("repeat lookup built a second batcher")
	}
	if got := p.Size(); got != 2 {
		t.Fatalf("pool size = %d, want 2", got)
	}
	// Concurrent lookups of one new name converge on one batcher.
	const callers = 8
	got := make([]*Batcher, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := p.For("c")
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent For(\"c\") built distinct batchers")
		}
	}
	p.Remove("a")
	if got := p.Size(); got != 2 {
		t.Fatalf("pool size after remove = %d, want 2", got)
	}
	if _, err := a1.Predict(context.Background(), constClassifier(1), []*tensor.Tensor{tensor.New(1, 1, 1)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("removed design's batcher still accepts: err = %v, want ErrDraining", err)
	}
	// A removed name can come back (re-publish after retire).
	a3, err := p.For("a")
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Fatal("revived design reused the closed batcher")
	}
	p.Close()
	if !p.Draining() {
		t.Fatal("pool not draining after Close")
	}
	if _, err := p.For("d"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close For error = %v, want ErrDraining", err)
	}
}
