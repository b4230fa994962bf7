package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
)

// Typed rejection errors. Handlers map them onto HTTP status codes
// (413, 429 and 503); match with errors.Is.
var (
	// ErrQueueFull is backpressure: the bounded queue cannot hold the
	// whole request and it was rejected up front rather than buffered
	// unboundedly or admitted piecemeal.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrBatchTooLarge marks a request with more images than the queue
	// can ever hold — it would be rejected even against an empty queue,
	// so the client must split it.
	ErrBatchTooLarge = errors.New("serve: request exceeds queue capacity")
	// ErrDeadlineTooTight is deadline-aware load shedding: the
	// request's remaining deadline is already below the observed flush
	// latency, so queueing it would only burn a slot on a guaranteed
	// timeout.
	ErrDeadlineTooTight = errors.New("serve: deadline below observed flush latency")
	// ErrDraining marks predicts submitted after Close began.
	ErrDraining = errors.New("serve: draining")
)

// Metric names the batcher feeds (scraped through /metrics). The
// engine-level eval_images / predict_panics counters from internal/nn
// appear alongside these when the same Recorder is shared.
const (
	MetricBatches      = "serve_batches"
	MetricPredicts     = "serve_predicts"
	MetricQueueFull    = "serve_queue_full"
	MetricCanceled     = "serve_canceled"
	MetricBatchSize    = "serve_batch_size"
	MetricDeadlineShed = "serve_deadline_shed"
)

var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// BatcherConfig sizes the micro-batcher.
type BatcherConfig struct {
	// MaxBatch is the most images coalesced into one engine call.
	MaxBatch int
	// MaxDelay is ignored: a batch never waits for company. It stays
	// only until the serving benchmark stops setting it.
	MaxDelay time.Duration
	// QueueCap bounds the pending-predict queue. A full queue rejects
	// with ErrQueueFull instead of buffering without limit.
	QueueCap int
	// Workers bounds the parallel engine per flush (0 = all cores,
	// 1 = serial); labels are identical for any value.
	Workers int
	// Obs receives batcher and engine counters; nil disables recording.
	Obs *obs.Recorder
}

// DefaultBatcherConfig returns serving defaults: batches of up to 64,
// a 256-deep queue, all cores.
func DefaultBatcherConfig() BatcherConfig {
	return BatcherConfig{MaxBatch: 64, QueueCap: 256}
}

// job is one image's passage through the batcher. res is buffered so
// a flush never blocks on a caller that stopped listening.
type job struct {
	c   nn.Classifier
	img *tensor.Tensor
	ctx context.Context
	res chan nn.PredictResult
}

// Batcher coalesces concurrent predicts into bounded batches and runs
// each batch on the deterministic parallel engine. Because the engine
// validates, chunks and seeds a served batch exactly as the offline
// evaluation path does, serving returns bit-identical labels to
// EvaluateDesign for any batch composition and worker count.
//
// Classifiers submitted to one batch are grouped by identity, so they
// must be comparable (the pipeline's classifiers are all pointers).
type Batcher struct {
	cfg   BatcherConfig
	queue chan *job
	done  chan struct{}

	// scr holds the coalescing loop's flush scratch — batch, group,
	// image and result buffers reused across flushes so steady-state
	// serving does not allocate per batch. Touched only by the loop
	// goroutine; pointer slots are cleared after every flush so a
	// drained batch's jobs and images are not retained.
	scr flushScratch

	// flushNanos is an EWMA of recent flush wall times, feeding the
	// deadline-aware admission estimate. 0 until the first flush.
	flushNanos atomic.Int64

	mu     sync.Mutex
	closed bool
}

// group is one classifier's share of a batch.
type group struct {
	c    nn.Classifier
	jobs []*job
}

// flushScratch is the loop's reusable flush state.
type flushScratch struct {
	batch  []*job
	groups []group
	imgs   []*tensor.Tensor
	res    []nn.PredictResult
}

// NewBatcher validates the config, applies defaults for zero fields
// and starts the coalescing loop.
func NewBatcher(cfg BatcherConfig) (*Batcher, error) {
	if err := par.Validate(cfg.Workers); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	def := DefaultBatcherConfig()
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = def.QueueCap
	}
	b := &Batcher{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueCap),
		done:  make(chan struct{}),
	}
	go b.loop()
	return b, nil
}

// QueueDepth reports how many predicts are waiting (for health
// reporting; inherently racy).
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// Draining reports whether Close has begun.
func (b *Batcher) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Close stops accepting predicts, drains everything already queued
// and waits for the loop to finish. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	<-b.done
}

// submitAll enqueues a request's jobs all-or-nothing. The mutex
// serializes senders against each other, against Close and against the
// loop's gather, so the free-slot check cannot be invalidated by a
// concurrent sender (the loop only drains, which frees more room), a
// drain can never race a send on the closed channel, and a batch never
// takes part of a request that is still being queued. Rejecting up
// front instead of admitting image-by-image is what keeps a doomed
// request from leaking its prefix into the queue: those jobs would
// flush as canceled, inflate serve_canceled and burn slots other
// clients were rejected for.
func (b *Batcher) submitAll(jobs []*job) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrDraining
	}
	if len(jobs) > cap(b.queue) {
		return fmt.Errorf("%w: %d images against a queue of %d", ErrBatchTooLarge, len(jobs), cap(b.queue))
	}
	if len(jobs) > cap(b.queue)-len(b.queue) {
		b.cfg.Obs.Counter(MetricQueueFull).Add(1)
		return ErrQueueFull
	}
	for _, j := range jobs {
		b.queue <- j
	}
	return nil
}

// FlushLatency reports the EWMA of recent flush wall times (0 before
// the first flush), the basis of deadline-aware admission.
func (b *Batcher) FlushLatency() time.Duration {
	return time.Duration(b.flushNanos.Load())
}

// observeFlush folds one flush duration into the EWMA (¾ old, ¼ new —
// reactive enough to track a load shift within a few flushes, smooth
// enough that one outlier does not start shedding).
func (b *Batcher) observeFlush(d time.Duration) {
	for {
		old := b.flushNanos.Load()
		next := int64(d)
		if old != 0 {
			next = (3*old + int64(d)) / 4
		}
		if b.flushNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// admissionEstimate predicts how long a request submitted now waits
// before its results exist: one flush per MaxBatch-sized chunk already
// queued ahead of it, plus its own flush. 0 when no flush has been
// observed yet (admit optimistically until there is data).
func (b *Batcher) admissionEstimate() time.Duration {
	flush := time.Duration(b.flushNanos.Load())
	if flush == 0 {
		return 0
	}
	return flush * time.Duration(1+len(b.queue)/b.cfg.MaxBatch)
}

// Predict classifies imgs against c through the batcher, returning one
// result per image in order. The whole request is admitted or rejected
// atomically: ErrBatchTooLarge when it can never fit, ErrQueueFull
// when the queue lacks room now, ErrDeadlineTooTight when the caller's
// remaining deadline is below the observed flush latency (shedding at
// the door instead of wasting a slot on a guaranteed timeout), and
// ErrDraining after Close. It abandons with ctx.Err() when the context
// ends first; queued-but-unprocessed images of an abandoned request
// are skipped at flush time.
func (b *Batcher) Predict(ctx context.Context, c nn.Classifier, imgs []*tensor.Tensor) ([]nn.PredictResult, error) {
	if dl, ok := ctx.Deadline(); ok {
		if est := b.admissionEstimate(); est > 0 && time.Until(dl) < est {
			b.cfg.Obs.Counter(MetricDeadlineShed).Add(1)
			return nil, fmt.Errorf("%w: %v remaining, ~%v to flush", ErrDeadlineTooTight, time.Until(dl).Round(time.Millisecond), est.Round(time.Millisecond))
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make([]*job, len(imgs))
	for i, img := range imgs {
		jobs[i] = &job{c: c, img: img, ctx: ctx, res: make(chan nn.PredictResult, 1)}
	}
	if err := b.submitAll(jobs); err != nil {
		return nil, err
	}
	out := make([]nn.PredictResult, len(jobs))
	for i, j := range jobs {
		select {
		case r := <-j.res:
			out[i] = r
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// loop flushes batches back to back. A batch is the first queued job
// and whatever queued behind it, up to MaxBatch, taken without waiting
// for more: an idle engine starts at once, and the jobs that arrive
// during a flush form the next batch. Exits when the queue is closed
// and drained.
func (b *Batcher) loop() {
	defer close(b.done)
	for j := range b.queue {
		batch := append(b.scr.batch[:0], j)
		// submitAll queues a request's jobs under mu, so a request still
		// being queued is seen whole here, never split by the race.
		b.mu.Lock()
	gather:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case next, ok := <-b.queue:
				if !ok {
					break gather
				}
				batch = append(batch, next)
			default:
				break gather
			}
		}
		b.mu.Unlock()
		b.scr.batch = batch
		t0 := time.Now()
		b.flush(batch)
		b.observeFlush(time.Since(t0))
		b.scr.clear()
	}
}

// flush groups a batch by classifier and runs each group through the
// engine. Per-image panics are already contained inside the engine
// (nn.PredictBatchObs); the recover here is the last line of defense
// keeping the loop alive if the batcher's own bookkeeping fails.
func (b *Batcher) flush(batch []*job) {
	defer func() {
		if r := recover(); r != nil {
			for _, j := range batch {
				select {
				case j.res <- nn.PredictResult{Label: -1, Err: fmt.Errorf("%w: internal failure: %v", nn.ErrBadInput, r)}:
				default:
				}
			}
		}
	}()
	b.cfg.Obs.Counter(MetricBatches).Add(1)
	b.cfg.Obs.Histogram(MetricBatchSize, batchSizeBounds).Observe(float64(len(batch)))
	groups := b.scr.groups[:0]
next:
	for _, j := range batch {
		if j.ctx != nil && j.ctx.Err() != nil {
			b.cfg.Obs.Counter(MetricCanceled).Add(1)
			j.res <- nn.PredictResult{Label: -1, Err: j.ctx.Err()}
			continue
		}
		for gi := range groups {
			if groups[gi].c == j.c {
				groups[gi].jobs = append(groups[gi].jobs, j)
				continue next
			}
		}
		// Reuse the retired group slot's jobs buffer when one exists.
		if n := len(groups); n < cap(groups) {
			groups = groups[:n+1]
			groups[n].c = j.c
			groups[n].jobs = append(groups[n].jobs[:0], j)
		} else {
			groups = append(groups, group{c: j.c, jobs: []*job{j}})
		}
	}
	b.scr.groups = groups
	for gi := range groups {
		g := &groups[gi]
		imgs := b.scr.imgs[:0]
		for _, j := range g.jobs {
			imgs = append(imgs, j.img)
		}
		b.scr.imgs = imgs
		res := nn.PredictBatchInto(b.cfg.Obs, g.c, imgs, b.cfg.Workers, b.scr.res)
		b.scr.res = res
		b.cfg.Obs.Counter(MetricPredicts).Add(int64(len(res)))
		for i, j := range g.jobs {
			j.res <- res[i]
		}
	}
}

// clear drops every pointer the last flush parked in the scratch so
// finished jobs, their images and their errors become collectable; the
// backing arrays themselves are kept for the next flush.
func (s *flushScratch) clear() {
	for i := range s.batch {
		s.batch[i] = nil
	}
	s.batch = s.batch[:0]
	for gi := range s.groups {
		g := &s.groups[gi]
		g.c = nil
		for i := range g.jobs {
			g.jobs[i] = nil
		}
		g.jobs = g.jobs[:0]
	}
	s.groups = s.groups[:0]
	for i := range s.imgs {
		s.imgs[i] = nil
	}
	s.imgs = s.imgs[:0]
	for i := range s.res {
		s.res[i] = nn.PredictResult{}
	}
}
