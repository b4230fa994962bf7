package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sei/internal/nn"
	"sei/internal/tensor"
)

// Tracing records spans from the benchmark's own code around its calls
// into each layer: nn (PredictBatchInto, Predict), seicore (the
// design's Predict and PredictBatchSliced, through timedDesign), serve
// (the HTTP handler, through traceHandler) and the benchmark's own
// client requests. Spans stay in memory; the run writes them out when
// it ends.

// span is one call: its interval in nanoseconds since the tracer's
// epoch, the request id linking client and handler spans (0 for the
// rest) and the images it classified.
type span struct {
	start, end int64
	id         int64
	images     int64
}

func (s span) dur() int64 { return s.end - s.start }

// lane collects the spans of one kind of call. Every span is kept for
// the self-time computations; the trace file keeps every sample-th.
type lane struct {
	name   string
	sample int
	mu     sync.Mutex
	spans  []span
}

func (l *lane) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// snapshot copies the lane's spans.
func (l *lane) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// total returns the calls, summed duration and images of the lane.
func (l *lane) total() (calls int, ns int64, images int64) {
	spans := l.snapshot()
	for _, s := range spans {
		ns += s.dur()
		images += s.images
	}
	return len(spans), ns, images
}

// tracer holds one traced phase's lanes. A phase may be measured in
// several slots; wall sums the time they were traced.
type tracer struct {
	phase string
	epoch time.Time
	wall  time.Duration
	ids   atomic.Int64 // last request id handed out
	// nnBatch and nnPredict are the benchmark's nn calls; the engine
	// lanes are the calls nn or serve made into the design; handler and
	// client are the two ends of each HTTP request.
	nnBatch, nnPredict, engineSliced, enginePredict, handler, client lane
}

func newTracer(phase string) *tracer {
	return &tracer{
		phase:         phase,
		epoch:         time.Now(),
		nnBatch:       lane{name: "nn.PredictBatchInto", sample: 1},
		nnPredict:     lane{name: "nn.Predict", sample: 64},
		engineSliced:  lane{name: "seicore.PredictBatchSliced", sample: 1},
		enginePredict: lane{name: "seicore.Predict", sample: 64},
		handler:       lane{name: "serve.Handler", sample: 1},
		client:        lane{name: "seibench.request", sample: 1},
	}
}

func (t *tracer) lanes() []*lane {
	return []*lane{&t.nnBatch, &t.nnPredict, &t.engineSliced, &t.enginePredict, &t.handler, &t.client}
}

// newID returns a request id unique within the tracer.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// since converts a clock reading into the tracer's nanoseconds.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record adds one call from start until now to l.
func (t *tracer) record(l *lane, start time.Time, id, images int64) {
	l.add(span{start: t.since(start), end: t.since(time.Now()), id: id, images: images})
}

// engineTotals sums both engine lanes.
func (t *tracer) engineTotals() (ns int64, images int64) {
	_, sn, si := t.engineSliced.total()
	_, pn, pi := t.enginePredict.total()
	return sn + pn, si + pi
}

// engine is what the benchmark needs of a design: *seicore.SEIDesign
// and its evaluation clones.
type engine interface {
	nn.SlicedBatchPredictor
	CloneForEval(seed int64) nn.Classifier
}

// timedDesign wraps a design so that every call nn or serve makes into
// it is recorded on the current tracer; with no tracer set it forwards
// untimed. It forwards CloneForEval, so noisy designs keep their
// per-chunk noise streams and labels stay bit-identical.
type timedDesign struct {
	d  engine
	tr *atomic.Pointer[tracer]
}

func newTimedDesign(d engine) *timedDesign {
	return &timedDesign{d: d, tr: &atomic.Pointer[tracer]{}}
}

func (t *timedDesign) Predict(img *tensor.Tensor) int {
	tr := t.tr.Load()
	if tr == nil {
		return t.d.Predict(img)
	}
	start := time.Now()
	label := t.d.Predict(img)
	tr.record(&tr.enginePredict, start, 0, 1)
	return label
}

func (t *timedDesign) SlicedBatchEligible() bool { return t.d.SlicedBatchEligible() }

func (t *timedDesign) PredictBatchSliced(imgs []*tensor.Tensor, out []nn.PredictResult) bool {
	tr := t.tr.Load()
	if tr == nil {
		return t.d.PredictBatchSliced(imgs, out)
	}
	start := time.Now()
	ok := t.d.PredictBatchSliced(imgs, out)
	images := int64(0)
	if ok {
		images = int64(len(imgs))
	}
	tr.record(&tr.engineSliced, start, 0, images)
	return ok
}

func (t *timedDesign) CloneForEval(seed int64) nn.Classifier {
	c := t.d.CloneForEval(seed)
	if c == nn.Classifier(t.d) {
		return t
	}
	return &timedDesign{d: c.(engine), tr: t.tr}
}

// traceIDHeader carries the client's request id to the handler span.
const traceIDHeader = "X-Perfbench-Id"

// traceHandler records each request's server-side span while a tracer
// is set.
func traceHandler(next http.Handler, tr *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		id, _ := strconv.ParseInt(r.Header.Get(traceIDHeader), 10, 64)
		t.record(&t.handler, start, id, 0)
	})
}

// offlineShares splits a traced offline phase into self times: nn's
// self time is its call time minus the engine calls nested in it (one
// goroutine, so nesting is strict).
func offlineShares(t *tracer) (nnShare, engineShare float64) {
	_, nnNS, _ := t.nnBatch.total()
	engNS, _ := t.engineTotals()
	if nnNS == 0 {
		return 0, 0
	}
	return float64(nnNS-engNS) / float64(nnNS), float64(engNS) / float64(nnNS)
}

// serveShares splits a traced serve phase into self-time shares of the
// client's request time: the benchmark's own (client and loopback)
// part is request minus handler; the engine part of a handler span is
// the portion of its interval the engine calls cover (the batch that
// served it, or one ahead of it); the rest is serve's self time, which
// includes nn's batch dispatch inside the batcher.
func serveShares(t *tracer) (client, serve, engine float64) {
	sent := map[int64]bool{}
	var clientNS int64
	for _, s := range t.client.snapshot() {
		sent[s.id] = true
		clientNS += s.dur()
	}
	cover := newCoverage(append(t.engineSliced.snapshot(), t.enginePredict.snapshot()...))
	var handlerNS, engineNS int64
	for _, h := range t.handler.snapshot() {
		if !sent[h.id] {
			continue
		}
		handlerNS += h.dur()
		engineNS += cover.overlap(h.start, h.end)
	}
	if clientNS == 0 {
		return 0, 0, 0
	}
	total := float64(clientNS)
	return float64(clientNS-handlerNS) / total, float64(handlerNS-engineNS) / total, float64(engineNS) / total
}

// coverage answers "how much of [s, e) do these intervals cover" over
// merged, sorted intervals with prefix sums.
type coverage struct {
	iv  []span
	cum []int64 // cum[i] is the covered length of iv[:i]
}

func newCoverage(spans []span) coverage {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var merged []span
	for _, s := range spans {
		if n := len(merged); n > 0 && s.start <= merged[n-1].end {
			if s.end > merged[n-1].end {
				merged[n-1].end = s.end
			}
			continue
		}
		merged = append(merged, span{start: s.start, end: s.end})
	}
	cum := make([]int64, len(merged)+1)
	for i, s := range merged {
		cum[i+1] = cum[i] + s.dur()
	}
	return coverage{iv: merged, cum: cum}
}

func (c coverage) overlap(s, e int64) int64 {
	// First interval ending after s, first interval starting at or
	// after e; everything between overlaps, clipped at both ends.
	i := sort.Search(len(c.iv), func(k int) bool { return c.iv[k].end > s })
	j := sort.Search(len(c.iv), func(k int) bool { return c.iv[k].start >= e })
	if i >= j {
		return 0
	}
	n := c.cum[j] - c.cum[i]
	if c.iv[i].start < s {
		n -= s - c.iv[i].start
	}
	if c.iv[j-1].end > e {
		n -= c.iv[j-1].end - e
	}
	return n
}

// writeTrace writes every traced phase: per-lane aggregates (calls,
// total seconds, images) and the kept spans.
func writeTrace(path string, b *bench) error {
	type spanOut struct {
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
		ID      int64   `json:"id,omitempty"`
		Images  int64   `json:"images,omitempty"`
	}
	type laneOut struct {
		Calls  int       `json:"calls"`
		TotalS float64   `json:"total_s"`
		Images int64     `json:"images"`
		Sample int       `json:"kept_every"`
		Spans  []spanOut `json:"spans"`
	}
	type phaseOut struct {
		Phase string              `json:"phase"`
		WallS float64             `json:"wall_s"`
		Lanes map[string]*laneOut `json:"lanes"`
	}
	out := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Phases   []phaseOut `json:"phases"`
	}{Workload: b.w.name, Seed: b.seed}
	for _, t := range b.phases {
		p := phaseOut{Phase: t.phase, WallS: t.wall.Seconds(), Lanes: map[string]*laneOut{}}
		for _, l := range t.lanes() {
			calls, ns, images := l.total()
			if calls == 0 {
				continue
			}
			lo := &laneOut{Calls: calls, TotalS: float64(ns) / 1e9, Images: images, Sample: l.sample}
			spans := l.snapshot()
			for i := 0; i < len(spans); i += l.sample {
				s := spans[i]
				lo.Spans = append(lo.Spans, spanOut{float64(s.start) / 1e3, float64(s.dur()) / 1e3, s.id, s.images})
			}
			p.Lanes[l.name] = lo
		}
		out.Phases = append(out.Phases, p)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
