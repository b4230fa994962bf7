package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sei/internal/load"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/seicore"
	"sei/internal/serve"
)

// Serve workload shape: the 1/8/64-image request mix, bodiesPerSize
// distinct pre-encoded bodies of each size, the open-loop base rate
// that latency is measured at, the ladder of rates serve.max_rps
// climbs, and its latency limit. At 200 rps the two senders are ~45%
// busy and queue behind 64-image requests, which tripled the run-to-run
// spread of p50 on a 2-vCPU host; at 100 rps the p50 spread was 3%.
const (
	serveDesign   = "bench"
	bodiesPerSize = 16
	baseRate      = 100.0
	ladderLimitMS = 40.0
	// requestTimeout bounds one request; a failed request counts as
	// taking this long in the latency percentiles.
	requestTimeout = 10 * time.Second
)

var (
	serveMixSizes = []int{1, 8, 64}
	ladderRates   = []float64{200, 300, 400}
)

// mixSize is request i's image count: every 20th carries 64 images,
// every 5th (otherwise) 8, the rest 1.
func mixSize(i int) int {
	switch {
	case i%20 == 19:
		return 64
	case i%5 == 4:
		return 8
	default:
		return 1
	}
}

// body is one pre-encoded request and the response it must get.
type body struct {
	images int
	data   []byte
	labels []int  // offline labels of its images
	want   []byte // the response the check pass verified
}

// serveStack is the real serving stack on loopback: registry, per-
// design batcher pool and HTTP handler, with one engine worker.
type serveStack struct {
	rec  *obs.Recorder
	pool *serve.Pool
	ts   *httptest.Server
	td   *timedDesign // traced runs only
}

func newServeStack(d *seicore.SEIDesign, traced bool) (*serveStack, error) {
	st := &serveStack{rec: obs.New()}
	var c nn.Classifier = d
	if traced {
		st.td = newTimedDesign(d)
		c = st.td
	}
	reg := serve.NewRegistry("", fixtureSeed)
	reg.Register(serveDesign, c)
	pool, err := serve.NewPool(serve.BatcherConfig{
		MaxBatch: 64,
		MaxDelay: 2 * time.Millisecond,
		QueueCap: 256,
		Workers:  1,
		Obs:      st.rec,
	})
	if err != nil {
		return nil, err
	}
	st.pool = pool
	var h http.Handler = serve.NewHandler(serve.Options{Registry: reg, Pool: pool, Obs: st.rec})
	if traced {
		h = traceHandler(h, st.td.tr)
	}
	st.ts = httptest.NewServer(h)
	return st, nil
}

func (st *serveStack) close() {
	st.ts.Close()
	st.pool.Close()
}

// setTracer starts (t non-nil) or stops recording engine and handler
// spans.
func (st *serveStack) setTracer(t *tracer) {
	if st.td != nil {
		st.td.tr.Store(t)
	}
}

// client is one sender with its own connection.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url: url + "/v1/predict",
	}
}

// post sends one body and returns the status and the response bytes,
// valid until the next post. id > 0 tags the request for the trace.
func (c *client) post(data []byte, id int64) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id > 0 {
		req.Header.Set(traceIDHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, c.buf.Bytes(), err
}

// sendResult counts a phase's requests.
type sendResult struct {
	attempted, failed, wrong atomic.Int64
}

// send posts b and checks the response against the verified one.
// Returns whether the request succeeded.
func (c *client) send(bd *body, id int64, r *sendResult) bool {
	r.attempted.Add(1)
	status, resp, err := c.post(bd.data, id)
	switch {
	case err != nil || status != http.StatusOK:
		r.failed.Add(1)
		return false
	case !bytes.Equal(resp, bd.want):
		r.wrong.Add(1)
	}
	return true
}

// account folds a phase's request counts into the run's result.
func (b *bench) account(r *sendResult) {
	b.res.attempted += r.attempted.Load()
	b.res.failed += r.failed.Load()
	if n := r.wrong.Load(); n > 0 {
		b.res.fail(b.log, "%d responses differ from the verified ones", n)
	}
}

// runServe sets up the design behind the serving stack, checks served
// against offline labels for every body, then times open-loop segments
// at the base rate.
func (b *bench) runServe(raw []byte, calib *mnist.Dataset) error {
	images := mnist.Synthetic(bodiesPerSize*(1+8+64), inputSeed(b.seed, 1))
	// Each set-up starts a stack; the earlier ones are closed untimed.
	var stacks []*serveStack
	d, err := b.setUpDesign(raw, calib, func(d *seicore.SEIDesign) error {
		st, err := newServeStack(d, b.traced)
		if err == nil {
			stacks = append(stacks, st)
		}
		return err
	})
	if err != nil {
		for _, s := range stacks {
			s.close()
		}
		return err
	}
	st := stacks[len(stacks)-1]
	for _, s := range stacks[:len(stacks)-1] {
		s.close()
	}
	defer st.close()
	labels, err := b.energyPass(d, images)
	if err != nil {
		return err
	}
	bodies, err := encodeBodies(images, labels)
	if err != nil {
		return err
	}
	clients := make([]*client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient(st.ts.URL)
		defer clients[i].hc.CloseIdleConnections()
	}
	if err := b.checkServe(clients, bodies); err != nil {
		return err
	}
	if b.traced {
		b.serveTraced(st, clients, bodies)
		return nil
	}
	var open openResult
	for seg, deadline := 0, time.Now().Add(b.phase(1)); seg == 0 || time.Now().Before(deadline); seg++ {
		h0 := hostSpeed()
		o := b.openLoop(clients, bodies, baseRate, openSegment, int64(100+seg), nil)
		open.add(o.atSpeed(b.speed(h0, hostSpeed())))
	}
	b.set("latency_p50_ms", quantile(open.lat, 0.50))
	b.set("latency_p99_ms", quantile(open.lat, 0.99))
	b.set("images_per_s", open.imageRate())
	fmt.Fprintf(b.log, "perfbench: %.0f rps p50 %.3f ms, p99 %.3f ms over %d requests (%d late); %.0f images per request-second\n",
		baseRate, quantile(open.lat, 0.5), quantile(open.lat, 0.99), len(open.lat), open.late, open.imageRate())
	return nil
}

// serveTraced alternates untraced and traced open-loop segments, then
// climbs the rate ladder, and reports the per-layer metrics.
func (b *bench) serveTraced(st *serveStack, clients []*client, bodies map[int][]*body) {
	start := st.rec.Report("")
	tr := newTracer(fmt.Sprintf("open-%.0f", baseRate))
	b.phases = append(b.phases, tr)
	// plain and traced are at reference speed, for the overhead; raw is
	// the traced segments as measured, for the shares of server time.
	var plain, traced, raw openResult
	var server, batches obs.HistogramReport
	var alloc uint64
	counters := map[string]int64{}
	for seg, deadline := 0, time.Now().Add(b.phase(0.7)); seg == 0 || time.Now().Before(deadline); seg++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h0 := hostSpeed()
		o := b.openLoop(clients, bodies, baseRate, openSegment, int64(100+2*seg), nil)
		h1 := hostSpeed()
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		plain.add(o.atSpeed(b.speed(h0, h1)))

		before := st.rec.Report("")
		st.setTracer(tr)
		t0 := time.Now()
		o = b.openLoop(clients, bodies, baseRate, openSegment, int64(101+2*seg), tr)
		tr.wall += time.Since(t0)
		st.setTracer(nil)
		traced.add(o.atSpeed(b.speed(h1, hostSpeed())))
		raw.add(o)
		after := st.rec.Report("")
		server = histAdd(server, before.Histograms[serve.MetricRequestSeconds], after.Histograms[serve.MetricRequestSeconds])
		batches = histAdd(batches, before.Histograms[serve.MetricBatchSize], after.Histograms[serve.MetricBatchSize])
		for name, v := range after.Counters {
			counters[name] += v - before.Counters[name]
		}
	}
	b.set("serve.server_p50_share", 1e3*server.Quantile(0.50)/quantile(raw.lat, 0.50))
	b.set("serve.server_p99_share", 1e3*server.Quantile(0.99)/quantile(raw.lat, 0.99))
	engNS, engImages := tr.engineTotals()
	b.set("serve.compute_busy_share", float64(engNS)/float64(tr.wall))
	b.set("serve.batch_size_mean", batches.Sum/float64(max(batches.Count, 1)))
	b.set("seibench.late_requests", float64(raw.late))
	b.set("nn.sliced_image_share", float64(counters[nn.MetricSlicedGroups]*nn.SlicedGroupSize)/float64(max(counters[nn.MetricEvalImages], 1)))
	b.set("nn.sliced_fallbacks", float64(counters[nn.MetricSlicedFallbacks]))
	calls, ns, _ := tr.enginePredict.total()
	b.set("seicore.predict_us", b.atRef(float64(ns)/1e3/float64(max(calls, 1))))
	b.set("seicore.us_per_image", b.atRef(float64(engNS)/1e3/float64(max(engImages, 1))))
	b.set("runtime.alloc_bytes_per_image", float64(alloc)/float64(max(plain.images, 1)))
	b.set("seibench.trace_overhead", plain.imageRate()/traced.imageRate()-1)
	clientShare, serveShare, engShare := serveShares(tr)
	b.set("seibench.self_share", clientShare)
	b.set("serve.self_share", serveShare)
	b.set("seicore.self_share", engShare)
	b.set("nn.self_share", 0) // nn's dispatch runs inside the batcher: part of serve.self_share

	maxRPS := 0.0
	if raw.passes() {
		maxRPS = baseRate
	}
	for i, rate := range ladderRates {
		if maxRPS == 0 || !b.openLoop(clients, bodies, rate, b.phase(0.1), int64(3+i), nil).passes() {
			break
		}
		maxRPS = rate
	}
	b.set("serve.max_rps", maxRPS)
	end := st.rec.Report("")
	rejected := 0.0
	for _, name := range []string{serve.MetricQueueFull, serve.MetricDeadlineShed, serve.MetricCanceled} {
		rejected += float64(end.Counters[name] - start.Counters[name])
	}
	b.set("serve.rejected", rejected)
	fmt.Fprintf(b.log, "perfbench: self time of a request: seibench %.1f%%, serve %.1f%%, seicore %.1f%%; max rps %.0f\n",
		100*clientShare, 100*serveShare, 100*engShare, maxRPS)
}

// encodeBodies builds bodiesPerSize bodies of each mix size from
// disjoint runs of images.
func encodeBodies(images *mnist.Dataset, labels []int) (map[int][]*body, error) {
	bodies := map[int][]*body{}
	next := 0
	for _, size := range serveMixSizes {
		for k := 0; k < bodiesPerSize; k++ {
			px := make([][]float64, size)
			for j := range px {
				px[j] = images.Images[next+j].Data()
			}
			data, err := json.Marshal(map[string]any{"design": serveDesign, "images": px})
			if err != nil {
				return nil, err
			}
			bodies[size] = append(bodies[size], &body{images: size, data: data, labels: labels[next : next+size]})
			next += size
		}
	}
	return bodies, nil
}

// checkServe posts every body once from all senders at once, so small
// requests coalesce, and checks that the served labels equal the
// offline ones. The verified response bytes become what every timed
// request must get back.
func (b *bench) checkServe(clients []*client, bodies map[int][]*body) error {
	var all []*body
	for _, size := range serveMixSizes {
		all = append(all, bodies[size]...)
	}
	work := make(chan *body, len(all))
	for _, bd := range all {
		work <- bd
	}
	close(work)
	errs := make(chan error, len(clients))
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for bd := range work {
				status, resp, err := c.post(bd.data, 0)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, resp)
				}
				if err != nil {
					errs <- fmt.Errorf("check request: %w", err)
					return
				}
				var got struct {
					Results []struct {
						Label int `json:"label"`
					} `json:"results"`
				}
				if err := json.Unmarshal(resp, &got); err != nil {
					errs <- fmt.Errorf("check response: %w", err)
					return
				}
				labels := make([]int, len(got.Results))
				for i, r := range got.Results {
					labels[i] = r.Label
				}
				if firstMismatch(labels, bd.labels) >= 0 {
					wrong.Add(1)
				}
				bd.want = append([]byte(nil), resp...)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if n := wrong.Load(); n > 0 {
		b.res.fail(b.log, "served labels of %d bodies differ from offline", n)
	}
	return <-errs
}

// openResult is one or more open-loop segments: each request's
// latency from its due time (ms; a failed request counts as
// requestTimeout), how many were sent more than 1 ms late, and how
// many failed.
type openResult struct {
	lat                  []float64
	late, failed, images int64 // images: of the requests that succeeded
}

func (o *openResult) add(r openResult) {
	o.lat = append(o.lat, r.lat...)
	o.late += r.late
	o.failed += r.failed
	o.images += r.images
}

// imageRate is the images served per second of request time: the rate
// one client sending the requests back to back would see. It moves
// with the cost of every request, where the rate delivered at a fixed
// offered load would not; and unlike a saturating closed loop, which
// moved 7-34% between runs of one commit on a shared 2-vCPU VM, it
// stayed within 6% there.
func (o openResult) imageRate() float64 {
	sum := 0.0
	for _, l := range o.lat {
		sum += l
	}
	return float64(o.images) / (sum / 1e3)
}

// atSpeed returns o with its latencies at reference host speed; a
// failed request keeps requestTimeout.
func (o openResult) atSpeed(h float64) openResult {
	lat := make([]float64, len(o.lat))
	for i, l := range o.lat {
		lat[i] = l
		if l < float64(requestTimeout)/1e6 {
			lat[i] = l * h
		}
	}
	o.lat = lat
	return o
}

// passes reports whether the requests met the ladder's latency limit
// with no failures.
func (o openResult) passes() bool {
	return o.failed == 0 && quantile(o.lat, 0.99) <= ladderLimitMS
}

// openSegment is the length of one open-loop segment (150 requests at
// the base rate); the host speed is sampled between segments.
const openSegment = 1500 * time.Millisecond

// openLoop sends the load.Schedule arrivals of one segment at rate:
// the calling goroutine releases each request at its due time to the
// senders, each with its own connection. A request waiting for a free
// sender is late, and its latency counts from its due time.
func (b *bench) openLoop(clients []*client, bodies map[int][]*body, rate float64, dur time.Duration, stream int64, tr *tracer) openResult {
	runtime.GC()
	n := max(1, int(rate*dur.Seconds()))
	offsets := load.Schedule(load.Config{Rate: rate, Requests: n, Seed: inputSeed(b.seed, stream)})
	due := make(chan int, n) // sized to the number of sends
	lat := make([]float64, n)
	var late, images atomic.Int64
	var res sendResult
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range due {
				at := start.Add(offsets[i])
				bd := bodies[mixSize(i)][i%bodiesPerSize]
				sent := time.Now()
				if sent.Sub(at) > time.Millisecond {
					late.Add(1)
				}
				id := int64(0)
				if tr != nil {
					id = tr.newID()
				}
				ok := c.send(bd, id, &res)
				if tr != nil {
					tr.record(&tr.client, sent, id, int64(bd.images))
				}
				lat[i] = float64(requestTimeout) / 1e6
				if ok {
					lat[i] = float64(time.Since(at)) / 1e6
					images.Add(int64(bd.images))
				}
			}
		}(c)
	}
	for i, off := range offsets {
		if d := time.Until(start.Add(off)); d > 0 {
			time.Sleep(d)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	b.account(&res)
	return openResult{lat: lat, late: late.Load(), failed: res.failed.Load(), images: images.Load()}
}

// histAdd adds the observations between two snapshots to agg.
func histAdd(agg, before, after obs.HistogramReport) obs.HistogramReport {
	if agg.Counts == nil {
		agg = obs.HistogramReport{UpperBounds: after.UpperBounds, Counts: make([]int64, len(after.Counts))}
	}
	for i := range agg.Counts {
		agg.Counts[i] += after.Counts[i]
		if i < len(before.Counts) {
			agg.Counts[i] -= before.Counts[i]
		}
	}
	agg.Count += after.Count - before.Count
	agg.Sum += after.Sum - before.Sum
	return agg
}
