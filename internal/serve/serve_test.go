package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// fastFixture is a quickly trained float network plus data — the
// classifier for batching/robustness tests where building real RRAM
// hardware would only add seconds, not coverage.
type fastFixture struct {
	net  *nn.Network
	data *mnist.Dataset
}

var (
	fastOnce sync.Once
	fastFix  fastFixture
)

func getFastFixture(t *testing.T) fastFixture {
	t.Helper()
	fastOnce.Do(func() {
		data := mnist.Synthetic(300, 7)
		net := nn.NewTableNetwork(1, 3)
		cfg := nn.DefaultTrainConfig()
		cfg.Epochs = 1
		nn.Train(net, data, cfg)
		fastFix = fastFixture{net: net, data: data}
	})
	return fastFix
}

// panicClassifier stands in for a design whose internals blow up on
// structurally valid input.
type panicClassifier struct{}

func (*panicClassifier) Predict(*tensor.Tensor) int { panic("injected evaluator failure") }

// gatedClassifier blocks every Predict until the gate closes, letting
// tests hold the batcher loop in a known state without sleeps. When
// entered is non-nil it receives one signal per Predict call, marking
// the moment the loop is inside a flush.
type gatedClassifier struct {
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedClassifier) Predict(*tensor.Tensor) int {
	if g.entered != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
	}
	<-g.gate
	return 0
}

func newTestServer(t *testing.T, reg *Registry, bcfg BatcherConfig, opts Options) (*httptest.Server, *Pool) {
	t.Helper()
	p, err := NewPool(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	opts.Registry = reg
	opts.Pool = p
	ts := httptest.NewServer(NewHandler(opts))
	t.Cleanup(ts.Close)
	return ts, p
}

// batcherFor resolves a design's batcher from the pool, failing the
// test on error.
func batcherFor(t *testing.T, p *Pool, name string) *Batcher {
	t.Helper()
	b, err := p.For(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// doPredict is goroutine-safe (no *testing.T): it returns transport
// and decode errors instead of failing the test directly.
func doPredict(url, design string, imgs []*tensor.Tensor) (int, predictResponse, error) {
	req := predictRequest{Design: design}
	for _, img := range imgs {
		req.Images = append(req.Images, img.Data())
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, predictResponse{}, err
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, predictResponse{}, err
	}
	defer resp.Body.Close()
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return resp.StatusCode, predictResponse{}, fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
	}
	return resp.StatusCode, pr, nil
}

func postPredict(t *testing.T, url, design string, imgs []*tensor.Tensor) (int, predictResponse) {
	t.Helper()
	status, pr, err := doPredict(url, design, imgs)
	if err != nil {
		t.Fatal(err)
	}
	return status, pr
}

func TestServeConcurrentPredictsBitIdenticalToOffline(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	rec := obs.New()
	ts, _ := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 16, MaxDelay: 5 * time.Millisecond, Workers: 4, Obs: rec},
		Options{Obs: rec})

	// The offline truth: the engine's batch path, which is itself
	// bit-identical to EvaluateDesign (see nn and facade tests).
	offline := nn.PredictBatchObs(nil, f.net, f.data.Images, 1)

	// Hammer the server from many goroutines with differently sized
	// slices of the dataset so the batcher coalesces across requests.
	const clients = 8
	got := make([]int, f.data.Len())
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		lo := c * f.data.Len() / clients
		hi := (c + 1) * f.data.Len() / clients
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i += 7 {
				end := i + 7
				if end > hi {
					end = hi
				}
				status, pr, err := doPredict(ts.URL, "demo", f.data.Images[i:end])
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("images [%d,%d): status %d", i, end, status)
					return
				}
				for k, r := range pr.Results {
					if r.Error != "" {
						errs <- fmt.Errorf("image %d: %s", i+k, r.Error)
						return
					}
					got[i+k] = r.Label
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != offline[i].Label {
			t.Fatalf("image %d: served label %d, offline %d", i, got[i], offline[i].Label)
		}
	}
	if rec.CounterValues()[MetricPredicts] != int64(f.data.Len()) {
		t.Fatalf("serve_predicts = %d, want %d", rec.CounterValues()[MetricPredicts], f.data.Len())
	}
}

func TestServeDesignSnapshotFromDisk(t *testing.T) {
	train, test := mnist.SyntheticSplit(500, 80, 5)
	net := nn.NewTableNetwork(1, 3)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 2
	nn.Train(net, train, tcfg)
	qcfg := quant.DefaultSearchConfig()
	qcfg.Samples = 200
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := seicore.DefaultSEIBuildConfig()
	bcfg.DynamicThreshold = false
	design, err := seicore.BuildSEI(q, nil, bcfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := design.SaveFile(filepath.Join(dir, "net1"+DesignExt)); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(dir, 1)
	ts, _ := newTestServer(t, reg, BatcherConfig{Workers: 2}, Options{})
	status, pr := postPredict(t, ts.URL, "net1", test.Images)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	for i, r := range pr.Results {
		if r.Error != "" {
			t.Fatalf("image %d: %s", i, r.Error)
		}
		if want := design.Predict(test.Images[i]); r.Label != want {
			t.Fatalf("image %d: served %d, offline design predicts %d", i, r.Label, want)
		}
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "net1" {
		t.Fatalf("registry names = %v, want [net1]", names)
	}
}

func TestServeMalformedRequests(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	ts, _ := newTestServer(t, reg, BatcherConfig{Workers: 1}, Options{})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	good := f.data.Images[0].Data()
	goodJSON, _ := json.Marshal(good)
	nan := append([]float64(nil), good...)
	nan[12] = math.NaN()
	nanImg := tensor.FromSlice(nan, 1, mnist.Side, mnist.Side)

	if got := post(`{not json`); got != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", got)
	}
	if got := post(`{"images":[[0.5]]}`); got != http.StatusBadRequest {
		t.Fatalf("missing design: status %d, want 400", got)
	}
	if got := post(`{"design":"demo","images":[]}`); got != http.StatusBadRequest {
		t.Fatalf("no images: status %d, want 400", got)
	}
	if got := post(`{"design":"demo","images":[[0.1,0.2,0.3]]}`); got != http.StatusBadRequest {
		t.Fatalf("short image: status %d, want 400", got)
	}
	if got := post(`{"design":"nope","images":[` + string(goodJSON) + `]}`); got != http.StatusNotFound {
		t.Fatalf("unknown design: status %d, want 404", got)
	}
	if got := post(`{"design":"../etc/passwd","images":[` + string(goodJSON) + `]}`); got != http.StatusNotFound {
		t.Fatalf("path-traversal design: status %d, want 404", got)
	}
	// NaN pixels survive JSON decoding only as an ErrBadInput from the
	// engine's validator — NaN is not valid JSON, so build the request
	// through the tensor round trip and expect the decode-level 400.
	if status, _ := postPredict(t, ts.URL, "demo", []*tensor.Tensor{f.data.Images[1]}); status != http.StatusOK {
		t.Fatalf("control predict: status %d", status)
	}
	if _, err := json.Marshal(predictRequest{Design: "demo", Images: [][]float64{nanImg.Data()}}); err == nil {
		t.Fatal("expected NaN to be unmarshalable JSON (decode-level rejection)")
	}
	// A mixed batch: one good image, one short image — rejected whole
	// at decode time, before anything reaches the batcher.
	if got := post(`{"design":"demo","images":[` + string(goodJSON) + `,[0.1]]}`); got != http.StatusBadRequest {
		t.Fatalf("mixed batch with short image: status %d, want 400", got)
	}
	// A body over the limit is 413, whatever it would have decoded to,
	// even when a top-level scalar ends right at the limit: the byte
	// after it is read to see it end.
	if got := post(strings.Repeat(" ", maxBodyBytes-1) + `{}`); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of maxBodyBytes+1 bytes: status %d, want 413", got)
	}
	if got := post(strings.Repeat(" ", maxBodyBytes-4) + `null `); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("null ending at the body limit: status %d, want 413", got)
	}
}

func TestServeInjectedPanicIsContained(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	reg.Register("boom", &panicClassifier{})
	rec := obs.New()
	ts, _ := newTestServer(t, reg, BatcherConfig{Workers: 1, Obs: rec}, Options{Obs: rec})

	status, pr := postPredict(t, ts.URL, "boom", []*tensor.Tensor{f.data.Images[0]})
	if status != http.StatusBadRequest {
		t.Fatalf("panicking design: status %d, want 400", status)
	}
	if len(pr.Results) != 1 || pr.Results[0].Error == "" || pr.Results[0].Label != -1 {
		t.Fatalf("panicking design results: %+v", pr.Results)
	}
	if got := rec.CounterValues()[nn.MetricPredictPanics]; got != 1 {
		t.Fatalf("predict_panics = %d, want 1", got)
	}
	// The process (and the batcher loop) survived: a normal predict
	// still succeeds.
	status, pr = postPredict(t, ts.URL, "demo", []*tensor.Tensor{f.data.Images[0]})
	if status != http.StatusOK || pr.Results[0].Error != "" {
		t.Fatalf("predict after contained panic: status %d, results %+v", status, pr.Results)
	}
}

func TestServeBackpressureAndDrain(t *testing.T) {
	f := getFastFixture(t)
	gate := &gatedClassifier{gate: make(chan struct{})}
	reg := NewRegistry("", 0)
	reg.Register("slow", gate)
	rec := obs.New()
	ts, p := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, QueueCap: 2, Workers: 1, Obs: rec},
		Options{Obs: rec})
	b := batcherFor(t, p, "slow")

	// Occupy the loop with a gated predict, then fill the queue.
	results := make(chan error, 3)
	submit := func() {
		_, err := b.Predict(context.Background(), gate, []*tensor.Tensor{f.data.Images[0]})
		results <- err
	}
	go submit()
	waitFor(t, func() bool { return b.QueueDepth() == 0 }) // loop took it
	go submit()
	go submit()
	waitFor(t, func() bool { return b.QueueDepth() == 2 })

	// Queue full: direct submits and HTTP predicts are rejected, not
	// buffered.
	if _, err := b.Predict(context.Background(), gate, []*tensor.Tensor{f.data.Images[0]}); err != ErrQueueFull {
		t.Fatalf("overfull submit error = %v, want ErrQueueFull", err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"design":"slow","images":[`+pixelJSON(f.data.Images[0])+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull HTTP predict: status %d, want 429", resp.StatusCode)
	}
	if rec.CounterValues()[MetricQueueFull] < 2 {
		t.Fatalf("serve_queue_full = %d, want >= 2", rec.CounterValues()[MetricQueueFull])
	}

	// Release the gate and drain: the three queued predicts complete.
	close(gate.gate)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued predict %d failed: %v", i, err)
		}
	}
	p.Close()
	if _, err := b.Predict(context.Background(), gate, []*tensor.Tensor{f.data.Images[0]}); err != ErrDraining {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	if _, err := p.For("other"); err != ErrDraining {
		t.Fatalf("post-drain pool lookup error = %v, want ErrDraining", err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", hresp.StatusCode)
	}
}

func TestServeRequestTimeout(t *testing.T) {
	f := getFastFixture(t)
	gate := &gatedClassifier{gate: make(chan struct{})}
	defer close(gate.gate)
	reg := NewRegistry("", 0)
	reg.Register("slow", gate)
	ts, _ := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1},
		Options{Timeout: 30 * time.Millisecond})

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"design":"slow","images":[`+pixelJSON(f.data.Images[0])+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out predict: status %d, want 504", resp.StatusCode)
	}
}

func TestServeCoalescesQueuedPredicts(t *testing.T) {
	f := getFastFixture(t)
	gate := &gatedClassifier{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	rec := obs.New()
	b, err := NewBatcher(BatcherConfig{MaxBatch: 16, MaxDelay: 300 * time.Millisecond, QueueCap: 16, Workers: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the loop inside the first flush, queue five more predicts,
	// then release: the five must flush together as one batch.
	done := make(chan error, 6)
	go func() {
		_, err := b.Predict(context.Background(), gate, []*tensor.Tensor{f.data.Images[0]})
		done <- err
	}()
	<-gate.entered // the loop is now blocked in flush, past its gather
	for i := 1; i <= 5; i++ {
		img := f.data.Images[i]
		go func() {
			_, err := b.Predict(context.Background(), gate, []*tensor.Tensor{img})
			done <- err
		}()
	}
	waitFor(t, func() bool { return b.QueueDepth() == 5 })
	close(gate.gate)
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if got := rec.CounterValues()[MetricBatches]; got != 2 {
		t.Fatalf("serve_batches = %d, want 2 (1 + coalesced 5)", got)
	}
}

// TestBatcherIdleFlushesWithoutWaiting pins the work-conserving
// gather: a predict on an idle batcher flushes at once, whatever
// MaxDelay says, instead of holding the engine while it waits for
// company.
func TestBatcherIdleFlushesWithoutWaiting(t *testing.T) {
	f := getFastFixture(t)
	b, err := NewBatcher(BatcherConfig{MaxBatch: 64, MaxDelay: 10 * time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	if _, err := b.Predict(context.Background(), f.net, f.data.Images[:1]); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("1-image predict on an idle batcher took %v, want < 1s", took)
	}
}

// TestBatcherKeepsARequestWhole pins the gather's lock: the loop may
// wake on a request's first job while the rest are still being
// queued, and must still flush the whole request as one batch.
func TestBatcherKeepsARequestWhole(t *testing.T) {
	f := getFastFixture(t)
	for run := 0; run < 20; run++ {
		rec := obs.New()
		b, err := NewBatcher(BatcherConfig{MaxBatch: 64, QueueCap: 64, Workers: 1, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Predict(context.Background(), constClassifier(3), f.data.Images[:64])
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 64 {
			t.Fatalf("run %d: %d results, want 64", run, len(res))
		}
		if got := rec.CounterValues()[MetricBatches]; got != 1 {
			t.Fatalf("run %d: serve_batches = %d, want 1 (the request was split)", run, got)
		}
		if h := rec.Report("").Histograms[MetricBatchSize]; h.Count != 1 || h.Sum != 64 {
			t.Fatalf("run %d: batch sizes %d observations summing to %g, want one of 64", run, h.Count, h.Sum)
		}
	}
}

// TestServeSlicedBurstCoalesces pins the serving-side tentpole payoff:
// a 64-request burst against an ideal-analog design coalesces into one
// flush, that flush runs as one bit-sliced group, and every label is
// bit-identical to 64 sequential offline predicts.
func TestServeSlicedBurstCoalesces(t *testing.T) {
	f := getFastFixture(t)
	qcfg := quant.DefaultSearchConfig()
	qcfg.Samples = 120
	q, _, err := quant.QuantizeNetwork(f.net, f.data, []int{1, 28, 28}, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := seicore.DefaultSEIBuildConfig()
	bcfg.DynamicThreshold = false
	design, err := seicore.BuildSEI(q, nil, bcfg, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if !design.SlicedBatchEligible() {
		t.Fatal("ideal-analog design is not sliced-eligible")
	}

	rec := obs.New()
	b, err := NewBatcher(BatcherConfig{MaxBatch: 64, MaxDelay: 20 * time.Millisecond, QueueCap: 128, Workers: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Hold the loop inside a gated flush, queue the full burst, then
	// release: the 64 jobs must gather into exactly one batch.
	gate := &gatedClassifier{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	gateDone := make(chan error, 1)
	go func() {
		_, err := b.Predict(context.Background(), gate, []*tensor.Tensor{f.data.Images[0]})
		gateDone <- err
	}()
	<-gate.entered // the loop is now blocked in flush, past its gather

	const burst = 64
	got := make([]int, burst)
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Predict(context.Background(), design, []*tensor.Tensor{f.data.Images[i]})
			if err == nil && res[0].Err != nil {
				err = res[0].Err
			}
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			got[i] = res[0].Label
		}(i)
	}
	waitFor(t, func() bool { return b.QueueDepth() == burst })
	close(gate.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-gateDone; err != nil {
		t.Fatal(err)
	}

	for i := 0; i < burst; i++ {
		if want := design.Predict(f.data.Images[i]); got[i] != want {
			t.Fatalf("image %d: served label %d, sequential offline predict %d", i, got[i], want)
		}
	}
	counters := rec.CounterValues()
	if counters[MetricBatches] != 2 {
		t.Errorf("serve_batches = %d, want 2 (gate + coalesced burst)", counters[MetricBatches])
	}
	if counters[nn.MetricSlicedGroups] != 1 {
		t.Errorf("%s = %d, want 1 (one packed pass for the whole burst)", nn.MetricSlicedGroups, counters[nn.MetricSlicedGroups])
	}
	if counters[nn.MetricSlicedFallbacks] != 0 {
		t.Errorf("%s = %d, want 0", nn.MetricSlicedFallbacks, counters[nn.MetricSlicedFallbacks])
	}
	if counters[MetricPredicts] != burst+1 {
		t.Errorf("serve_predicts = %d, want %d", counters[MetricPredicts], burst+1)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("demo", f.net)
	rec := obs.New()
	ts, _ := newTestServer(t, reg, BatcherConfig{Workers: 1, Obs: rec}, Options{Obs: rec})
	if status, _ := postPredict(t, ts.URL, "demo", f.data.Images[:3]); status != http.StatusOK {
		t.Fatalf("predict status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, metric := range []string{MetricPredicts, MetricBatches, nn.MetricEvalImages} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %q:\n%s", metric, body)
		}
	}
	// Per-request latency rides /metrics as a standard cumulative
	// histogram, and the queue-depth gauge is sampled at scrape time.
	for _, line := range []string{
		"sei_" + MetricRequestSeconds + `_bucket{le="+Inf"} 1`,
		"sei_" + MetricRequestSeconds + "_count 1",
		"sei_" + MetricDecodeSeconds + "_count 1",
		"sei_" + MetricBatchSeconds + "_count 1",
		"sei_" + MetricEncodeSeconds + "_count 1",
		"# TYPE sei_" + MetricQueueDepth + " gauge",
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q:\n%s", line, body)
		}
	}
	hist := rec.Report("").Histograms[MetricRequestSeconds]
	if hist.Count != 1 {
		t.Fatalf("request latency histogram count = %d, want 1", hist.Count)
	}
	if p99 := hist.Quantile(0.99); p99 <= 0 {
		t.Errorf("p99 = %g, want > 0", p99)
	}
}

func TestRegistryRejectsUnsafeNames(t *testing.T) {
	reg := NewRegistry(t.TempDir(), 0)
	for _, name := range []string{"", ".", "..", "../x", "a/b", `a\b`, ".hidden", "a b"} {
		if _, err := reg.Get(name); err == nil || !strings.Contains(err.Error(), "unknown design") {
			t.Fatalf("name %q: err = %v, want unknown-design", name, err)
		}
	}
}

func pixelJSON(img *tensor.Tensor) string {
	b, _ := json.Marshal(img.Data())
	return string(b)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
