package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// HTTP limits. Requests beyond them are rejected, never buffered:
// with 400, or 413 for a body over maxBodyBytes.
const (
	// MaxImagesPerRequest bounds one predict request; larger batches
	// should be split client-side (the batcher re-coalesces them).
	// Note it deliberately exceeds the default QueueCap (256): a
	// maximal request against a default queue is rejected up front
	// with ErrBatchTooLarge → 413 rather than admitted piecemeal —
	// raise -queue to serve bigger single requests.
	MaxImagesPerRequest = 1024
	// maxBodyBytes bounds the request body (1024 images of 784 JSON
	// floats fit comfortably). Decoded memory is bounded by the image
	// and pixel limits, not by this one (see decodePredict).
	maxBodyBytes = 32 << 20
)

// MetricHTTPPanics counts handler panics contained by the recovery
// middleware (500 to the client, process stays up).
const MetricHTTPPanics = "serve_http_panics"

// MetricReloads counts generation publishes through the admin surface
// (reload, canary promote/rollback) and SIGHUP.
const MetricReloads = "serve_reloads"

// MetricRequestSeconds is the end-to-end predict latency histogram:
// request decode through batcher queue wait, engine evaluation and
// response encode, observed once per POST /v1/predict (including
// rejected and failed requests — backpressure latency is part of the
// distribution). Buckets are obs.LatencyBounds(); /metrics exposes it
// as a standard cumulative Prometheus histogram. The histogram
// is resolved once at handler construction, so steady-state recording
// is two atomic adds — no per-request lookups or bound rebuilds.
const MetricRequestSeconds = "serve_request_seconds"

// MetricDecodeSeconds is the predict body's read-and-parse time,
// MetricBatchSeconds its Batcher.Predict time (queue wait plus engine
// evaluation) and MetricEncodeSeconds the response's build and write:
// the three phases of MetricRequestSeconds, whose rest is the request
// checks. Recorded like it.
const (
	MetricDecodeSeconds = "serve_decode_seconds"
	MetricBatchSeconds  = "serve_batch_seconds"
	MetricEncodeSeconds = "serve_encode_seconds"
)

// MetricQueueDepth is the pool's pending-predict gauge (summed across
// per-design queues), sampled at scrape/health time (queues drain in
// microseconds, so a sampled gauge is the honest representation — a
// per-event gauge would only ever show the scraper its own flush).
const MetricQueueDepth = "serve_queue_depth"

// Options wires a handler together.
type Options struct {
	Registry *Registry
	// Pool shards batching per design; one hot design's queue cannot
	// reject or delay another design's requests.
	Pool *Pool
	// Obs backs /metrics and the handler counters; sharing it with the
	// pool gives one scrape surface. Nil disables recording.
	Obs *obs.Recorder
	// Timeout bounds one predict request end to end (queue wait plus
	// evaluation). Zero means DefaultTimeout.
	Timeout time.Duration
}

// DefaultTimeout bounds a predict request when Options.Timeout is 0.
const DefaultTimeout = 30 * time.Second

// predictResult is one image's outcome. Failed images carry label -1
// and an error string; the rest of the batch is unaffected.
type predictResult struct {
	Label int    `json:"label"`
	Error string `json:"error,omitempty"`
}

type predictResponse struct {
	Design string `json:"design"`
	// Generation is the design generation that served the whole
	// request (one request never spans generations).
	Generation int             `json:"generation"`
	Results    []predictResult `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

type server struct {
	opts Options
	// latency, decode, batch and encode are MetricRequestSeconds,
	// MetricDecodeSeconds, MetricBatchSeconds and MetricEncodeSeconds,
	// resolved once at construction — the per-request path must not
	// rebuild obs.LatencyBounds() or re-resolve a histogram (nil when
	// Obs is nil; Observe is a no-op then).
	latency, decode, batch, encode *obs.Histogram
}

// NewHandler returns the service's HTTP surface:
//
//	POST /v1/predict        — batched classification (?generation= pins one)
//	GET  /v1/designs        — resolvable design names + live generations
//	POST /v1/admin/reload   — publish a new generation from disk (?design=&canary=)
//	POST /v1/admin/canary   — adjust/promote/rollback a canary split
//	POST /v1/admin/unregister — retire a design and tear down its queue
//	GET  /healthz           — liveness and drain state
//	GET  /metrics           — Prometheus text exposition
//
// Every handler is wrapped in panic recovery: a bug answers 500 and
// increments serve_http_panics instead of killing the process.
func NewHandler(opts Options) http.Handler {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	s := &server{opts: opts}
	if opts.Obs != nil {
		bounds := obs.LatencyBounds()
		s.latency = opts.Obs.Histogram(MetricRequestSeconds, bounds)
		s.decode = opts.Obs.Histogram(MetricDecodeSeconds, bounds)
		s.batch = opts.Obs.Histogram(MetricBatchSeconds, bounds)
		s.encode = opts.Obs.Histogram(MetricEncodeSeconds, bounds)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	mux.HandleFunc("POST /v1/admin/canary", s.handleCanary)
	mux.HandleFunc("POST /v1/admin/unregister", s.handleUnregister)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.opts.Obs.Counter(MetricHTTPPanics).Add(1)
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// statusFor maps the service's typed errors onto HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDesign), errors.Is(err, ErrUnknownGeneration):
		return http.StatusNotFound
	case errors.Is(err, nn.ErrBadInput), errors.Is(err, errMalformed):
		return http.StatusBadRequest
	case errors.Is(err, ErrBatchTooLarge), errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineTooTight):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoCanary), errors.Is(err, ErrNoSnapshot):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusInternalServerError
	}
}

// observeSince is the per-request histogram bookkeeping: two atomic
// adds on a pre-resolved histogram, zero allocations (pinned by
// TestRecordLatencyZeroAllocs).
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer observeSince(s.latency, start)
	req, err := decodePredict(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	observeSince(s.decode, start)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	if req.design == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing design name"})
		return
	}
	if req.images == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no images"})
		return
	}
	if req.images > MaxImagesPerRequest {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("%d images exceeds the per-request limit of %d", req.images, MaxImagesPerRequest)})
		return
	}
	pin := 0
	if g := r.URL.Query().Get("generation"); g != "" {
		n, err := strconv.Atoi(g)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid generation %q", g)})
			return
		}
		pin = n
	}
	c, gen, err := s.opts.Registry.Resolve(req.design, pin)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	b, err := s.opts.Pool.For(req.design)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	if req.badImage >= 0 {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("image %d has %d pixels, want %d", req.badImage, req.badPixels, imagePixels)})
		return
	}
	imgs := make([]*tensor.Tensor, req.images)
	for i := range imgs {
		px := req.pix[i*imagePixels : (i+1)*imagePixels : (i+1)*imagePixels]
		imgs[i] = tensor.FromSlice(px, 1, mnist.Side, mnist.Side)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	batchStart := time.Now()
	res, err := b.Predict(ctx, c, imgs)
	observeSince(s.batch, batchStart)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	encodeStart := time.Now()
	resp := predictResponse{Design: req.design, Generation: gen, Results: make([]predictResult, len(res))}
	failed := 0
	for i, pr := range res {
		resp.Results[i].Label = pr.Label
		if pr.Err != nil {
			resp.Results[i].Error = pr.Err.Error()
			failed++
		}
	}
	// Per-image failures ride inside a 200 as long as something
	// succeeded; a fully failed batch answers with the first error's
	// status so single-image clients see a plain 4xx/5xx.
	status := http.StatusOK
	if failed == len(res) {
		for _, pr := range res {
			if pr.Err != nil {
				status = statusFor(pr.Err)
				break
			}
		}
	}
	writeJSON(w, status, resp)
	observeSince(s.encode, encodeStart)
}

// designInfo is one design's entry in GET /v1/designs.
type designInfo struct {
	Name        string  `json:"name"`
	Generations []int   `json:"generations"`
	Canary      float64 `json:"canary"`
}

func (s *server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	names := s.opts.Registry.Names()
	var live []designInfo
	for _, name := range names {
		if d := s.opts.Registry.Lookup(name); d != nil {
			live = append(live, designInfo{Name: name, Generations: d.Generations(), Canary: d.Canary})
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Designs []string     `json:"designs"`
		Live    []designInfo `json:"live,omitempty"`
	}{Designs: names, Live: live})
}

// reloadResponse answers the admin mutations.
type reloadResponse struct {
	Design     string   `json:"design,omitempty"`
	Generation int      `json:"generation,omitempty"`
	Canary     float64  `json:"canary,omitempty"`
	Reloaded   []string `json:"reloaded,omitempty"`
}

// handleReload publishes a new generation of ?design= from its snapshot
// file. ?canary= in (0,1) keeps the previous generation live behind a
// weighted split; omitted (or 1) swaps fully — in-flight batches drain
// on the generation they resolved either way. An empty design reloads
// every disk-backed design (the SIGHUP semantics over HTTP).
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	weight := 1.0
	if c := q.Get("canary"); c != "" {
		f, err := strconv.ParseFloat(c, 64)
		if err != nil || f < 0 || f > 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid canary weight %q", c)})
			return
		}
		weight = f
	}
	name := q.Get("design")
	if name == "" {
		reloaded, err := s.opts.Registry.ReloadAll()
		if err != nil {
			writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
			return
		}
		s.opts.Obs.Counter(MetricReloads).Add(int64(len(reloaded)))
		writeJSON(w, http.StatusOK, reloadResponse{Reloaded: reloaded})
		return
	}
	gen, err := s.opts.Registry.Reload(name, weight)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	s.opts.Obs.Counter(MetricReloads).Add(1)
	writeJSON(w, http.StatusOK, reloadResponse{Design: name, Generation: gen, Canary: weight})
}

// handleCanary adjusts ?design='s split: ?weight= ≥ 1 promotes the new
// generation, ≤ 0 rolls back to the old, anything between reweights.
func (s *server) handleCanary(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("design")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing design parameter"})
		return
	}
	weight, err := strconv.ParseFloat(q.Get("weight"), 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid weight %q", q.Get("weight"))})
		return
	}
	if err := s.opts.Registry.SetCanary(name, weight); err != nil {
		writeJSON(w, statusFor(err), errorResponse{Error: err.Error()})
		return
	}
	s.opts.Obs.Counter(MetricReloads).Add(1)
	d := s.opts.Registry.Lookup(name)
	writeJSON(w, http.StatusOK, reloadResponse{Design: name, Generation: d.Gens[len(d.Gens)-1].Number, Canary: d.Canary})
}

// handleUnregister retires ?design= and tears down its batcher; queued
// predicts drain first.
func (s *server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("design")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing design parameter"})
		return
	}
	if !s.opts.Registry.Unregister(name) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("%v: %q", ErrUnknownDesign, name)})
		return
	}
	s.opts.Pool.Remove(name)
	writeJSON(w, http.StatusOK, reloadResponse{Design: name})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type health struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Batchers   int    `json:"batchers"`
	}
	h := health{Status: "ok", QueueDepth: s.opts.Pool.QueueDepth(), Batchers: s.opts.Pool.Size()}
	if s.opts.Pool.Draining() {
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.opts.Obs != nil {
		// Sample the queue depth at scrape time so the gauge reflects
		// standing backlog rather than the scraper's own flush cycle.
		s.opts.Obs.Gauge(MetricQueueDepth).Set(float64(s.opts.Pool.QueueDepth()))
		s.opts.Obs.WritePrometheus(w)
	}
}
