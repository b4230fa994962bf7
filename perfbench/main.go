// Command perfbench is the repository's benchmark: it builds one SEI
// design from a committed fixture, checks that the design's outputs
// are correct, times one workload in-process and prints the result as
// one JSON line.
//
// Usage (from the checkout root):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//	bash perfbench/run.sh --write-fixtures perfbench/fixtures
//
// Workloads, metrics and bounds are listed in BENCHMARK.json and
// explained in perfbench/README.md. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics of a traced run and
// writes its spans to --trace-out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric's name and unit, as in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported for every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"images_per_s", "images/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"pj_per_inference", "pJ"},
}

// perLayer are the metrics of a traced run, reported for every
// workload; a layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"quant.search_s", "s"},
	{"quant.conv0_search_s", "s"},
	{"quant.conv1_search_s", "s"},
	{"quant.recalibrate_s", "s"},
	{"seicore.build_s", "s"},
	{"quant.candidates", "count"},
	{"quant.remainder_skip_rate", "ratio"},
	{"quant.fc_delta_updates", "count"},
	{"seicore.us_per_image", "us"},
	{"seicore.predict_us", "us"},
	{"seicore.self_share", "ratio"},
	{"nn.self_share", "ratio"},
	{"serve.self_share", "ratio"},
	{"seibench.self_share", "ratio"},
	{"seibench.trace_overhead", "ratio"},
	{"seibench.host_speed", "ratio"},
	{"runtime.alloc_bytes_per_image", "B"},
	{"nn.sliced_image_share", "ratio"},
	{"nn.sliced_fallbacks", "count"},
	{"seicore.mvm_ops", "count"},
	{"seicore.sa_compares", "count"},
	{"seicore.column_activations", "count"},
	{"seicore.active_inputs", "count"},
	{"quant.orpool_reductions", "count"},
	{"seicore.rows_driven.stage0", "count"},
	{"seicore.rows_driven.stage1", "count"},
	{"seicore.rows_skipped.stage1", "count"},
	{"seicore.cols_early_exit.stage1", "count"},
	{"seicore.bound_evals", "count"},
	{"seicore.skip_rate", "ratio"},
	{"seicore.noise_draws", "count"},
	{"power.sa_pj", "pJ"},
	{"power.rram_pj", "pJ"},
	{"power.driver_pj", "pJ"},
	{"power.digital_pj", "pJ"},
	{"nn.error_rate", "ratio"},
	{"serve.server_p50_share", "ratio"},
	{"serve.server_p99_share", "ratio"},
	{"serve.compute_busy_share", "ratio"},
	{"serve.batch_size_mean", "count"},
	{"serve.max_rps", "1/s"},
	{"serve.rejected", "count"},
	{"seibench.late_requests", "count"},
}

// workload is one named benchmark configuration. Offline workloads
// classify images generated from --seed; net2-serve sends them over
// HTTP instead.
type workload struct {
	name string
	net  int
	opt  designOptions
	// images is how many test images --seed generates; one throughput
	// round classifies all of them.
	images int
	serve  bool
}

var workloads = []workload{
	{name: "net2-ideal", net: 2, images: 4096},
	{name: "net1-bounded", net: 1, opt: designOptions{bounded: true}, images: 1024},
	{name: "net2-noisy", net: 2, opt: designOptions{noiseSigma: 0.05}, images: 4096},
	{name: "net2-serve", net: 2, serve: true},
}

// setupReps is how many times each run sets up its design; setup_s is
// the median.
const setupReps = 3

// checkImages is the size of the subset every correctness check runs
// on before timing starts.
const checkImages = 256

// result is one run's outcome: the JSON line's fields plus the digest.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	digest    string
}

// fail marks the run incorrect and says why on the log.
func (r *result) fail(log io.Writer, format string, args ...any) {
	r.correct = false
	fmt.Fprintf(log, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// bench is one run's configuration and accumulating result.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer
	res     *result
	phases  []*tracer // traced phases, written to the trace file at the end
	speeds  []float64 // host speed of every measured slot
}

// speed records the host speed of a slot measured between two samples
// and returns it.
func (b *bench) speed(before, after float64) float64 {
	h := (before + after) / 2
	b.speeds = append(b.speeds, h)
	return h
}

// atRef converts a raw per-layer duration to reference host speed with
// the run's median host speed.
func (b *bench) atRef(d float64) float64 { return d * median(b.speeds) }

// phase returns a fraction of the run's measuring time.
func (b *bench) phase(frac float64) time.Duration {
	return time.Duration(frac * b.seconds * float64(time.Second))
}

func (b *bench) set(name string, v float64) { b.res.metrics[name] = v }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed: test images and arrival schedules")
	seconds := fs.Float64("seconds", 10, "measuring time of the run, split over its phases")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "trace span file (default .bench_build/perfbench/trace-WORKLOAD-seedN.json)")
	writeFx := fs.String("write-fixtures", "", "train the network fixtures into this directory and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *writeFx != "" {
		if err := writeFixtures(*writeFx); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	b := &bench{
		w: *w, seed: *seed, seconds: *seconds, traced: *trace == 1, log: stderr,
		res: &result{correct: true, metrics: map[string]float64{}},
	}
	if err := b.run(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.set("seibench.host_speed", median(b.speeds))
	fmt.Fprintf(stderr, "perfbench: host speed %.3f of reference (median of %d slots)\n", median(b.speeds), len(b.speeds))
	defs := endToEnd
	if b.traced {
		defs = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		}
		if err := writeTrace(path, b); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	line, err := resultJSON(b.res, defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", w.name, *seed, b.res.digest)
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run sets the design up, then hands it to the workload's phases.
func (b *bench) run() error {
	fx := netFixtures[b.w.net]
	raw, calib, err := loadFixture(fx)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d, %.0f s, trace %v\n", b.w.name, b.seed, b.seconds, b.traced)
	if b.w.serve {
		return b.runServe(raw, calib)
	}
	test := mnist.Synthetic(b.w.images, inputSeed(b.seed, 0))
	d, err := b.setUpDesign(raw, calib, nil)
	if err != nil {
		return err
	}
	return b.runOffline(d, test)
}

// setUpDesign runs setupReps set-ups, keeps the last design and
// records setup_s (and, traced, the per-layer set-up times) as
// medians at reference host speed. extra, when set, runs inside each
// timed set-up after the design is built (the serve stack's start).
func (b *bench) setUpDesign(raw []byte, calib *mnist.Dataset, extra func(*seicore.SEIDesign) error) (*seicore.SEIDesign, error) {
	var d *seicore.SEIDesign
	var total, search, conv0, conv1, recal, build []float64
	var last setupTimes
	for i := 0; i < setupReps; i++ {
		var rec *obs.Recorder
		if b.traced {
			rec = obs.New()
		}
		runtime.GC()
		h0 := hostSpeed()
		t0 := time.Now()
		var err error
		var t setupTimes
		d, t, err = setUp(raw, calib, b.w.opt, rec)
		if err != nil {
			return nil, err
		}
		if extra != nil {
			if err := extra(d); err != nil {
				return nil, err
			}
		}
		el := time.Since(t0)
		h := b.speed(h0, hostSpeed())
		total = append(total, h*el.Seconds())
		search = append(search, h*t.search.Seconds())
		conv0 = append(conv0, h*t.conv0.Seconds())
		conv1 = append(conv1, h*t.conv1.Seconds())
		recal = append(recal, h*t.recalibrate.Seconds())
		build = append(build, h*t.build.Seconds())
		last = t
	}
	b.set("setup_s", median(total))
	b.set("quant.search_s", median(search))
	b.set("quant.conv0_search_s", median(conv0))
	b.set("quant.conv1_search_s", median(conv1))
	b.set("quant.recalibrate_s", median(recal))
	b.set("seicore.build_s", median(build))
	b.set("quant.candidates", float64(last.candidates))
	b.set("quant.remainder_skip_rate", last.stats.SkipRate())
	b.set("quant.fc_delta_updates", float64(last.stats.FCDeltaUpdates))
	fmt.Fprintf(b.log, "perfbench: set-up %.3f s (median of %d)\n", median(total), setupReps)
	return d, nil
}

// inputSeed derives the seed of one input stream from --seed. The
// offset keeps every stream clear of the fixture's training images
// (mnist.Synthetic(n, fixtureSeed)).
func inputSeed(seed int64, stream int64) int64 {
	return 0x5EED0000 + seed<<10 + stream
}

// predictLabels returns the labels of a batch, or an error naming the
// first failed image.
func predictLabels(c nn.Classifier, imgs []*tensor.Tensor) ([]int, error) {
	res := nn.PredictBatchInto(nil, c, imgs, 1, nil)
	labels := make([]int, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("image %d: %w", i, r.Err)
		}
		labels[i] = r.Label
	}
	return labels, nil
}

// firstMismatch returns the first index where a and b differ, or -1.
func firstMismatch(a, b []int) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// resultJSON renders the result line with exactly the metrics of defs.
func resultJSON(r *result, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := r.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, attempted, r.failed, metrics})
	return string(out), err
}

// median of a non-empty sample (the input is not modified).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics, as numpy's
// default does (the input is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
