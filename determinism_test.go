package sei

// End-to-end determinism contract of the parallel evaluation engine:
// every stage of the pipeline — float evaluation, Algorithm-1 threshold
// search, SEI build+evaluation — produces bit-identical results at any
// worker count. Workers=1 is the exact serial path, so the table pins
// the parallel engine to the pre-engine serial numbers.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

func TestPipelineWorkerCountInvariant(t *testing.T) {
	train, test := mnist.SyntheticSplit(300, 120, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)

	type result struct {
		floatErr   float64
		thresholds []float64
		quantErr   float64
		seiErr     float64
	}
	run := func(workers int) result {
		var res result
		res.floatErr = nn.ErrorRateWorkers(net, test, workers)

		scfg := quant.DefaultSearchConfig()
		scfg.Samples = 120
		scfg.Workers = workers
		q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
		if err != nil {
			t.Fatalf("workers=%d: quantize: %v", workers, err)
		}
		res.thresholds = q.Thresholds
		res.quantErr = q.ErrorRateWorkers(test, workers)

		bcfg := seicore.DefaultSEIBuildConfig()
		bcfg.Layer.MaxCrossbar = 128 // force a split so calibration runs
		bcfg.CalibImages = 20
		bcfg.Workers = workers
		d, err := seicore.BuildSEI(q, train, bcfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("workers=%d: build SEI: %v", workers, err)
		}
		res.seiErr = nn.ClassifierErrorRateWorkers(d, test, workers)
		return res
	}

	serial := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.floatErr != serial.floatErr {
			t.Errorf("workers=%d: float error %v != serial %v", workers, got.floatErr, serial.floatErr)
		}
		if len(got.thresholds) != len(serial.thresholds) {
			t.Fatalf("workers=%d: %d thresholds != serial %d", workers, len(got.thresholds), len(serial.thresholds))
		}
		for i := range got.thresholds {
			if got.thresholds[i] != serial.thresholds[i] {
				t.Errorf("workers=%d: threshold[%d] %v != serial %v", workers, i, got.thresholds[i], serial.thresholds[i])
			}
		}
		if got.quantErr != serial.quantErr {
			t.Errorf("workers=%d: quantized error %v != serial %v", workers, got.quantErr, serial.quantErr)
		}
		if got.seiErr != serial.seiErr {
			t.Errorf("workers=%d: SEI error %v != serial %v", workers, got.seiErr, serial.seiErr)
		}
	}
}

// Instrumentation must not perturb results, and the recorded counters
// must themselves be worker-count independent: every counter is an
// integer event count that depends only on the work performed
// (DESIGN.md §9). Workers=0 (all cores) rides along with the explicit
// counts because the engine's chunk boundaries don't depend on the
// resolved worker count.
func TestInstrumentedPipelineWorkerCountInvariant(t *testing.T) {
	train, test := mnist.SyntheticSplit(300, 120, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)

	type result struct {
		floatErr float64
		quantErr float64
		seiErr   float64
		counters map[string]int64
	}
	run := func(workers int) result {
		rec := obs.New()
		var res result
		res.floatErr = nn.ErrorRateObs(rec, net, test, workers)

		scfg := quant.DefaultSearchConfig()
		scfg.Samples = 120
		scfg.Workers = workers
		scfg.Obs = rec
		q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
		if err != nil {
			t.Fatalf("workers=%d: quantize: %v", workers, err)
		}
		res.quantErr = q.ErrorRateObs(rec, test, workers)

		bcfg := seicore.DefaultSEIBuildConfig()
		bcfg.Layer.MaxCrossbar = 128 // force a split so calibration runs
		bcfg.CalibImages = 20
		bcfg.Workers = workers
		bcfg.Obs = rec
		d, err := seicore.BuildSEI(q, train, bcfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("workers=%d: build SEI: %v", workers, err)
		}
		res.seiErr = nn.ClassifierErrorRateObs(rec, d, test, workers)
		res.counters = rec.CounterValues()
		return res
	}

	serial := run(1)
	plain := func() result {
		var res result
		res.floatErr = nn.ErrorRateWorkers(net, test, 1)
		scfg := quant.DefaultSearchConfig()
		scfg.Samples = 120
		scfg.Workers = 1
		q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
		if err != nil {
			t.Fatalf("plain quantize: %v", err)
		}
		res.quantErr = q.ErrorRateWorkers(test, 1)
		bcfg := seicore.DefaultSEIBuildConfig()
		bcfg.Layer.MaxCrossbar = 128
		bcfg.CalibImages = 20
		bcfg.Workers = 1
		d, err := seicore.BuildSEI(q, train, bcfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("plain build SEI: %v", err)
		}
		res.seiErr = nn.ClassifierErrorRateWorkers(d, test, 1)
		return res
	}()
	if serial.floatErr != plain.floatErr || serial.quantErr != plain.quantErr || serial.seiErr != plain.seiErr {
		t.Errorf("instrumented run %+v != uninstrumented %+v: recording perturbed results",
			serial, plain)
	}

	hwCounters := 0
	for _, name := range []string{
		obs.HWMVMOps, obs.HWSAComparisons, obs.HWColumnActivations,
		obs.HWActiveInputs, obs.HWORPoolReductions,
	} {
		if serial.counters[name] > 0 {
			hwCounters++
		}
	}
	if hwCounters < 5 {
		t.Errorf("only %d hardware counters nonzero, want 5; counters = %v", hwCounters, serial.counters)
	}

	for _, workers := range []int{0, 2, 8} {
		got := run(workers)
		if got.floatErr != serial.floatErr || got.quantErr != serial.quantErr || got.seiErr != serial.seiErr {
			t.Errorf("workers=%d: instrumented results %+v != serial %+v", workers, got, serial)
		}
		if !reflect.DeepEqual(got.counters, serial.counters) {
			t.Errorf("workers=%d: counters diverge from serial:\n got  %v\n want %v",
				workers, got.counters, serial.counters)
		}
	}
}

// The candidate-lane search engine (internal/quant/engine.go) and the
// retained naive sweep are two implementations of Algorithm 1:
// thresholds, per-layer accuracies, and every comparable counter total
// must be bit-identical, at every worker count. par_* scheduling counts
// and the engine-only skip/eval accounting are the only legitimate
// differences (the engine runs one parallel region per candidate list
// instead of one per candidate).
func TestSearchEngineMatchesNaiveReference(t *testing.T) {
	train, _ := mnist.SyntheticSplit(300, 120, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)

	comparable := func(all map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for k, v := range all {
			if strings.HasPrefix(k, "par_") {
				continue
			}
			switch k {
			case quant.MetricRemainderSkipped, quant.MetricRemainderEvals, quant.MetricFCDeltaUpdates:
				continue
			}
			out[k] = v
		}
		return out
	}
	run := func(workers int, search func(*quant.QuantizedNet, *mnist.Dataset, quant.SearchConfig) (*quant.SearchReport, error)) (*quant.SearchReport, []float64, map[string]int64) {
		q, err := quant.Extract(net, []int{1, 28, 28})
		if err != nil {
			t.Fatalf("workers=%d: extract: %v", workers, err)
		}
		rec := obs.New()
		q.Instrument(rec)
		cfg := quant.DefaultSearchConfig()
		cfg.Samples = 120
		cfg.Workers = workers
		cfg.Obs = rec
		report, err := search(q, train, cfg)
		if err != nil {
			t.Fatalf("workers=%d: search: %v", workers, err)
		}
		return report, q.Thresholds, comparable(rec.CounterValues())
	}

	refReport, refThresholds, refCounters := run(1, quant.SearchThresholdsReference)
	for _, workers := range []int{1, 2, 8} {
		report, thresholds, counters := run(workers, quant.SearchThresholds)
		if !reflect.DeepEqual(report.Layers, refReport.Layers) {
			t.Errorf("workers=%d: layer results diverge from naive reference:\n got  %+v\n want %+v",
				workers, report.Layers, refReport.Layers)
		}
		if !reflect.DeepEqual(thresholds, refThresholds) {
			t.Errorf("workers=%d: thresholds %v != reference %v", workers, thresholds, refThresholds)
		}
		if !reflect.DeepEqual(counters, refCounters) {
			t.Errorf("workers=%d: counters diverge from naive reference:\n got  %v\n want %v",
				workers, counters, refCounters)
		}
		if report.Stats.Evaluations == 0 {
			t.Errorf("workers=%d: lane engine recorded no evaluations", workers)
		}
	}
}

// comparablePredictCounters strips the counters that legitimately
// differ between prediction paths: par_* scheduling counts (the
// bit-sliced batch path schedules 64-image groups instead of 16-image
// chunks) and the sliced-dispatch accounting itself. Everything else —
// every hardware counter, eval_images, predict_panics — must match
// bit for bit.
func comparablePredictCounters(all map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range all {
		if strings.HasPrefix(k, "par_") || strings.HasPrefix(k, "predict_sliced_") {
			continue
		}
		out[k] = v
	}
	return out
}

// The bit-packed fast path (internal/seicore/fast.go) and the float
// path are two implementations of one contract: for an ideal-analog
// design, predictions AND hardware-counter totals must be bit-identical
// between the paths, at every worker count. This pins the fast path's
// accumulation-order and counter-placement guarantees end to end, on a
// design forced to split so multi-block kernels are exercised.
func TestFastPathFloatPathWorkerCountInvariant(t *testing.T) {
	train, test := mnist.SyntheticSplit(300, 120, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = 120
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	bcfg := seicore.DefaultSEIBuildConfig()
	bcfg.Layer.MaxCrossbar = 128 // force a split so multi-block kernels run
	bcfg.CalibImages = 20
	d, err := seicore.BuildSEI(q, train, bcfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("build SEI: %v", err)
	}

	type result struct {
		labels   []int
		counters map[string]int64
	}
	run := func(fast bool, workers int) result {
		rec := obs.New()
		d.Instrument(rec)
		q.Instrument(rec)
		d.SetFastPath(fast)
		defer func() {
			d.Instrument(nil)
			q.Instrument(nil)
			d.SetFastPath(true)
		}()
		res := nn.PredictBatchObs(rec, d, test.Images, workers)
		labels := make([]int, len(res))
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("fast=%v workers=%d image %d: %v", fast, workers, i, r.Err)
			}
			labels[i] = r.Label
		}
		return result{labels: labels, counters: comparablePredictCounters(rec.CounterValues())}
	}

	base := run(true, 1)
	for _, workers := range []int{1, 2, 8} {
		for _, fast := range []bool{true, false} {
			if fast && workers == 1 {
				continue // the baseline itself
			}
			got := run(fast, workers)
			if !reflect.DeepEqual(got.labels, base.labels) {
				t.Errorf("fast=%v workers=%d: labels diverge from fast serial baseline", fast, workers)
			}
			if !reflect.DeepEqual(got.counters, base.counters) {
				t.Errorf("fast=%v workers=%d: counters diverge:\n got  %v\n want %v",
					fast, workers, got.counters, base.counters)
			}
		}
	}
}

// The bit-sliced batch path (internal/seicore/sliced.go), the
// per-image fast path and the float path are three implementations of
// one contract. This pins label-for-label equality and
// hardware-counter-total equality across all three, for every worker
// count and for batch sizes straddling the 64-image group boundary —
// on designs exercising permuted splits and unipolar dynamic columns.
func TestSlicedPathThreeWayDeterminism(t *testing.T) {
	train, test := mnist.SyntheticSplit(300, 256, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = 120
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	perm := rand.New(rand.NewSource(13)).Perm(q.Convs[1].FanIn())
	designs := map[string]func() seicore.SEIBuildConfig{
		"split-permuted": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 128
			cfg.Orders = [][]int{nil, perm}
			cfg.CalibImages = 20
			return cfg
		},
		"unipolar-dynamic": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.Mode = seicore.ModeUnipolarDynamic
			cfg.DynamicThreshold = false
			return cfg
		},
	}
	type path struct {
		name           string
		sliced, fastOn bool
	}
	paths := []path{
		{"sliced", true, true},
		{"per-image-fast", false, true},
		{"float", false, false},
	}
	for name, mk := range designs {
		t.Run(name, func(t *testing.T) {
			d, err := seicore.BuildSEI(q, train, mk(), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("build SEI: %v", err)
			}
			run := func(p path, imgs []*tensor.Tensor, workers int) ([]int, map[string]int64) {
				rec := obs.New()
				d.Instrument(rec)
				q.Instrument(rec)
				d.SetFastPath(p.fastOn)
				defer func() {
					d.Instrument(nil)
					q.Instrument(nil)
					d.SetFastPath(true)
				}()
				// Wrapping hides nn.SlicedBatchPredictor, which keeps the
				// batch on the chunked per-image engine.
				var c nn.Classifier = d
				if !p.sliced {
					c = struct{ nn.ParallelClassifier }{d}
				}
				res := nn.PredictBatchObs(rec, c, imgs, workers)
				labels := make([]int, len(res))
				for i, r := range res {
					if r.Err != nil {
						t.Fatalf("%s workers=%d image %d: %v", p.name, workers, i, r.Err)
					}
					labels[i] = r.Label
				}
				return labels, comparablePredictCounters(rec.CounterValues())
			}
			for _, size := range []int{1, 63, 64, 65, 256} {
				imgs := test.Images[:size]
				baseLabels, baseCounters := run(paths[0], imgs, 1)
				for _, workers := range []int{1, 2, 8} {
					for _, p := range paths {
						if p.name == "sliced" && workers == 1 {
							continue // the baseline itself
						}
						labels, counters := run(p, imgs, workers)
						if !reflect.DeepEqual(labels, baseLabels) {
							t.Errorf("size=%d %s workers=%d: labels diverge from sliced serial baseline", size, p.name, workers)
						}
						if !reflect.DeepEqual(counters, baseCounters) {
							t.Errorf("size=%d %s workers=%d: counters diverge:\n got  %v\n want %v",
								size, p.name, workers, counters, baseCounters)
						}
					}
				}
			}
		})
	}
}

// The packed per-image walker (internal/seicore/fast.go) and the float
// path are two implementations of the noisy prediction contract:
// for a linearly non-ideal design — read noise (per-column or
// per-cell) and/or IR drop — labels, hardware-counter totals AND the
// RNG-consumption ledger (sei_noise_draws) must be bit-identical
// between the paths, at every worker count, on split/permuted and
// unipolar-dynamic designs. Counter equality is the strong form of the
// contract: equal sei_noise_draws totals at equal per-chunk seeds mean
// the two paths consumed identical noise-stream prefixes, not merely
// noise that happened to round to the same labels.
func TestNoisyPackedPathWorkerCountInvariant(t *testing.T) {
	train, test := mnist.SyntheticSplit(300, 120, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = 120
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	perm := rand.New(rand.NewSource(13)).Perm(q.Convs[1].FanIn())
	designs := map[string]func() seicore.SEIBuildConfig{
		"per-column-split-permuted": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 128
			cfg.Layer.Model.ReadNoiseSigma = 0.05
			cfg.Orders = [][]int{nil, perm}
			cfg.DynamicThreshold = false
			return cfg
		},
		"per-cell-split": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 128
			cfg.Layer.Model.ReadNoiseSigma = 0.05
			cfg.Layer.Model.ReadNoisePerCell = true
			cfg.DynamicThreshold = false
			return cfg
		},
		"unipolar-per-cell-ir": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.Mode = seicore.ModeUnipolarDynamic
			cfg.Layer.Model.ReadNoiseSigma = 0.05
			cfg.Layer.Model.ReadNoisePerCell = true
			cfg.Layer.Model.IRDropAlpha = 0.05
			cfg.DynamicThreshold = false
			return cfg
		},
	}
	for name, mk := range designs {
		t.Run(name, func(t *testing.T) {
			d, err := seicore.BuildSEI(q, nil, mk(), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("build SEI: %v", err)
			}
			run := func(packed bool, workers int) ([]int, map[string]int64) {
				rec := obs.New()
				d.Instrument(rec)
				q.Instrument(rec)
				d.SetFastPath(packed)
				defer func() {
					d.Instrument(nil)
					q.Instrument(nil)
					d.SetFastPath(true)
				}()
				res := nn.PredictBatchObs(rec, d, test.Images, workers)
				labels := make([]int, len(res))
				for i, r := range res {
					if r.Err != nil {
						t.Fatalf("packed=%v workers=%d image %d: %v", packed, workers, i, r.Err)
					}
					labels[i] = r.Label
				}
				return labels, comparablePredictCounters(rec.CounterValues())
			}
			baseLabels, baseCounters := run(true, 1)
			if baseCounters[obs.SEINoiseDraws] == 0 {
				t.Fatalf("noisy evaluation recorded zero sei_noise_draws")
			}
			for _, workers := range []int{1, 2, 8} {
				for _, packed := range []bool{true, false} {
					if packed && workers == 1 {
						continue // the baseline itself
					}
					labels, counters := run(packed, workers)
					if !reflect.DeepEqual(labels, baseLabels) {
						t.Errorf("packed=%v workers=%d: labels diverge from packed serial baseline", packed, workers)
					}
					if !reflect.DeepEqual(counters, baseCounters) {
						t.Errorf("packed=%v workers=%d: counters diverge:\n got  %v\n want %v",
							packed, workers, counters, baseCounters)
					}
				}
			}
		})
	}
}

// Runtime activation bounds (internal/seicore/bounds.go) add a fourth
// implementation of the prediction contract: the bounded fast path
// must be label-identical to the unbounded fast path and the float
// path — the bounds only skip work that provably cannot change a
// sense-amp decision — at every worker count, on split/permuted and
// unipolar-dynamic designs. The bounded run's own counters (hw_* and
// sei_* alike) must also be worker-count invariant.
func TestBoundedPathThreeWayDeterminism(t *testing.T) {
	train, test := mnist.SyntheticSplit(300, 120, 7)
	net := nn.NewTableNetwork(1, 7)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	tcfg.Seed = 7
	nn.Train(net, train, tcfg)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = 120
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, scfg)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	perm := rand.New(rand.NewSource(13)).Perm(q.Convs[1].FanIn())
	designs := map[string]func() seicore.SEIBuildConfig{
		"split-permuted": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.MaxCrossbar = 128
			cfg.Orders = [][]int{nil, perm}
			cfg.CalibImages = 20
			return cfg
		},
		"unipolar-dynamic": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.Layer.Mode = seicore.ModeUnipolarDynamic
			cfg.DynamicThreshold = false
			return cfg
		},
		"default-static": func() seicore.SEIBuildConfig {
			cfg := seicore.DefaultSEIBuildConfig()
			cfg.DynamicThreshold = false
			return cfg
		},
	}
	for name, mk := range designs {
		t.Run(name, func(t *testing.T) {
			d, err := seicore.BuildSEI(q, train, mk(), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("build SEI: %v", err)
			}
			run := func(bounded, fast bool, workers int) ([]int, map[string]int64) {
				rec := obs.New()
				d.Instrument(rec)
				d.SetFastPath(fast)
				d.SetBounded(bounded)
				defer func() {
					d.Instrument(nil)
					d.SetFastPath(true)
					d.SetBounded(false)
				}()
				res := nn.PredictBatchObs(rec, d, test.Images, workers)
				labels := make([]int, len(res))
				for i, r := range res {
					if r.Err != nil {
						t.Fatalf("bounded=%v fast=%v workers=%d image %d: %v", bounded, fast, workers, i, r.Err)
					}
					labels[i] = r.Label
				}
				return labels, comparablePredictCounters(rec.CounterValues())
			}
			baseLabels, boundedCounters := run(true, true, 1)
			for _, workers := range []int{1, 2, 8} {
				// Bounded fast: counters must match the serial bounded run.
				if workers > 1 {
					labels, counters := run(true, true, workers)
					if !reflect.DeepEqual(labels, baseLabels) {
						t.Errorf("bounded workers=%d: labels diverge from serial bounded run", workers)
					}
					if !reflect.DeepEqual(counters, boundedCounters) {
						t.Errorf("bounded workers=%d: counters diverge:\n got  %v\n want %v",
							workers, counters, boundedCounters)
					}
				}
				// Unbounded fast and float: labels must match the bounded run.
				for _, fast := range []bool{true, false} {
					labels, _ := run(false, fast, workers)
					if !reflect.DeepEqual(labels, baseLabels) {
						t.Errorf("fast=%v workers=%d: labels diverge from bounded path", fast, workers)
					}
				}
			}
		})
	}
}
