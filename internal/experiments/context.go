// Package experiments contains one harness per table and figure of the
// paper's evaluation (Section 5 plus the motivating Fig. 1 and
// Table 1). Each harness returns a typed result and can print itself
// in the paper's row format; cmd/seisim and the root benchmarks drive
// them, and EXPERIMENTS.md records paper-vs-measured numbers from a
// full run.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"sei/internal/homog"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/quant"
	"sei/internal/seicore"
)

// Config sizes the experiment workloads. The defaults fit a
// single-core full run in minutes; the paper's 60k/10k MNIST split is
// approached by raising TrainSamples/TestSamples.
type Config struct {
	TrainSamples int
	TestSamples  int
	Epochs       int
	Seed         int64
	// SearchSamples bounds the Algorithm-1 threshold search workload.
	SearchSamples int
	// RandomOrders is how many random row orders the Table-4 splitting
	// study samples (the paper uses 500).
	RandomOrders int
	// CalibImages bounds the dynamic-threshold calibration workload.
	CalibImages int
	// CacheDir, when non-empty, caches trained and quantized models on
	// disk keyed by network id, seed and workload size.
	CacheDir string
	// Log receives progress lines; nil silences them.
	Log io.Writer
	// Workers bounds the parallel engine across every harness
	// (0 = all cores, 1 = the serial path). All results are
	// bit-identical for every worker count; only wall-clock changes.
	Workers int
	// Obs, when set, records phase spans, hardware-event counters and
	// progress for every harness run under this config; nil disables
	// recording. Instrumentation never feeds back into computation, so
	// recorded runs produce bit-identical results to unrecorded ones.
	Obs *obs.Recorder
}

// DefaultConfig returns the standard experiment sizing.
func DefaultConfig() Config {
	return Config{
		TrainSamples:  3000,
		TestSamples:   600,
		Epochs:        4,
		Seed:          1,
		SearchSamples: 400,
		RandomOrders:  20,
		CalibImages:   50,
	}
}

// QuickConfig returns a much smaller sizing for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		TrainSamples:  800,
		TestSamples:   200,
		Epochs:        3,
		Seed:          1,
		SearchSamples: 200,
		RandomOrders:  6,
		CalibImages:   25,
	}
}

// Context owns the shared expensive artifacts — datasets, trained
// networks, quantized networks, split orders and error rates — reused
// across harnesses. The lazy caches are not safe for concurrent use:
// harnesses that fan out must populate them serially first (prefetch),
// then treat the context as read-only inside the parallel region. logf
// is safe everywhere.
type Context struct {
	Cfg   Config
	Train *mnist.Dataset
	Test  *mnist.Dataset

	// source names where the datasets came from ("mnist" or
	// "synthetic"); it keys the on-disk cache.
	source string
	logMu  sync.Mutex

	nets      memo[int, *nn.Network]
	quants    memo[int, *quant.QuantizedNet]
	quantsCal memo[int, *quant.QuantizedNet]
	splits    memo[[2]int, homog.Splits] // (network id, crossbar size)
	errs      memo[errKey, float64]
}

// errKey names one cached test error rate: which model of network id.
type errKey struct {
	kind string // "float", "quant", "quantcal", "dacadc" or "onebit"
	id   int
}

// memo caches one value per key, computed on first use. A hit only
// reads, so concurrent hits are safe once every key is populated.
type memo[K comparable, V any] struct{ m map[K]V }

func (m *memo[K, V]) get(k K, compute func() V) V {
	if v, ok := m.m[k]; ok {
		return v
	}
	v := compute()
	if m.m == nil {
		m.m = map[K]V{}
	}
	m.m[k] = v
	return v
}

// NewContext builds the datasets (real MNIST from $MNIST_DIR if
// present, synthetic otherwise) and an empty model cache. It panics
// when cfg.Workers is negative; front ends validate with par.Validate
// first to report a friendly error.
func NewContext(cfg Config) *Context {
	if err := par.Validate(cfg.Workers); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	c := &Context{Cfg: cfg, source: "synthetic"}
	if dir := os.Getenv("MNIST_DIR"); dir != "" {
		if tr, te, err := mnist.LoadIDXDir(dir); err == nil {
			tr.Shuffle(rand.New(rand.NewSource(cfg.Seed)))
			te.Shuffle(rand.New(rand.NewSource(cfg.Seed + 1)))
			c.Train, c.Test, c.source = tr.Subset(cfg.TrainSamples), te.Subset(cfg.TestSamples), "mnist"
		}
	}
	if c.Train == nil {
		c.Train, c.Test = mnist.SyntheticSplit(cfg.TrainSamples, cfg.TestSamples, cfg.Seed)
	}
	return c
}

func (c *Context) logf(format string, args ...any) {
	if c.Cfg.Log != nil {
		c.logMu.Lock()
		fmt.Fprintf(c.Cfg.Log, format, args...)
		c.logMu.Unlock()
	}
}

// cachePath returns the on-disk cache file for an artifact kind and
// network id, or "" when caching is disabled. Every key names the data
// source and the training workload; the quantized kinds also name the
// threshold-search workload, which both the search and the refinement
// read.
func (c *Context) cachePath(kind string, id int) string {
	if c.Cfg.CacheDir == "" {
		return ""
	}
	name := fmt.Sprintf("%s_%s_net%d_seed%d_n%d_e%d",
		kind, c.source, id, c.Cfg.Seed, c.Cfg.TrainSamples, c.Cfg.Epochs)
	if kind != "net" {
		name += fmt.Sprintf("_s%d", c.Cfg.SearchSamples)
	}
	return filepath.Join(c.Cfg.CacheDir, name+".gob")
}

// Network returns Table-2 network id trained on the context's training
// set, from cache when available.
func (c *Context) Network(id int) *nn.Network {
	return c.nets.get(id, func() *nn.Network {
		if path := c.cachePath("net", id); path != "" {
			if net, err := nn.LoadFile(path); err == nil {
				c.logf("experiments: loaded %s from cache\n", net.Name)
				return net
			}
		}
		net := nn.NewTableNetwork(id, c.Cfg.Seed+int64(id)*101)
		tcfg := nn.DefaultTrainConfig()
		tcfg.Epochs = c.Cfg.Epochs
		tcfg.Seed = c.Cfg.Seed
		tcfg.Log = c.Cfg.Log
		tcfg.Workers = c.Cfg.Workers
		tcfg.Obs = c.Cfg.Obs
		c.logf("experiments: training %s on %d samples, %d epochs\n", net.Name, c.Train.Len(), tcfg.Epochs)
		sp := c.Cfg.Obs.StartSpan(fmt.Sprintf("train/net%d", id))
		nn.Train(net, c.Train, tcfg)
		sp.AddSamples(int64(c.Train.Len() * tcfg.Epochs))
		sp.End()
		if path := c.cachePath("net", id); path != "" {
			if err := nn.SaveFile(net, path); err != nil {
				c.logf("experiments: cache write failed: %v\n", err)
			}
		}
		return net
	})
}

// Quantized returns network id after the plain Algorithm-1
// quantization (weight re-scaling + greedy threshold search), from
// cache when available.
func (c *Context) Quantized(id int) *quant.QuantizedNet {
	return c.quants.get(id, func() *quant.QuantizedNet {
		if path := c.cachePath("quant", id); path != "" {
			if q, err := quant.LoadFile(path); err == nil {
				c.logf("experiments: loaded quantized net %d from cache\n", id)
				// gob skips the unexported recorder hook; re-attach it.
				q.Instrument(c.Cfg.Obs)
				return q
			}
		}
		net := c.Network(id)
		scfg := quant.DefaultSearchConfig()
		scfg.Samples = c.Cfg.SearchSamples
		scfg.Workers = c.Cfg.Workers
		scfg.Obs = c.Cfg.Obs
		c.logf("experiments: quantizing %s (Algorithm 1)\n", net.Name)
		sp := c.Cfg.Obs.StartSpan(fmt.Sprintf("quantize/net%d", id))
		q, report, err := quant.QuantizeNetwork(net, c.Train, []int{1, 28, 28}, scfg)
		sp.End()
		if err != nil {
			panic(fmt.Sprintf("experiments: quantizing network %d: %v", id, err))
		}
		for _, lr := range report.Layers {
			c.logf("experiments:   layer %d threshold %.4f (train acc %.4f)\n", lr.Layer, lr.Threshold, lr.Accuracy)
		}
		if path := c.cachePath("quant", id); path != "" {
			if err := q.SaveFile(path); err != nil {
				c.logf("experiments: cache write failed: %v\n", err)
			}
		}
		return q
	})
}

// QuantizedCalibrated returns network id after Algorithm 1 plus the
// FC-recalibration and threshold-refinement extensions (DESIGN.md §2;
// reported separately from the paper's plain numbers).
func (c *Context) QuantizedCalibrated(id int) *quant.QuantizedNet {
	return c.quantsCal.get(id, func() *quant.QuantizedNet {
		if path := c.cachePath("quantcal", id); path != "" {
			if q, err := quant.LoadFile(path); err == nil {
				q.Instrument(c.Cfg.Obs)
				return q
			}
		}
		// Calibrate a copy so the plain quantized model is not mutated.
		clone := cloneQuantized(c.Quantized(id))
		clone.Instrument(c.Cfg.Obs)
		sp := c.Cfg.Obs.StartSpan(fmt.Sprintf("calibrate/net%d", id))
		defer sp.End()
		rcfg := quant.DefaultRefineConfig()
		rcfg.Samples = c.Cfg.SearchSamples
		rcfg.Workers = c.Cfg.Workers
		rcfg.Obs = c.Cfg.Obs
		if err := quant.Calibrate(clone, c.Train, rcfg); err != nil {
			panic(fmt.Sprintf("experiments: calibrating network %d: %v", id, err))
		}
		if path := c.cachePath("quantcal", id); path != "" {
			if err := clone.SaveFile(path); err != nil {
				c.logf("experiments: cache write failed: %v\n", err)
			}
		}
		return clone
	})
}

// splitOrders returns the homogenized orders of calibrated network
// id's conv stages that split at crossbar size maxSize, seeded at the
// config seed: Table 4, Table 5 and the homogenization study read one
// GA run per split stage.
func (c *Context) splitOrders(id, maxSize int) homog.Splits {
	return c.splits.get([2]int{id, maxSize}, func() homog.Splits {
		opt := seicore.DefaultLayerOptions()
		opt.MaxCrossbar = maxSize
		split, err := homog.SplitOrders(c.QuantizedCalibrated(id), opt, c.Cfg.Seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: homogenizing network %d at %d: %v", id, maxSize, err))
		}
		for _, s := range split {
			c.logf("experiments: homogenized net%d stage %d (K=%d): distance %.4f -> %.4f (%.1f%% reduction)\n",
				id, s.Stage, s.K, s.NaturalDistance, s.Distance, 100*s.Reduction())
		}
		return split
	})
}

// cloneQuantized deep-copies a quantized network via its snapshot
// round trip.
func cloneQuantized(q *quant.QuantizedNet) *quant.QuantizedNet {
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		panic(fmt.Sprintf("experiments: cloning quantized net: %v", err))
	}
	clone, err := quant.Load(&buf)
	if err != nil {
		panic(fmt.Sprintf("experiments: cloning quantized net: %v", err))
	}
	return clone
}

// testError returns a model's test error rate, cached under (kind, id).
func (c *Context) testError(kind string, id int, model func() nn.Classifier) float64 {
	return c.errs.get(errKey{kind, id}, func() float64 {
		return nn.ErrorRate(c.Cfg.Obs, model(), c.Test, c.Cfg.Workers)
	})
}

// FloatError returns network id's test error rate (cached).
func (c *Context) FloatError(id int) float64 {
	return c.testError("float", id, func() nn.Classifier { return c.Network(id) })
}

// QuantError returns the plain-quantized test error rate (cached).
func (c *Context) QuantError(id int) float64 {
	return c.testError("quant", id, func() nn.Classifier { return c.Quantized(id) })
}

// QuantCalibratedError returns the calibrated-quantized test error
// rate (cached).
func (c *Context) QuantCalibratedError(id int) float64 {
	return c.testError("quantcal", id, func() nn.Classifier { return c.QuantizedCalibrated(id) })
}
