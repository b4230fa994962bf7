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

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/quant"
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
// networks, quantized networks — reused across harnesses. The lazy
// caches are not safe for concurrent use: harnesses that fan out must
// populate them serially first (prefetch), then treat the context as
// read-only inside the parallel region. logf is safe everywhere.
type Context struct {
	Cfg   Config
	Train *mnist.Dataset
	Test  *mnist.Dataset

	logMu sync.Mutex

	nets        map[int]*nn.Network
	quants      map[int]*quant.QuantizedNet
	quantsCal   map[int]*quant.QuantizedNet
	floatErr    map[int]float64
	quantErr    map[int]float64
	quantCalErr map[int]float64
}

// NewContext builds the datasets (real MNIST from $MNIST_DIR if
// present, synthetic otherwise) and an empty model cache. It panics
// when cfg.Workers is negative; front ends validate with par.Validate
// first to report a friendly error.
func NewContext(cfg Config) *Context {
	if err := par.Validate(cfg.Workers); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	var train, test *mnist.Dataset
	if dir := os.Getenv("MNIST_DIR"); dir != "" {
		if tr, te, err := mnist.LoadIDXDir(dir); err == nil {
			tr.Shuffle(rand.New(rand.NewSource(cfg.Seed)))
			te.Shuffle(rand.New(rand.NewSource(cfg.Seed + 1)))
			train, test = tr.Subset(cfg.TrainSamples), te.Subset(cfg.TestSamples)
		}
	}
	if train == nil {
		train, test = mnist.SyntheticSplit(cfg.TrainSamples, cfg.TestSamples, cfg.Seed)
	}
	return &Context{
		Cfg:   cfg,
		Train: train,
		Test:  test,

		nets:        map[int]*nn.Network{},
		quants:      map[int]*quant.QuantizedNet{},
		quantsCal:   map[int]*quant.QuantizedNet{},
		floatErr:    map[int]float64{},
		quantErr:    map[int]float64{},
		quantCalErr: map[int]float64{},
	}
}

func (c *Context) logf(format string, args ...any) {
	if c.Cfg.Log != nil {
		c.logMu.Lock()
		fmt.Fprintf(c.Cfg.Log, format, args...)
		c.logMu.Unlock()
	}
}

// cachePath returns the on-disk cache file for an artifact kind and
// network id, or "" when caching is disabled.
func (c *Context) cachePath(kind string, id int) string {
	if c.Cfg.CacheDir == "" {
		return ""
	}
	name := fmt.Sprintf("%s_net%d_seed%d_n%d_e%d.gob",
		kind, id, c.Cfg.Seed, c.Cfg.TrainSamples, c.Cfg.Epochs)
	return filepath.Join(c.Cfg.CacheDir, name)
}

// Network returns Table-2 network id trained on the context's training
// set, from cache when available.
func (c *Context) Network(id int) *nn.Network {
	if net, ok := c.nets[id]; ok {
		return net
	}
	if path := c.cachePath("net", id); path != "" {
		if net, err := nn.LoadFile(path); err == nil {
			c.logf("experiments: loaded %s from cache\n", net.Name)
			c.nets[id] = net
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
	c.nets[id] = net
	return net
}

// Quantized returns network id after the plain Algorithm-1
// quantization (weight re-scaling + greedy threshold search), from
// cache when available.
func (c *Context) Quantized(id int) *quant.QuantizedNet {
	if q, ok := c.quants[id]; ok {
		return q
	}
	if path := c.cachePath("quant", id); path != "" {
		if q, err := quant.LoadFile(path); err == nil {
			c.logf("experiments: loaded quantized net %d from cache\n", id)
			// gob skips the unexported recorder hook; re-attach it.
			q.Instrument(c.Cfg.Obs)
			c.quants[id] = q
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
	c.quants[id] = q
	return q
}

// QuantizedCalibrated returns network id after Algorithm 1 plus the
// FC-recalibration and threshold-refinement extensions (DESIGN.md §2;
// reported separately from the paper's plain numbers).
func (c *Context) QuantizedCalibrated(id int) *quant.QuantizedNet {
	if q, ok := c.quantsCal[id]; ok {
		return q
	}
	if path := c.cachePath("quantcal", id); path != "" {
		if q, err := quant.LoadFile(path); err == nil {
			q.Instrument(c.Cfg.Obs)
			c.quantsCal[id] = q
			return q
		}
	}
	// Re-run extraction so the plain quantized model is not mutated.
	base := c.Quantized(id)
	clone := cloneQuantized(base)
	clone.Instrument(c.Cfg.Obs)
	sp := c.Cfg.Obs.StartSpan(fmt.Sprintf("calibrate/net%d", id))
	defer sp.End()
	ccfg := quant.DefaultRecalibrateConfig()
	ccfg.Workers = c.Cfg.Workers
	ccfg.Obs = c.Cfg.Obs
	if err := quant.RecalibrateFC(clone, c.Train, ccfg); err != nil {
		panic(fmt.Sprintf("experiments: recalibrating network %d: %v", id, err))
	}
	rcfg := quant.DefaultRefineConfig()
	rcfg.Samples = c.Cfg.SearchSamples
	rcfg.Workers = c.Cfg.Workers
	rcfg.Obs = c.Cfg.Obs
	if _, err := quant.RefineThresholds(clone, c.Train, rcfg); err != nil {
		panic(fmt.Sprintf("experiments: refining network %d: %v", id, err))
	}
	if err := quant.RecalibrateFC(clone, c.Train, ccfg); err != nil {
		panic(fmt.Sprintf("experiments: recalibrating network %d: %v", id, err))
	}
	if path := c.cachePath("quantcal", id); path != "" {
		if err := clone.SaveFile(path); err != nil {
			c.logf("experiments: cache write failed: %v\n", err)
		}
	}
	c.quantsCal[id] = clone
	return clone
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

// FloatError returns network id's test error rate (cached).
func (c *Context) FloatError(id int) float64 {
	if e, ok := c.floatErr[id]; ok {
		return e
	}
	e := nn.ErrorRate(c.Cfg.Obs, c.Network(id), c.Test, c.Cfg.Workers)
	c.floatErr[id] = e
	return e
}

// QuantError returns the plain-quantized test error rate (cached).
func (c *Context) QuantError(id int) float64 {
	if e, ok := c.quantErr[id]; ok {
		return e
	}
	e := nn.ErrorRate(c.Cfg.Obs, c.Quantized(id), c.Test, c.Cfg.Workers)
	c.quantErr[id] = e
	return e
}

// QuantCalibratedError returns the calibrated-quantized test error
// rate (cached).
func (c *Context) QuantCalibratedError(id int) float64 {
	if e, ok := c.quantCalErr[id]; ok {
		return e
	}
	e := nn.ErrorRate(c.Cfg.Obs, c.QuantizedCalibrated(id), c.Test, c.Cfg.Workers)
	c.quantCalErr[id] = e
	return e
}
