// Package sei is a simulator and design-space explorer for
// "Switched by Input: Power Efficient Structure for RRAM-based
// Convolutional Neural Network" (Xia et al., DAC 2016).
//
// It reproduces the paper end to end: a from-scratch CNN framework
// trains the Table-2 MNIST networks; Algorithm 1 quantizes every
// intermediate activation to one bit (eliminating DACs); the SEI
// structure maps signed 8-bit weights onto single 4-bit RRAM crossbars
// whose transmission gates are selected by the 1-bit inputs
// (eliminating merging ADCs); large matrices split across crossbars
// with matrix homogenization and dynamic-threshold compensation; and a
// component-level power/area model regenerates Fig. 1 and Tables 1–5.
//
// This package is the public facade. The high-level entry point is
// RunPipeline, which takes a dataset through training, quantization,
// hardware mapping and evaluation:
//
//	res, err := sei.RunPipeline(sei.DefaultPipelineConfig())
//	fmt.Printf("SEI error %.2f%%, energy saving %.1f%%\n",
//		100*res.SEIError, 100*res.EnergySaving)
//
// Individual stages are exposed for finer control (TrainTableNetwork,
// Quantize, BuildDesign, MapCosts), and the experiments API
// regenerates every table and figure of the paper (see
// RunAllExperiments and cmd/seisim).
package sei

import (
	"fmt"
	"io"

	"sei/internal/experiments"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/power"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// Re-exported core types. They originate in internal packages; every
// capability a downstream user needs is reachable through this facade.
type (
	// Dataset is a labelled set of 28×28 images.
	Dataset = mnist.Dataset
	// Network is a trainable float CNN.
	Network = nn.Network
	// QuantizedNet is a CNN with 1-bit intermediate data (Section 3).
	QuantizedNet = quant.QuantizedNet
	// SEIDesign is a quantized network mapped onto SEI hardware
	// (Section 4).
	SEIDesign = seicore.SEIDesign
	// DeviceModel is the behavioural RRAM device.
	DeviceModel = rram.DeviceModel
	// Structure selects among DAC+ADC, 1-bit-input+ADC and SEI.
	Structure = seicore.Structure
	// PowerLibrary holds component energy/area constants.
	PowerLibrary = power.Library
	// ExperimentConfig sizes the table/figure reproductions.
	ExperimentConfig = experiments.Config
	// Recorder collects phase spans, hardware-event counters and run
	// reports; attach one via PipelineConfig.Obs or
	// ExperimentConfig.Obs. A nil Recorder disables all recording.
	Recorder = obs.Recorder
	// RunReport is one run's instrumentation snapshot
	// (Recorder.Report): spans, counters, gauges, histograms.
	RunReport = obs.Report
	// EnergyBreakdown groups energy (pJ) or area (µm²) by component
	// class — the grouping of the paper's Fig. 1.
	EnergyBreakdown = power.Breakdown
)

// NewRecorder returns an empty instrumentation recorder whose clock
// starts now.
func NewRecorder() *Recorder { return obs.New() }

// The three hardware structures of Table 5.
const (
	StructDACADC    = seicore.StructDACADC
	StructOneBitADC = seicore.StructOneBitADC
	StructSEI       = seicore.StructSEI
)

// SyntheticDataset generates n deterministic synthetic MNIST-style
// samples (see internal/mnist for the substitution rationale).
func SyntheticDataset(n int, seed int64) *Dataset { return mnist.Synthetic(n, seed) }

// SyntheticSplit returns disjoint train/test synthetic datasets.
func SyntheticSplit(nTrain, nTest int, seed int64) (train, test *Dataset) {
	return mnist.SyntheticSplit(nTrain, nTest, seed)
}

// LoadMNIST loads the real MNIST IDX files from dir.
func LoadMNIST(dir string) (train, test *Dataset, err error) {
	return mnist.LoadIDXDir(dir)
}

// TrainTableNetwork trains Table-2 network id (1, 2 or 3) on the
// dataset for the given epochs with deterministic seeding.
func TrainTableNetwork(id int, train *Dataset, epochs int, seed int64) *Network {
	net := nn.NewTableNetwork(id, seed)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.Seed = seed
	nn.Train(net, train, cfg)
	return net
}

// EvaluateNetwork returns the float network's test error rate.
func EvaluateNetwork(net *Network, test *Dataset) float64 { return nn.ErrorRate(nil, net, test, 0) }

// Quantize runs Algorithm 1 (weight re-scaling plus greedy threshold
// search) on a trained network, then the FC-recalibration and
// threshold-refinement calibration passes, using all cores.
func Quantize(net *Network, train *Dataset) (*QuantizedNet, error) {
	return quantizeObs(nil, net, train, 0)
}

func quantizeObs(rec *obs.Recorder, net *Network, train *Dataset, workers int) (*QuantizedNet, error) {
	cfg := quant.DefaultSearchConfig()
	cfg.Workers = workers
	cfg.Obs = rec
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, cfg)
	if err != nil {
		return nil, err
	}
	rcfg := quant.DefaultRefineConfig()
	rcfg.Workers = workers
	rcfg.Obs = rec
	if err := quant.Calibrate(q, train, rcfg); err != nil {
		return nil, err
	}
	return q, nil
}

// EvaluateQuantized returns the digital binarized network's test error
// rate.
func EvaluateQuantized(q *QuantizedNet, test *Dataset) float64 { return nn.ErrorRate(nil, q, test, 0) }

// SaveDesignFile persists a built design — programmed effective
// weights and calibrated thresholds — to path, creating parent
// directories. A design loaded back predicts bit-identically.
func SaveDesignFile(d *SEIDesign, path string) error { return d.SaveFile(path) }

// LoadDesignFile reads a design written by SaveDesignFile. seed
// re-anchors read-noise streams for designs whose device model is
// noisy; noise-free designs (the default) ignore it.
func LoadDesignFile(path string, seed int64) (*SEIDesign, error) {
	return seicore.LoadDesignFile(path, seed)
}

// Classifier is anything that maps an image to a class — float
// networks, quantized networks, and hardware designs all implement it.
type Classifier = nn.Classifier

// Image is one input picture: a [1, 28, 28] tensor with pixel values
// in [0, 1]. Dataset.Images holds them; the serving API predicts them.
type Image = tensor.Tensor

// ErrBadInput marks predictions rejected because of malformed input —
// wrong image shape, non-finite pixels, or a layer panic recovered at
// the facade boundary. Match with errors.Is.
var ErrBadInput = nn.ErrBadInput

// PredictResult is one image's outcome in a batch predict: a label, or
// an ErrBadInput-wrapped error (in which case Label is -1).
type PredictResult = nn.PredictResult

// EvaluateDesign returns any classifier's test error rate.
func EvaluateDesign(d Classifier, test *Dataset) float64 {
	return nn.ErrorRate(nil, d, test, 0)
}

// EvaluateDesignObs is EvaluateDesign with instrumentation: engine
// scheduling counters, the eval_images counter and — for hardware
// designs — the hw_* hardware-event counters feed rec (nil = off),
// ready for counter-derived energy accounting via EnergyFromCounters.
// Designs that support it (SEIDesign and the merged/float references)
// are re-instrumented onto rec for the evaluation and stay attached
// afterwards, exactly as if they had been built with that recorder.
func EvaluateDesignObs(rec *Recorder, d Classifier, test *Dataset, workers int) float64 {
	if rec != nil {
		if ins, ok := d.(interface{ Instrument(*obs.Recorder) }); ok {
			ins.Instrument(rec)
		}
	}
	return nn.ErrorRate(rec, d, test, workers)
}

// DefaultPowerLibrary returns the calibrated component energy/area
// constants behind Fig. 1 and Table 5 (see internal/power).
func DefaultPowerLibrary() PowerLibrary { return power.DefaultLibrary() }

// EnergyFromCounters joins an instrumented run's hardware-event
// counter totals (hw_sa_comparisons, hw_active_inputs,
// hw_column_activations, …) against the power library's component
// constants: the measured, data-dependent counterpart of MapCosts's
// static accounting. The breakdown covers the whole run; divide by
// the image count (EnergyPerInferencePJ) for a per-picture figure.
func EnergyFromCounters(rep RunReport, lib PowerLibrary) (EnergyBreakdown, error) {
	return power.EnergyFromCounters(rep, lib)
}

// EnergyPerInferencePJ returns the counter-derived energy of one
// inference in picojoules: the run total from EnergyFromCounters
// divided by the run's eval_images counter.
func EnergyPerInferencePJ(rep RunReport, lib PowerLibrary) (float64, error) {
	return power.EnergyPerInferencePJ(rep, lib, rep.Counters[nn.MetricEvalImages])
}

// Predict classifies one image, validating it first and containing any
// layer panic a malformed image provokes: the process never dies, the
// caller gets an ErrBadInput-wrapped error instead.
func Predict(d Classifier, img *Image) (int, error) {
	return nn.Predict(d, img)
}

// PredictBatch classifies a batch of images on the deterministic
// parallel engine (workers as in PipelineConfig: 0 = all cores, 1 =
// serial) and returns one result per image. Ideal-analog SEI designs
// route full 64-image groups through the bit-sliced batch kernel (64
// images per machine word; ragged tails run per-image) — labels stay
// bit-identical to offline evaluation at any batch size and worker
// count, noisy designs keep the per-image chunk grid with its
// per-chunk noise seeding. Malformed images fail individually with
// ErrBadInput; the rest of the batch is unaffected.
func PredictBatch(d Classifier, imgs []*Image, workers int) ([]PredictResult, error) {
	if err := par.Validate(workers); err != nil {
		return nil, fmt.Errorf("sei: %w", err)
	}
	return nn.PredictBatchObs(nil, d, imgs, workers), nil
}

// PipelineConfig sizes RunPipeline.
type PipelineConfig struct {
	NetworkID    int
	TrainSamples int
	TestSamples  int
	Epochs       int
	Seed         int64
	MaxCrossbar  int
	Log          io.Writer
	// Workers bounds the parallel engine for every stage (0 = all
	// cores, 1 = the serial path); results are bit-identical for any
	// worker count.
	Workers int
	// Obs, when set, records phase spans (train → quantize → build →
	// evaluate), hardware-event counters and throughput for the run;
	// nil disables recording. Instrumentation never feeds back into
	// computation, so recorded runs are bit-identical to unrecorded
	// ones.
	Obs *obs.Recorder
}

// DefaultPipelineConfig runs Network 2 at a laptop-friendly size.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		NetworkID:    2,
		TrainSamples: 2000,
		TestSamples:  400,
		Epochs:       4,
		Seed:         1,
		MaxCrossbar:  rram.MaxCrossbarSize,
	}
}

// PipelineResult summarizes one end-to-end run.
type PipelineResult struct {
	FloatError   float64
	QuantError   float64
	SEIError     float64
	EnergyUJ     float64 // SEI design, per picture
	BaseEnergyUJ float64 // DAC+ADC design, per picture
	EnergySaving float64
	AreaMM2      float64
	BaseAreaMM2  float64
	AreaSaving   float64
	GOPsPerJ     float64
}

// RunPipeline executes the full paper pipeline: train → quantize →
// map to SEI → evaluate accuracy and energy/area against the DAC+ADC
// baseline.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	if cfg.NetworkID < 1 || cfg.NetworkID > 3 {
		return nil, fmt.Errorf("sei: network id %d outside [1,3]", cfg.NetworkID)
	}
	if err := par.Validate(cfg.Workers); err != nil {
		return nil, fmt.Errorf("sei: %w", err)
	}
	train, test := SyntheticSplit(cfg.TrainSamples, cfg.TestSamples, cfg.Seed)
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format, args...)
		}
	}
	logf("sei: training network %d on %d samples\n", cfg.NetworkID, train.Len())
	sp := cfg.Obs.StartSpan("train")
	net := nn.NewTableNetwork(cfg.NetworkID, cfg.Seed)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = cfg.Epochs
	tcfg.Seed = cfg.Seed
	tcfg.Workers = cfg.Workers
	tcfg.Obs = cfg.Obs
	nn.Train(net, train, tcfg)
	sp.AddSamples(int64(train.Len() * cfg.Epochs))
	sp.End()
	res := &PipelineResult{FloatError: nn.ErrorRate(cfg.Obs, net, test, cfg.Workers)}
	logf("sei: float error %.4f; quantizing\n", res.FloatError)

	sp = cfg.Obs.StartSpan("quantize")
	q, err := quantizeObs(cfg.Obs, net, train, cfg.Workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.QuantError = nn.ErrorRate(cfg.Obs, q, test, cfg.Workers)
	logf("sei: quantized error %.4f; mapping to SEI\n", res.QuantError)

	sp = cfg.Obs.StartSpan("build")
	opt := DefaultBuildOptions()
	opt.MaxCrossbar = cfg.MaxCrossbar
	opt.Seed = cfg.Seed
	design, err := buildDesign(q, train, opt, cfg.Workers, cfg.Obs)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = cfg.Obs.StartSpan("evaluate")
	res.SEIError = nn.ErrorRate(cfg.Obs, design, test, cfg.Workers)
	sp.AddSamples(int64(test.Len()))
	sp.End()
	logf("sei: SEI hardware error %.4f; computing energy/area\n", res.SEIError)

	costs, err := MapCosts(q, cfg.MaxCrossbar)
	if err != nil {
		return nil, err
	}
	base, sei := costs[0], costs[2]
	res.BaseEnergyUJ, res.EnergyUJ, res.EnergySaving = base.EnergyUJ, sei.EnergyUJ, sei.EnergySaving
	res.BaseAreaMM2, res.AreaMM2, res.AreaSaving = base.AreaMM2, sei.AreaMM2, sei.AreaSaving
	res.GOPsPerJ = sei.GOPsPerJ
	return res, nil
}

// RunAllExperiments regenerates every table and figure of the paper,
// printing each in the paper's layout. It is the programmatic form of
// `seisim all`.
func RunAllExperiments(cfg ExperimentConfig, w io.Writer) error {
	c := experiments.NewContext(cfg)
	fig1, err := experiments.Figure1(c, 1)
	if err != nil {
		return err
	}
	fig1.Print(w)
	fmt.Fprintln(w)
	experiments.Table1(c, 1, 2, 3).Print(w)
	fmt.Fprintln(w)
	experiments.PrintTable2(w, experiments.Table2(c))
	fmt.Fprintln(w)
	experiments.PrintTable3(w, experiments.Table3(c, 1, 2, 3))
	fmt.Fprintln(w)
	experiments.Table4(c, 1, []int{512, 256}).Print(w)
	fmt.Fprintln(w)
	t5, err := experiments.Table5(c, experiments.PaperTable5Points())
	if err != nil {
		return err
	}
	t5.Print(w)
	fmt.Fprintln(w)
	experiments.PrintHomogStudy(w, 1, experiments.HomogenizationStudy(c, 1, 512))
	fmt.Fprintln(w)
	experiments.PrintEfficiency(w, experiments.EfficiencyComparison(c, 1, 2, 3))
	fmt.Fprintln(w)
	timing, err := experiments.TimingStudy(c, 1, 8)
	if err != nil {
		return err
	}
	experiments.PrintTiming(w, 1, timing)
	fmt.Fprintln(w)
	vgg, err := experiments.VGGAnalysis()
	if err != nil {
		return err
	}
	experiments.PrintVGG(w, vgg)
	return nil
}
