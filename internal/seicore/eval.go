package seicore

import (
	"fmt"
	"math/rand"
	"sync"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/tensor"
)

// Structure identifies the three crossbar organizations of Table 5.
type Structure int

const (
	// StructDACADC is the original design: 8-bit data through DACs,
	// four crossbars per matrix merged by ADCs (Fig. 2b).
	StructDACADC Structure = iota
	// StructOneBitADC keeps ADC merging but feeds quantized 1-bit
	// intermediate data (no DACs except the input layer).
	StructOneBitADC
	// StructSEI is the proposed design: 1-bit inputs as selection
	// signals, merging inside the analog sum, sense amplifiers instead
	// of ADCs (Fig. 2c/d).
	StructSEI
)

func (s Structure) String() string {
	switch s {
	case StructDACADC:
		return "DAC+ADC"
	case StructOneBitADC:
		return "1-bit-Input+ADC"
	case StructSEI:
		return "SEI"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// SEIBuildConfig configures BuildSEI.
type SEIBuildConfig struct {
	Layer LayerOptions
	// Orders[l] permutes conv stage l's logical rows before splitting
	// (from package homog); nil entries use natural order. Only stages
	// that actually split (K > 1) are affected.
	Orders [][]int
	// DynamicThreshold enables the Section-4.3 input-dynamic
	// compensation, calibrated on the training set.
	DynamicThreshold bool
	// Calibration controls the γ/D search when DynamicThreshold or
	// SearchDigital calibration is wanted.
	Calibration CalibrationConfig
	// CalibImages and CalibPositions bound the calibration workload:
	// up to CalibImages training images, up to CalibPositions receptive
	// fields sampled per image and stage.
	CalibImages, CalibPositions int
	// Workers bounds the calibration's parallel engine (0 = all cores,
	// 1 = the serial path). Calibration results are bit-identical for
	// every worker count.
	Workers int
	// Obs, when set, instruments the built design (hardware-event
	// counters) and records calibration counters
	// (sei_calib_candidates, sei_calib_samples); nil disables recording.
	Obs *obs.Recorder
}

// DefaultSEIBuildConfig returns the paper's default SEI setup.
func DefaultSEIBuildConfig() SEIBuildConfig {
	return SEIBuildConfig{
		Layer:            DefaultLayerOptions(),
		DynamicThreshold: true,
		Calibration:      DefaultCalibrationConfig(),
		CalibImages:      60,
		CalibPositions:   24,
	}
}

// SEIDesign is a quantized network mapped onto the SEI structure. The
// input layer keeps the DAC+ADC organization (Section 3.2: input
// pictures still need high precision); deeper conv stages are SEI
// crossbars with SA readout; the FC stage is SEI with per-block
// digital summation feeding the argmax.
type SEIDesign struct {
	Q     *quant.QuantizedNet
	Input *MergedLayer // conv stage 0 (DAC-driven)
	Convs []*SEIConvLayer
	FC    *SEIFCLayer
	// CalibResults records per-stage calibration outcomes (stage index
	// ≥ 1), when calibration ran.
	CalibResults map[int]CalibrationResult

	// packed caches whether every stage reads out linearly, which lets
	// the packed walker (fast.go) reproduce the float path; ideal
	// whether every read-out is exact, which the sliced walker
	// (sliced.go) and bounded mode need. strip0 caches the static half
	// of the stage-0 kernel choice (stage0Kernel). scratch holds the
	// packed walker's *seiScratch arena pool (nil unless packed) and
	// sliced the sliced walker's *slicedScratch pool (nil unless
	// ideal). All are set once by initFastPath at build/load time,
	// before the design is shared across goroutines.
	packed, ideal, strip0 bool
	scratch, sliced       *sync.Pool
	// fastOff (SetFastPath), bounded (SetBounded) and approxNoise
	// (SetNoiseApprox) are the mode toggles.
	fastOff, bounded, approxNoise bool
}

// initFastPath caches the walkers' eligibility and static kernel facts
// and creates the scratch arena pools. Called once at construction
// (BuildSEI / LoadDesign). Bound tables are built for ideal designs,
// but the bounded walk itself stays off until SetBounded.
func (d *SEIDesign) initFastPath() {
	d.packed = d.readoutAll(rram.ReadoutParams.Linear)
	d.ideal = d.readoutAll(rram.ReadoutParams.Ideal)
	if d.packed {
		d.scratch = &sync.Pool{}
	}
	if d.ideal {
		d.sliced = &sync.Pool{}
	}
	d.strip0 = d.Input.cells == nil && d.Q.Convs[0].Stride == 1
	for _, l := range d.Convs {
		l.word = l.wordWindowEligible()
	}
	d.initBounds()
	d.initNoiseTables()
}

// SetFastPath enables (the default for eligible designs) or disables
// the packed walkers, per-image and sliced. Disabling forces the float
// path — used by benchmarks and by the determinism tests that pin
// packed-vs-float bit-identity. It cannot enable the packed walkers on
// designs with a nonlinear read-out. Not safe to call concurrently
// with evaluation.
func (d *SEIDesign) SetFastPath(on bool) { d.fastOff = !on }

// SetBounded enables the runtime activation-bound walk on ideal
// designs (per-image and bit-sliced): crossbar rows that provably
// cannot change any undecided column's sense-amp decision are never
// driven, and pool-cropped window positions are skipped wholesale.
// Labels are bit-identical to the unbounded walk; hw_* counters shrink
// exactly where work was skipped, with the avoided work recorded on
// the sei_* skip counters. No effect on designs with read noise or IR
// drop, whose sums the bounds do not model. Not safe to call
// concurrently with evaluation.
func (d *SEIDesign) SetBounded(on bool) { d.bounded = on }

// SetNoiseApprox enables the aggregated-variance noise approximation
// on the packed walker (DESIGN.md §17): layers with per-cell read
// noise draw one Gaussian per column per block, scaled by the summed
// per-cell variance, instead of one per active cell. The per-column
// draw distribution is identical to the exact pass (pinned by
// noise_test.go's KS harness) but the draws are not bit-identical to
// it — an explicit Monte Carlo throughput trade; cmd/seisim's noisy
// study measures the accuracy delta. Layers with per-column noise are
// unaffected (their exact pass is already one draw per column). Not
// safe to call concurrently with evaluation.
func (d *SEIDesign) SetNoiseApprox(on bool) { d.approxNoise = on }

// initNoiseTables builds the squared-weight variance tables the
// aggregated-noise approximation folds into the packed sum — only for
// layers whose device model draws per-cell noise (the approximation
// is an identity elsewhere). Tables are functions of the effective
// weights, so they are derived at build/load time and never persisted.
func (d *SEIDesign) initNoiseTables() {
	for _, l := range d.Convs {
		if l.cells == nil {
			continue
		}
		for bi := range l.blocks {
			l.blocks[bi].initSquares()
		}
	}
	if d.FC.cells != nil {
		for bi := range d.FC.blocks {
			d.FC.blocks[bi].initSquares()
		}
	}
}

var _ quant.StageEval = (*SEIDesign)(nil)

// BuildSEI maps the quantized network onto SEI hardware. train is used
// only for dynamic-threshold calibration and may be nil when
// cfg.DynamicThreshold is false.
func BuildSEI(q *quant.QuantizedNet, train *mnist.Dataset, cfg SEIBuildConfig, rng *rand.Rand) (*SEIDesign, error) {
	if len(q.Convs) < 1 {
		return nil, fmt.Errorf("seicore: quantized net has no conv stages")
	}
	if err := par.Validate(cfg.Workers); err != nil {
		return nil, fmt.Errorf("seicore: build config: %w", err)
	}
	d := &SEIDesign{Q: q, CalibResults: map[int]CalibrationResult{}}

	input, err := NewMergedLayer(q.ConvMatrix(0), cfg.Layer.Model, rng)
	if err != nil {
		return nil, fmt.Errorf("seicore: input stage: %w", err)
	}
	d.Input = input

	for l := 1; l < len(q.Convs); l++ {
		opt := cfg.Layer
		if cfg.Orders != nil && l < len(cfg.Orders) {
			opt.Order = cfg.Orders[l]
		}
		layer, err := NewSEIConvLayer(q.ConvMatrix(l), q.Thresholds[l], opt, rng)
		if err != nil {
			return nil, fmt.Errorf("seicore: conv stage %d: %w", l, err)
		}
		d.Convs = append(d.Convs, layer)
	}

	fcOpt := cfg.Layer
	fcOpt.Order = nil // FC blocks are summed exactly; order is irrelevant
	fc, err := NewSEIFCLayer(q.FCMatrix(), q.FC.B, fcOpt, rng)
	if err != nil {
		return nil, fmt.Errorf("seicore: FC stage: %w", err)
	}
	d.FC = fc

	// Instrument before calibration so the γ/D search's hardware
	// activity is part of the run report, and enable the fast path so
	// the search itself runs on it (results are bit-identical either
	// way).
	d.Instrument(cfg.Obs)
	d.initFastPath()

	if cfg.DynamicThreshold && train != nil && train.Len() > 0 {
		if err := d.calibrate(train, cfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Instrument routes the design's hardware-event counters to rec; nil
// detaches. Evaluation clones made later share the counters (struct
// copies keep the pointer; the counters are atomic). The embedded
// quantized net is instrumented too: the OR-pool reductions of the
// binarized data path are recorded through it (CountORPool), so a
// design instrumented after the fact — a loaded snapshot, or
// EvaluateDesignObs on a net quantized without a recorder — reports
// the same counter set as one built inside an instrumented pipeline.
func (d *SEIDesign) Instrument(rec *obs.Recorder) {
	hw := rec.HW()
	d.Input.hw = hw
	d.Input.skip = rec.SkipHW("stage0")
	for i, l := range d.Convs {
		l.hw = hw
		l.skip = rec.SkipHW(fmt.Sprintf("stage%d", i+1))
	}
	d.FC.hw = hw
	if d.Q != nil {
		d.Q.Instrument(rec)
	}
}

// calibrate runs the Section-4.3 dynamic-threshold optimization for
// every split SEI conv stage. The paper optimizes "the interval of
// dynamic threshold" on the training set; we grid-search each split
// layer's slope γ and digital count threshold D directly against
// classification accuracy on the calibration images (the per-bit
// agreement objective of SEIConvLayer.Calibrate is too flat to
// discriminate D choices reliably).
func (d *SEIDesign) calibrate(train *mnist.Dataset, cfg SEIBuildConfig) error {
	data := train
	if cfg.CalibImages > 0 && cfg.CalibImages < train.Len() {
		data = train.Subset(cfg.CalibImages)
	}
	// The γ/D grid search mutates the layer between accuracy calls;
	// within one call d is read-only (noisy designs clone per chunk,
	// snapshotting the current γ/D), so samples fan out safely.
	accuracy := func() float64 {
		cfg.Obs.Counter("sei_calib_candidates").Add(1)
		return 1 - nn.ClassifierErrorRateObs(cfg.Obs, d, data, cfg.Workers)
	}
	for li, layer := range d.Convs {
		stage := li + 1 // conv stage index in the quantized net
		if layer.K <= 1 {
			continue // no splitting, nothing to compensate
		}
		// Per-block mean active counts from the digital pipeline.
		samples := d.collectCalibration(stage, data.Images, cfg.CalibPositions, cfg.Workers, cfg.Obs)
		if len(samples) == 0 {
			return fmt.Errorf("seicore: no calibration samples for stage %d", stage)
		}
		cfg.Obs.Counter("sei_calib_samples").Add(int64(len(samples)))
		// Active counts are noise-independent ints, but BlockSums draws
		// from the layer's noise RNG when the model has read noise, so
		// each chunk works on a re-seeded clone. Integer-valued float
		// sums are exact; folding in chunk order keeps the division
		// bit-identical anyway.
		onesMean := make([]float64, layer.K)
		meanOnes := 0.0
		type onesPartial struct {
			perBlock []float64
			total    float64
		}
		for _, p := range par.MapChunksRec(cfg.Obs, cfg.Workers, len(samples), par.DefaultChunkSize,
			func(c par.Chunk) onesPartial {
				eval := layer.evalClone(layerSeed(calibSeedBase, c.Index))
				p := onesPartial{perBlock: make([]float64, layer.K)}
				for i := c.Lo; i < c.Hi; i++ {
					_, _, ones := eval.BlockSums(samples[i].In)
					for b, o := range ones {
						p.perBlock[b] += float64(o)
						p.total += float64(o)
					}
				}
				return p
			}) {
			for b, v := range p.perBlock {
				onesMean[b] += v
			}
			meanOnes += p.total
		}
		for b := range onesMean {
			onesMean[b] /= float64(len(samples))
		}
		meanOnes /= float64(len(samples))
		layer.OnesMean = onesMean

		gammaUnit := 0.0
		if meanOnes > 0 {
			gammaUnit = layer.Threshold / meanOnes
		}
		defaultD := (layer.K + 2) / 2
		layer.Gamma, layer.DigitalThreshold = 0, defaultD
		before := accuracy()
		bestGamma, bestD, bestAcc := 0.0, defaultD, before
		for _, f := range cfg.Calibration.GammaFactors {
			gamma := f * gammaUnit
			dLo, dHi := defaultD, defaultD
			if cfg.Calibration.SearchDigital {
				dLo, dHi = 1, layer.K
			}
			for dt := dLo; dt <= dHi; dt++ {
				layer.Gamma, layer.DigitalThreshold = gamma, dt
				if acc := accuracy(); acc > bestAcc {
					bestGamma, bestD, bestAcc = gamma, dt, acc
				}
			}
		}
		layer.Gamma, layer.DigitalThreshold = bestGamma, bestD
		d.CalibResults[stage] = CalibrationResult{
			Gamma:            bestGamma,
			DigitalThreshold: bestD,
			OnesMean:         onesMean,
			AgreementBefore:  before,
			AgreementAfter:   bestAcc,
		}
	}
	return nil
}

// calibSeedBase anchors the noise streams consumed while measuring
// per-block active counts; a fixed constant keeps calibration
// reproducible and worker-count independent.
const calibSeedBase int64 = 0xCA11B

// collectCalibration gathers (receptive field, digital reference bits)
// pairs for one conv stage from training images, using the exact
// digital pipeline for both the stage inputs and the reference. Images
// are processed in parallel; per-image sample lists concatenate in
// image order, so the result is independent of the worker count.
func (d *SEIDesign) collectCalibration(stage int, images []*tensor.Tensor, maxPositions, workers int, rec *obs.Recorder) []CalibrationSample {
	q := d.Q
	digital := q.Digital()
	perImage := make([][]CalibrationSample, len(images))
	par.ForEachRec(rec, workers, len(images), func(i int) {
		acts := q.BinaryActivations(images[i])
		in := acts[stage-1] // activation map entering this stage
		c := &q.Convs[stage]
		kh, kw := c.W.Dim(2), c.W.Dim(3)
		cols := tensor.Im2Col(in, kh, kw, c.Stride)
		positions := cols.Dim(0)
		fan := cols.Dim(1)
		step := 1
		if maxPositions > 0 && positions > maxPositions {
			step = positions / maxPositions
		}
		for p := 0; p < positions; p += step {
			field := append([]float64(nil), cols.Data()[p*fan:(p+1)*fan]...)
			perImage[i] = append(perImage[i], CalibrationSample{
				In:  field,
				Ref: digital.EvalConv(stage, field),
			})
		}
	})
	var samples []CalibrationSample
	for _, s := range perImage {
		samples = append(samples, s...)
	}
	return samples
}

// EvalConv implements quant.StageEval.
func (d *SEIDesign) EvalConv(l int, in []float64) []bool {
	if l == 0 {
		out := d.Input.Eval(in)
		bits := make([]bool, len(out))
		thr := d.Q.Thresholds[0]
		for k, v := range out {
			bits[k] = v > thr
		}
		return bits
	}
	return d.Convs[l-1].Eval(in)
}

// EvalFC implements quant.StageEval.
func (d *SEIDesign) EvalFC(in []float64) []float64 { return d.FC.Eval(in) }

// Predict classifies one image through the SEI hardware simulation.
// Designs with a linear read-out everywhere — ideal or with read noise
// and/or IR drop — run the packed walker of fast.go, bit-identical to
// the float path in labels, counters and noise draws; designs with a
// sinh I-V nonlinearity, and any design after SetFastPath(false), keep
// the float path.
//
// The scratch pool hands each goroutine its own arena, so a shared
// noise-free design stays safe under the parallel engine; noisy
// designs additionally carry per-layer noise streams and go through
// CloneForEval's per-chunk clones, exactly as on the float path.
func (d *SEIDesign) Predict(img *tensor.Tensor) int {
	if d.fastOff || d.scratch == nil {
		return d.Q.PredictWith(d, img)
	}
	s, _ := d.scratch.Get().(*seiScratch)
	if s == nil {
		s = newSEIScratch(d)
	}
	label := d.predictPacked(img, s)
	d.scratch.Put(s)
	return label
}

// MergedDesign is a quantized network in which every stage keeps the
// ADC-merging organization (StructOneBitADC): functionally the digital
// quantized network computed against device-perturbed weights.
type MergedDesign struct {
	Q      *quant.QuantizedNet
	Stages []*MergedLayer
	FC     *MergedLayer
}

var _ quant.StageEval = (*MergedDesign)(nil)

// BuildOneBitADC maps the quantized network onto the 1-bit-input,
// ADC-merged structure.
func BuildOneBitADC(q *quant.QuantizedNet, model rram.DeviceModel, rng *rand.Rand) (*MergedDesign, error) {
	d := &MergedDesign{Q: q}
	for l := range q.Convs {
		layer, err := NewMergedLayer(q.ConvMatrix(l), model, rng)
		if err != nil {
			return nil, fmt.Errorf("seicore: conv stage %d: %w", l, err)
		}
		d.Stages = append(d.Stages, layer)
	}
	fc, err := NewMergedLayer(q.FCMatrix(), model, rng)
	if err != nil {
		return nil, fmt.Errorf("seicore: FC stage: %w", err)
	}
	d.FC = fc
	return d, nil
}

// Instrument routes the design's hardware-event counters to rec; nil
// detaches (see SEIDesign.Instrument).
func (d *MergedDesign) Instrument(rec *obs.Recorder) {
	hw := rec.HW()
	for _, l := range d.Stages {
		l.hw = hw
	}
	d.FC.hw = hw
}

// EvalConv implements quant.StageEval.
func (d *MergedDesign) EvalConv(l int, in []float64) []bool {
	out := d.Stages[l].Eval(in)
	bits := make([]bool, len(out))
	thr := d.Q.Thresholds[l]
	for k, v := range out {
		bits[k] = v > thr
	}
	return bits
}

// EvalFC implements quant.StageEval.
func (d *MergedDesign) EvalFC(in []float64) []float64 {
	out := d.FC.Eval(in)
	for i := range out {
		out[i] += d.Q.FC.B[i]
	}
	return out
}

// Predict classifies one image through the merged-hardware simulation.
func (d *MergedDesign) Predict(img *tensor.Tensor) int {
	return d.Q.PredictWith(d, img)
}

// FloatDesign is the original full-precision design (StructDACADC):
// 8-bit data everywhere, conv stages and FC computed on ADC-merged
// crossbars, ReLU and max pooling in the digital domain. It reproduces
// the "before quantization" accuracy against device-perturbed weights.
type FloatDesign struct {
	specs []quant.ConvSpec
	fcB   []float64
	conv  []*MergedLayer
	fc    *MergedLayer
}

// BuildDACADC maps a trained float network onto the traditional
// structure.
func BuildDACADC(net *nn.Network, inShape []int, model rram.DeviceModel, rng *rand.Rand) (*FloatDesign, error) {
	q, err := quant.Extract(net, inShape)
	if err != nil {
		return nil, err
	}
	d := &FloatDesign{specs: q.Convs, fcB: q.FC.B}
	for l := range q.Convs {
		layer, err := NewMergedLayer(q.ConvMatrix(l), model, rng)
		if err != nil {
			return nil, fmt.Errorf("seicore: conv stage %d: %w", l, err)
		}
		d.conv = append(d.conv, layer)
	}
	fc, err := NewMergedLayer(q.FCMatrix(), model, rng)
	if err != nil {
		return nil, fmt.Errorf("seicore: FC stage: %w", err)
	}
	d.fc = fc
	return d, nil
}

// Instrument routes the design's hardware-event counters to rec; nil
// detaches (see SEIDesign.Instrument).
func (d *FloatDesign) Instrument(rec *obs.Recorder) {
	hw := rec.HW()
	for _, l := range d.conv {
		l.hw = hw
	}
	d.fc.hw = hw
}

// Predict classifies one image with full-precision data flow.
func (d *FloatDesign) Predict(img *tensor.Tensor) int {
	cur := img
	for l := range d.specs {
		c := &d.specs[l]
		kh, kw := c.W.Dim(2), c.W.Dim(3)
		cols := tensor.Im2Col(cur, kh, kw, c.Stride)
		positions, fan := cols.Dim(0), cols.Dim(1)
		h, w := cur.Dim(1), cur.Dim(2)
		outH := (h-kh)/c.Stride + 1
		outW := (w-kw)/c.Stride + 1
		next := tensor.New(c.Filters(), outH, outW)
		for p := 0; p < positions; p++ {
			out := d.conv[l].Eval(cols.Data()[p*fan : (p+1)*fan])
			oy, ox := p/outW, p%outW
			for k, v := range out {
				if v > 0 { // digital ReLU
					next.Set(v, k, oy, ox)
				}
			}
		}
		if c.PoolSize > 1 {
			next = floatMaxPool(next, c.PoolSize)
		}
		cur = next
	}
	scores := d.fc.Eval(cur.Data())
	for i := range scores {
		scores[i] += d.fcB[i]
	}
	return tensor.FromSlice(scores, len(scores)).ArgMax()
}

// floatMaxPool is digital max pooling for the full-precision design.
func floatMaxPool(x *tensor.Tensor, size int) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h/size, w/size
	out := tensor.New(c, oh, ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := x.At(ch, oy*size, ox*size)
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						if v := x.At(ch, oy*size+ky, ox*size+kx); v > best {
							best = v
						}
					}
				}
				out.Set(best, ch, oy, ox)
			}
		}
	}
	return out
}
