package seicore

import (
	"fmt"
	"math/rand"

	"sei/internal/bitvec"
	"sei/internal/obs"
	"sei/internal/rram"
	"sei/internal/tensor"
)

// SignedMode selects how signed weights are realized in a single SEI
// crossbar (Section 4.1 vs 4.2).
type SignedMode int

const (
	// ModeBipolar uses positive and negative voltages on the extra
	// port: four cells per weight with coefficients ±2⁴ and ±1.
	ModeBipolar SignedMode = iota
	// ModeUnipolarDynamic is for devices that cannot take negative
	// inputs: weights are linearly mapped to positive values (two cells
	// per weight) and an input-selected dynamic-threshold column
	// subtracts the bias (Section 4.2, Fig. 4).
	ModeUnipolarDynamic
)

// CellsPerWeight returns how many physical rows one logical input
// occupies in this mode with the paper's default 4-bit device
// (ceil(8/4) = 2 slices). For other device precisions use
// CellsPerWeightFor.
func (m SignedMode) CellsPerWeight() int { return m.CellsPerWeightFor(4) }

// CellsPerWeightFor returns physical rows per logical input for a
// device with the given bits per cell: ceil(8/bits) slices, doubled
// for the bipolar positive/negative pair.
func (m SignedMode) CellsPerWeightFor(deviceBits int) int {
	n := rram.SliceCount(rram.WeightBits, deviceBits)
	if m == ModeUnipolarDynamic {
		return n
	}
	return 2 * n
}

func (m SignedMode) String() string {
	if m == ModeUnipolarDynamic {
		return "unipolar-dynamic"
	}
	return "bipolar"
}

// LayerOptions configures the mapping of one logical matrix onto SEI
// crossbars.
type LayerOptions struct {
	Model       rram.DeviceModel
	MaxCrossbar int // physical row/column limit (paper: 512 or 256)
	Mode        SignedMode
	Order       []int // logical-row permutation for splitting; nil = natural
}

// DefaultLayerOptions uses the paper's default experiment setup.
func DefaultLayerOptions() LayerOptions {
	return LayerOptions{
		Model:       rram.DefaultDeviceModel(),
		MaxCrossbar: rram.MaxCrossbarSize,
		Mode:        ModeBipolar,
	}
}

func (o LayerOptions) validate(n, m int) error {
	if err := o.Model.Validate(); err != nil {
		return err
	}
	if o.MaxCrossbar <= 0 || o.MaxCrossbar > rram.MaxCrossbarSize {
		return fmt.Errorf("seicore: max crossbar size %d outside (0,%d]", o.MaxCrossbar, rram.MaxCrossbarSize)
	}
	// One column is reserved for the dynamic-threshold column.
	if m+1 > o.MaxCrossbar {
		return fmt.Errorf("seicore: %d output columns (+1 threshold) exceed crossbar width %d", m, o.MaxCrossbar)
	}
	if o.Order != nil {
		if len(o.Order) != n {
			return fmt.Errorf("seicore: order length %d, want %d", len(o.Order), n)
		}
		seen := make([]bool, n)
		for _, idx := range o.Order {
			if idx < 0 || idx >= n || seen[idx] {
				return fmt.Errorf("seicore: order is not a permutation of 0..%d", n-1)
			}
			seen[idx] = true
		}
	}
	return nil
}

// seiBlock is one physical crossbar holding a contiguous slice of the
// (permuted) logical inputs.
type seiBlock struct {
	inputs []int          // logical input indices stored in this block
	eff    *tensor.Tensor // [len(inputs), M] effective weights
	w0     []float64      // per-local-row dynamic column (unipolar mode), nil otherwise
	// contig marks blocks whose inputs are consecutive ascending
	// logical indices (the natural-order split). The bit-packed fast
	// path then iterates set bits of the input word directly instead of
	// testing one bit per row. Derived from inputs at construction and
	// load; see initFast.
	contig bool
	// bnd is the runtime activation-bound suffix table (bounds.go);
	// nil when the block can't be bounded (dynamic w0 column, too many
	// columns). Built by SEIDesign.initBounds or restored from a
	// snapshot; a function of eff only.
	bnd *colBounds
	// sq is eff with every entry squared — the per-column variance
	// table of the aggregated-noise approximation (noise.go). Built by
	// initNoiseTables only for layers with per-cell read noise; a
	// function of eff only, so never persisted.
	sq *tensor.Tensor
}

// initSquares builds the block's squared-weight table (sq), the
// per-column variance source of the aggregated-noise approximation.
// Idempotent; a function of eff only.
func (b *seiBlock) initSquares() {
	if b.sq != nil {
		return
	}
	sq := tensor.New(b.eff.Shape()...)
	for i, v := range b.eff.Data() {
		sq.Data()[i] = v * v
	}
	b.sq = sq
}

// initFast derives the fast-path metadata from the block's input list.
func (b *seiBlock) initFast() {
	b.contig = len(b.inputs) > 0
	for i, j := range b.inputs {
		if j != b.inputs[0]+i {
			b.contig = false
			break
		}
	}
}

// sums accumulates the block's analog column outputs for one input
// vector: the main column sums, the dynamic-threshold column sum, and
// the number of active inputs. IR drop and read noise are applied by
// the caller, which owns the device model.
func (b *seiBlock) sums(in []float64, m int) (main []float64, w0sum float64, ones int) {
	main = make([]float64, m)
	for local, j := range b.inputs {
		if in[j] == 0 {
			continue
		}
		ones++
		row := b.eff.Data()[local*m : (local+1)*m]
		for c, v := range row {
			main[c] += v
		}
		if b.w0 != nil {
			w0sum += b.w0[local]
		}
	}
	return main, w0sum, ones
}

// sumsBits is the bit-packed, allocation-free variant of sums: the
// active inputs arrive as a packed bit vector indexed in the block's
// logical input space and the column sums are accumulated into the
// caller's scratch slice main (len M, zeroed here). Rows are visited
// in ascending local order — exactly the order of sums's skip-zero
// loop — so the float accumulation is bit-identical to the float path
// (the determinism goldens depend on this; see DESIGN.md §11).
func (b *seiBlock) sumsBits(in *bitvec.Vec, main []float64) (w0sum float64, ones int) {
	for c := range main {
		main[c] = 0
	}
	m := len(main)
	data := b.eff.Data()
	if b.contig {
		// Consecutive ascending inputs: walk the set bits of the
		// block's window range word-wise, skipping 64 inactive rows per
		// word test. Ascending logical order is ascending local order.
		lo := b.inputs[0]
		hi := lo + len(b.inputs)
		for j := in.NextSet(lo); j >= 0 && j < hi; j = in.NextSet(j + 1) {
			local := j - lo
			ones++
			row := data[local*m : (local+1)*m]
			for c, v := range row {
				main[c] += v
			}
			if b.w0 != nil {
				w0sum += b.w0[local]
			}
		}
		return w0sum, ones
	}
	for local, j := range b.inputs {
		if !in.Get(j) {
			continue
		}
		ones++
		row := data[local*m : (local+1)*m]
		for c, v := range row {
			main[c] += v
		}
		if b.w0 != nil {
			w0sum += b.w0[local]
		}
	}
	return w0sum, ones
}

// SEIConvLayer is one conv stage mapped on SEI crossbars with sense-
// amplifier threshold readout: outputs are bits. Splitting produces K
// blocks, each thresholding locally (BaseThr + dynamic compensation);
// the final bit fires when at least DigitalThreshold blocks fire
// (Section 4.3, Fig. 2d).
type SEIConvLayer struct {
	N, M, K int
	Mode    SignedMode

	blocks []seiBlock
	model  rram.DeviceModel
	// noise is the per-column read-noise RNG (one multiplicative draw
	// per column current); cells is the per-cell draw stream (one draw
	// per selected cell, noise.go). At most one is non-nil, selected by
	// the device model's ReadNoisePerCell flag.
	noise *rand.Rand
	cells *noiseStream
	hw    *obs.HW     // hardware-event counters; nil = not instrumented
	skip  *obs.SkipHW // activation-bound skip counters; nil = not instrumented
	// word caches wordWindowEligible for the packed walker's kernel
	// choice (convKernel); set by initFastPath.
	word bool

	// Threshold is the layer's logical binarization threshold (from
	// Algorithm 1), in weight·input units.
	Threshold float64
	// BaseThr is each block's static SA reference; defaults to the
	// block's share Threshold·|block|/N.
	BaseThr []float64
	// Gamma is the dynamic-threshold slope: block b's reference becomes
	// BaseThr[b] + Gamma·(ones_b − OnesMean[b]). Zero = static.
	Gamma float64
	// OnesMean is the calibrated mean active-input count per block.
	OnesMean []float64
	// DigitalThreshold is D: minimum fired blocks for an output 1.
	DigitalThreshold int
}

// NewSEIConvLayer maps the real weight matrix w [N inputs, M kernels]
// with binarization threshold thr onto SEI crossbars.
func NewSEIConvLayer(w *tensor.Tensor, thr float64, opt LayerOptions, rng *rand.Rand) (*SEIConvLayer, error) {
	n, m := w.Dim(0), w.Dim(1)
	if err := opt.validate(n, m); err != nil {
		return nil, err
	}
	var (
		eff *tensor.Tensor
		w0  []float64
		err error
	)
	if opt.Mode == ModeUnipolarDynamic {
		eff, w0, err = EffectiveUnipolarMatrix(w, opt.Model, rng)
	} else {
		eff, _, err = EffectiveSignedMatrix(w, opt.Model, rng)
	}
	if err != nil {
		return nil, err
	}
	order := opt.Order
	if order == nil {
		order = NaturalOrder(n)
	}
	k := BlocksFor(n, opt.Mode.CellsPerWeightFor(opt.Model.Bits), opt.MaxCrossbar)
	l := &SEIConvLayer{
		N: n, M: m, K: k, Mode: opt.Mode,
		model:            opt.Model,
		Threshold:        thr,
		BaseThr:          make([]float64, k),
		OnesMean:         make([]float64, k),
		DigitalThreshold: (k + 2) / 2, // majority: ceil((K+1)/2)
	}
	if opt.Model.ReadNoiseSigma > 0 {
		if opt.Model.ReadNoisePerCell {
			l.cells = newNoiseStream(int64(rng.Uint64()))
		} else {
			l.noise = rng
		}
	}
	for _, blockInputs := range SplitOrder(order, k) {
		b := seiBlock{
			inputs: append([]int(nil), blockInputs...),
			eff:    gatherRows(eff, blockInputs),
		}
		if w0 != nil {
			b.w0 = make([]float64, len(blockInputs))
			for i, j := range blockInputs {
				b.w0[i] = w0[j]
			}
		}
		b.initFast()
		l.blocks = append(l.blocks, b)
	}
	for bi, b := range l.blocks {
		l.BaseThr[bi] = thr * float64(len(b.inputs)) / float64(n)
	}
	return l, nil
}

// gatherRows builds the sub-matrix of the given rows.
func gatherRows(w *tensor.Tensor, rows []int) *tensor.Tensor {
	m := w.Dim(1)
	out := tensor.New(len(rows), m)
	for i, r := range rows {
		copy(out.Data()[i*m:(i+1)*m], w.Data()[r*m:(r+1)*m])
	}
	return out
}

// Eval computes the layer's output bits for one 0/1 input vector.
func (l *SEIConvLayer) Eval(in []float64) []bool {
	if len(in) != l.N {
		panic(fmt.Sprintf("seicore: SEIConvLayer input length %d, want %d", len(in), l.N))
	}
	fired := make([]int, l.M)
	var g []float64
	if l.cells != nil {
		g = make([]float64, l.M)
	}
	for bi := range l.blocks {
		b := &l.blocks[bi]
		main, w0sum, ones := b.sums(in, l.M)
		l.hw.ActiveInputs(int64(ones))
		l.applyAnalog(b, in, main, ones, g)
		ref := l.BaseThr[bi] + l.Gamma*(float64(ones)-l.OnesMean[bi]) + w0sum
		for c, s := range main {
			if s > ref {
				fired[c]++
			}
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.SACompares(int64(l.K * l.M))
		h.ColumnActivations(int64(l.K * l.M))
	}
	out := make([]bool, l.M)
	for c, f := range fired {
		out[c] = f >= l.DigitalThreshold
	}
	return out
}

// BlockSums exposes the per-block analog sums and active counts for
// one input — used by calibration and by tests.
func (l *SEIConvLayer) BlockSums(in []float64) (main [][]float64, w0 []float64, ones []int) {
	main = make([][]float64, l.K)
	w0 = make([]float64, l.K)
	ones = make([]int, l.K)
	var g []float64
	if l.cells != nil {
		g = make([]float64, l.M)
	}
	for bi := range l.blocks {
		b := &l.blocks[bi]
		m, w, o := b.sums(in, l.M)
		l.hw.ActiveInputs(int64(o))
		l.applyAnalog(b, in, m, o, g)
		main[bi], w0[bi], ones[bi] = m, w, o
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.ColumnActivations(int64(l.K * l.M))
	}
	return main, w0, ones
}

// applyAnalog applies the model's read-time effects to one block's
// column sums. Per-cell read noise perturbs the raw cell currents
// first (noise.go, ascending active rows — g is the caller's length-M
// draw scratch, unused when l.cells is nil), then the IR-drop factor
// scales the column current, then per-column read noise multiplies
// the scaled sum (the original ordering — per-column and per-cell are
// mutually exclusive by construction). The sinh I-V nonlinearity does
// not appear here: SEI inputs are 0 or full swing, and the full-swing
// gain is removed by one-point calibration (rram.TransferCalibrated),
// so 1-bit layers are exactly immune to it.
func (l *SEIConvLayer) applyAnalog(b *seiBlock, in []float64, sums []float64, ones int, g []float64) {
	if l.cells != nil {
		l.hw.NoiseDraws(int64(cellNoiseFloat(l.cells, l.model.ReadNoiseSigma, b, in, sums, g)))
	}
	if a := l.model.IRDropAlpha; a > 0 {
		scale := 1 - a*float64(ones*l.Mode.CellsPerWeightFor(l.model.Bits))/float64(rram.MaxCrossbarSize)
		for c := range sums {
			sums[c] *= scale
		}
	}
	if l.noise != nil {
		for c := range sums {
			sums[c] *= 1 + l.model.ReadNoiseSigma*l.noise.NormFloat64()
		}
		l.hw.NoiseDraws(int64(len(sums)))
	}
}

// SEIFCLayer is the final fully-connected stage on SEI crossbars. Its
// outputs feed the classifier's argmax rather than a threshold, so
// each block's columns are read out once per picture (M·K conversions
// — e.g. 10×3 for Network 3, a negligible interface cost accounted by
// package arch) and summed digitally, with the bias added digitally.
type SEIFCLayer struct {
	N, M, K int
	Mode    SignedMode

	blocks []seiBlock
	model  rram.DeviceModel
	// noise/cells: per-column RNG or per-cell draw stream, as on
	// SEIConvLayer; at most one is non-nil.
	noise *rand.Rand
	cells *noiseStream
	hw    *obs.HW // hardware-event counters; nil = not instrumented
	Bias  []float64
}

// NewSEIFCLayer maps the FC matrix w [N inputs, M classes] and bias
// onto SEI crossbars.
func NewSEIFCLayer(w *tensor.Tensor, bias []float64, opt LayerOptions, rng *rand.Rand) (*SEIFCLayer, error) {
	n, m := w.Dim(0), w.Dim(1)
	if len(bias) != m {
		return nil, fmt.Errorf("seicore: FC bias length %d, want %d", len(bias), m)
	}
	if err := opt.validate(n, m); err != nil {
		return nil, err
	}
	var (
		eff *tensor.Tensor
		w0  []float64
		err error
	)
	if opt.Mode == ModeUnipolarDynamic {
		eff, w0, err = EffectiveUnipolarMatrix(w, opt.Model, rng)
	} else {
		eff, _, err = EffectiveSignedMatrix(w, opt.Model, rng)
	}
	if err != nil {
		return nil, err
	}
	order := opt.Order
	if order == nil {
		order = NaturalOrder(n)
	}
	k := BlocksFor(n, opt.Mode.CellsPerWeightFor(opt.Model.Bits), opt.MaxCrossbar)
	l := &SEIFCLayer{
		N: n, M: m, K: k, Mode: opt.Mode,
		model: opt.Model,
		Bias:  append([]float64(nil), bias...),
	}
	if opt.Model.ReadNoiseSigma > 0 {
		if opt.Model.ReadNoisePerCell {
			l.cells = newNoiseStream(int64(rng.Uint64()))
		} else {
			l.noise = rng
		}
	}
	for _, blockInputs := range SplitOrder(order, k) {
		b := seiBlock{
			inputs: append([]int(nil), blockInputs...),
			eff:    gatherRows(eff, blockInputs),
		}
		if w0 != nil {
			b.w0 = make([]float64, len(blockInputs))
			for i, j := range blockInputs {
				b.w0[i] = w0[j]
			}
		}
		b.initFast()
		l.blocks = append(l.blocks, b)
	}
	return l, nil
}

// Eval computes the classifier scores for one 0/1 input vector.
func (l *SEIFCLayer) Eval(in []float64) []float64 {
	if len(in) != l.N {
		panic(fmt.Sprintf("seicore: SEIFCLayer input length %d, want %d", len(in), l.N))
	}
	out := append([]float64(nil), l.Bias...)
	var g []float64
	if l.cells != nil {
		g = make([]float64, l.M)
	}
	for bi := range l.blocks {
		b := &l.blocks[bi]
		main, w0sum, ones := b.sums(in, l.M)
		l.hw.ActiveInputs(int64(ones))
		w0sum = l.applyAnalogFC(b, in, main, w0sum, ones, g)
		for c, s := range main {
			out[c] += s - w0sum
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.ColumnActivations(int64(l.K * l.M))
	}
	return out
}

// applyAnalogFC applies the model's read-time effects to one FC
// block's column sums, in the same order as SEIConvLayer.applyAnalog:
// per-cell noise on the raw sums, IR drop on main and the dynamic
// column, per-column noise on main. Returns the (possibly IR-scaled)
// w0 sum — the dynamic column carries no read noise in either mode,
// matching the original per-column behaviour.
func (l *SEIFCLayer) applyAnalogFC(b *seiBlock, in []float64, main []float64, w0sum float64, ones int, g []float64) float64 {
	if l.cells != nil {
		l.hw.NoiseDraws(int64(cellNoiseFloat(l.cells, l.model.ReadNoiseSigma, b, in, main, g)))
	}
	if a := l.model.IRDropAlpha; a > 0 {
		scale := 1 - a*float64(ones*l.Mode.CellsPerWeightFor(l.model.Bits))/float64(rram.MaxCrossbarSize)
		for c := range main {
			main[c] *= scale
		}
		w0sum *= scale
	}
	if l.noise != nil {
		for c := range main {
			main[c] *= 1 + l.model.ReadNoiseSigma*l.noise.NormFloat64()
		}
		l.hw.NoiseDraws(int64(len(main)))
	}
	return w0sum
}
