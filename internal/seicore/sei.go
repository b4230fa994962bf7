package seicore

import (
	"fmt"
	"math/bits"
	"math/rand"

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

// Layout is how one N×M logical matrix sits on SEI crossbars
// (Section 4.1): each logical input takes Cells physical rows, a block
// holds at most Rows logical inputs, the inputs split into K balanced
// blocks, and every block has Cols physical columns, the M outputs
// plus the one reserved dynamic-threshold column.
type Layout struct {
	Cells int // physical rows per logical input
	Rows  int // most logical inputs one block holds, crossbar height / Cells
	K     int // row blocks, ceil(N/Rows)
	Cols  int // physical columns per block, M + 1
}

// LayoutFor is the one place that decides how an n-input, m-output
// layer sits on SEI crossbars under opt's device, signed mode and
// crossbar size (opt.Order is not read). A weight takes ceil(8/bits)
// cells, doubled for the bipolar positive/negative pair; K is the
// fewest blocks whose rows fit the crossbar height. It fails on an
// invalid device or mode, a crossbar size outside
// (0, rram.MaxCrossbarSize], a weight wider than the crossbar height
// and M+1 columns wider than the crossbar.
func LayoutFor(n, m int, opt LayerOptions) (Layout, error) {
	if err := opt.Model.Validate(); err != nil {
		return Layout{}, err
	}
	if opt.MaxCrossbar <= 0 || opt.MaxCrossbar > rram.MaxCrossbarSize {
		return Layout{}, fmt.Errorf("seicore: max crossbar size %d outside (0,%d]", opt.MaxCrossbar, rram.MaxCrossbarSize)
	}
	if n < 1 {
		return Layout{}, fmt.Errorf("seicore: %d logical inputs", n)
	}
	cells := rram.SliceCount(rram.WeightBits, opt.Model.Bits)
	switch opt.Mode {
	case ModeBipolar:
		cells *= 2
	case ModeUnipolarDynamic:
	default:
		return Layout{}, fmt.Errorf("seicore: unknown signed mode %d", opt.Mode)
	}
	rows := opt.MaxCrossbar / cells
	if rows == 0 {
		return Layout{}, fmt.Errorf("seicore: %d cells per weight exceed crossbar height %d", cells, opt.MaxCrossbar)
	}
	if m+1 > opt.MaxCrossbar {
		return Layout{}, fmt.Errorf("seicore: %d output columns (+1 threshold) exceed crossbar width %d", m, opt.MaxCrossbar)
	}
	return Layout{Cells: cells, Rows: rows, K: (n + rows - 1) / rows, Cols: m + 1}, nil
}

// checkOrder rejects an order that is not a permutation of 0..n-1; nil
// (the natural order) passes.
func checkOrder(order []int, n int) error {
	if order == nil {
		return nil
	}
	if len(order) != n {
		return fmt.Errorf("seicore: order length %d, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if idx < 0 || idx >= n || seen[idx] {
			return fmt.Errorf("seicore: order is not a permutation of 0..%d", n-1)
		}
		seen[idx] = true
	}
	return nil
}

// seiBlock is one physical crossbar holding a contiguous slice of the
// (permuted) logical inputs.
type seiBlock struct {
	inputs []int          // logical input indices stored in this block
	lo, hi int            // the layer-local range the inputs occupy (seiArray.layout)
	eff    *tensor.Tensor // [len(inputs), M] effective weights
	w0     []float64      // per-local-row dynamic column (unipolar mode), nil otherwise
	// bnd is the runtime activation-bound suffix table (bounds.go);
	// nil when the block can't be bounded (dynamic w0 column, too many
	// columns). Built by SEIDesign.initBounds from eff alone.
	bnd *colBounds
}

// sums accumulates the block's analog column outputs for one input
// vector: the main column sums, the dynamic-threshold column sum, and
// the number of active inputs. IR drop and read noise are applied by
// the caller's read-out.
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

// sumsBits is the bit-packed, allocation-free variant of sums: win is
// the window in layer-local order (seiArray.local), so the block's
// rows are its bits [lo, hi), and the column sums are
// accumulated into the caller's scratch slice main (len M, zeroed
// here). Rows are visited in ascending local order — exactly the order
// of sums's skip-zero loop — so the float accumulation is bit-identical
// to the float path (the determinism goldens depend on this; see
// DESIGN.md §11).
func (b *seiBlock) sumsBits(win []uint64, main []float64) (w0sum float64, ones int) {
	clear(main)
	m := len(main)
	data, w0, lo, hi := b.eff.Data(), b.w0, b.lo, b.hi
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		for w := rangeWord(win, wi, lo, hi); w != 0; w &= w - 1 {
			local := wi<<6 + bits.TrailingZeros64(w) - lo
			ones++
			row := data[local*m : (local+1)*m]
			for c, v := range row {
				main[c] += v
			}
			if w0 != nil {
				w0sum += w0[local]
			}
		}
	}
	return w0sum, ones
}

// rangeWord returns word wi of win with the bits outside [lo, hi)
// cleared.
func rangeWord(win []uint64, wi, lo, hi int) uint64 {
	w := win[wi]
	if base := wi << 6; lo > base {
		w &= ^uint64(0) << uint(lo-base)
	}
	if end := (wi + 1) << 6; hi < end {
		w &= ^uint64(0) >> uint(end-hi)
	}
	return w
}

// onesIn counts the set bits of win in [lo, hi).
func onesIn(win []uint64, lo, hi int) int {
	n := 0
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		n += bits.OnesCount64(rangeWord(win, wi, lo, hi))
	}
	return n
}

// seiArray is the crossbar mapping the SEI conv and FC stages share:
// an N×M logical matrix split over K blocks, and the blocks' read-out.
type seiArray struct {
	N, M, K int
	Mode    SignedMode

	blocks []seiBlock
	// perm maps a logical input to its layer-local position, the
	// concatenation of the blocks' inputs; nil when that order is the
	// identity, as for every natural-order split.
	perm []int
	readout
}

// layout places the blocks at consecutive layer-local ranges and
// derives perm from their inputs.
func (a *seiArray) layout() {
	a.perm = make([]int, a.N)
	identity, lo := true, 0
	for bi := range a.blocks {
		b := &a.blocks[bi]
		b.lo = lo
		for _, j := range b.inputs {
			a.perm[j] = lo
			identity = identity && j == lo
			lo++
		}
		b.hi = lo
	}
	if identity {
		a.perm = nil
	}
}

// local returns the window win (logical input order) in layer-local
// order: win itself when perm is nil, else its bits moved into dst.
func (a *seiArray) local(win, dst []uint64) []uint64 {
	if a.perm == nil {
		return win
	}
	dst = dst[:len(win)]
	clear(dst)
	for wi, w := range win {
		for ; w != 0; w &= w - 1 {
			i := a.perm[wi<<6+bits.TrailingZeros64(w)]
			dst[i>>6] |= 1 << uint(i&63)
		}
	}
	return dst
}

// newSEIArray programs the logical matrix w [N inputs, M outputs] onto
// SEI crossbars: the effective matrix (drawing programming variation
// from rng), split in opt.Order into K balanced blocks, then the
// read-out, whose noise source is drawn from rng last.
func newSEIArray(w *tensor.Tensor, opt LayerOptions, rng *rand.Rand) (seiArray, error) {
	n, m := w.Dim(0), w.Dim(1)
	lay, err := LayoutFor(n, m, opt)
	if err != nil {
		return seiArray{}, err
	}
	if err := checkOrder(opt.Order, n); err != nil {
		return seiArray{}, err
	}
	var (
		eff *tensor.Tensor
		w0  []float64
	)
	if opt.Mode == ModeUnipolarDynamic {
		eff, w0, err = EffectiveUnipolarMatrix(w, opt.Model, rng)
	} else {
		eff, _, err = EffectiveSignedMatrix(w, opt.Model, rng)
	}
	if err != nil {
		return seiArray{}, err
	}
	order := opt.Order
	if order == nil {
		order = NaturalOrder(n)
	}
	a := seiArray{N: n, M: m, K: lay.K, Mode: opt.Mode, readout: newReadout(opt.Model, lay.Cells, rng)}
	for _, rows := range SplitOrder(order, lay.K) {
		b := seiBlock{
			inputs: append([]int(nil), rows...),
			eff:    gatherRows(eff, rows),
		}
		if w0 != nil {
			b.w0 = make([]float64, len(rows))
			for i, j := range rows {
				b.w0[i] = w0[j]
			}
		}
		a.blocks = append(a.blocks, b)
	}
	a.layout()
	return a, nil
}

// SEIConvLayer is one conv stage mapped on SEI crossbars with sense-
// amplifier threshold readout: outputs are bits. Splitting produces K
// blocks, each thresholding locally (BaseThr + dynamic compensation);
// the final bit fires when at least DigitalThreshold blocks fire
// (Section 4.3, Fig. 2d).
type SEIConvLayer struct {
	seiArray
	skip *obs.SkipHW // activation-bound skip counters; nil = not instrumented

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
	a, err := newSEIArray(w, opt, rng)
	if err != nil {
		return nil, err
	}
	l := &SEIConvLayer{
		seiArray:         a,
		Threshold:        thr,
		BaseThr:          make([]float64, a.K),
		OnesMean:         make([]float64, a.K),
		DigitalThreshold: (a.K + 2) / 2, // majority: ceil((K+1)/2)
	}
	for bi, b := range l.blocks {
		l.BaseThr[bi] = thr * float64(len(b.inputs)) / float64(a.N)
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
	for bi := range l.blocks {
		b := &l.blocks[bi]
		main, w0sum, ones := b.sums(in, l.M)
		l.hw.ActiveInputs(int64(ones))
		l.readFloat(b.eff.Data(), b.inputs, in, main, ones, nil)
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
	for bi := range l.blocks {
		b := &l.blocks[bi]
		m, w, o := b.sums(in, l.M)
		l.hw.ActiveInputs(int64(o))
		l.readFloat(b.eff.Data(), b.inputs, in, m, o, nil)
		main[bi], w0[bi], ones[bi] = m, w, o
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.ColumnActivations(int64(l.K * l.M))
	}
	return main, w0, ones
}

// SEIFCLayer is the final fully-connected stage on SEI crossbars. Its
// outputs feed the classifier's argmax rather than a threshold, so
// each block's columns are read out once per picture (M·K conversions
// — e.g. 10×3 for Network 3, a negligible interface cost accounted by
// package arch) and summed digitally, with the bias added digitally.
type SEIFCLayer struct {
	seiArray
	Bias []float64
}

// NewSEIFCLayer maps the FC matrix w [N inputs, M classes] and bias
// onto SEI crossbars.
func NewSEIFCLayer(w *tensor.Tensor, bias []float64, opt LayerOptions, rng *rand.Rand) (*SEIFCLayer, error) {
	if m := w.Dim(1); len(bias) != m {
		return nil, fmt.Errorf("seicore: FC bias length %d, want %d", len(bias), m)
	}
	a, err := newSEIArray(w, opt, rng)
	if err != nil {
		return nil, err
	}
	return &SEIFCLayer{seiArray: a, Bias: append([]float64(nil), bias...)}, nil
}

// Eval computes the classifier scores for one 0/1 input vector.
func (l *SEIFCLayer) Eval(in []float64) []float64 {
	if len(in) != l.N {
		panic(fmt.Sprintf("seicore: SEIFCLayer input length %d, want %d", len(in), l.N))
	}
	out := append([]float64(nil), l.Bias...)
	for bi := range l.blocks {
		b := &l.blocks[bi]
		main, w0sum, ones := b.sums(in, l.M)
		l.hw.ActiveInputs(int64(ones))
		// Only the FC stage IR-scales its dynamic column; it carries no
		// read noise.
		w0sum *= l.readFloat(b.eff.Data(), b.inputs, in, main, ones, nil)
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
