package seicore

import (
	"fmt"
	"math/rand"

	"sei/internal/obs"
	"sei/internal/rram"
	"sei/internal/tensor"
)

// MergedLayer models the ADC-based baseline structure (Fig. 2b): four
// crossbars per logical matrix (positive/negative × high/low 4-bit
// slice), each column digitized by an ADC and merged with digital
// shifters, adders and subtractors. Because the merge is digital and
// exact, the layer computes an exact matrix-vector product against the
// effective (device-perturbed) weights; tiling across crossbars does
// not change the arithmetic, only the interface counts (handled by
// package arch).
type MergedLayer struct {
	N, M int

	eff   *tensor.Tensor // [N, M] effective real weights
	model rram.DeviceModel
	// readNoise/cells: per-column read-noise RNG or per-cell draw
	// stream (see SEIConvLayer); at most one is non-nil. The DAC-driven
	// input stage carries analog values, so per-cell noise scales with
	// the driven input level (σ·x·w·g per cell).
	readNoise *rand.Rand
	cells     *noiseStream
	hw        *obs.HW     // hardware-event counters; nil = not instrumented
	skip      *obs.SkipHW // bounded-mode skip counters (stage 0 pool-crop skips)
}

// NewMergedLayer programs the matrix w [N,M] into the baseline
// structure under the given device model. rng drives programming
// variation and, when the model has read noise, per-evaluation noise.
func NewMergedLayer(w *tensor.Tensor, model rram.DeviceModel, rng *rand.Rand) (*MergedLayer, error) {
	eff, _, err := EffectiveSignedMatrix(w, model, rng)
	if err != nil {
		return nil, err
	}
	l := &MergedLayer{N: w.Dim(0), M: w.Dim(1), eff: eff, model: model}
	if model.ReadNoiseSigma > 0 {
		if model.ReadNoisePerCell {
			l.cells = newNoiseStream(int64(rng.Uint64()))
		} else {
			l.readNoise = rng
		}
	}
	return l, nil
}

// Eval computes the merged outputs for one input vector (real-valued
// for the DAC-driven input layer, 0/1 elsewhere). A nonlinear device
// I-V (DeviceModel.IVNonlinearity) distorts analog inputs through the
// full-swing-calibrated sinh transfer; 1-bit inputs (0 or full swing)
// are unaffected — the structural robustness the 1-bit data path buys.
func (l *MergedLayer) Eval(in []float64) []float64 {
	if len(in) != l.N {
		panic(fmt.Sprintf("seicore: MergedLayer input length %d, want %d", len(in), l.N))
	}
	if h := l.hw; h != nil {
		ones := 0
		for _, x := range in {
			if x != 0 {
				ones++
			}
		}
		h.MVM(1)
		h.ColumnActivations(int64(l.M))
		h.ActiveInputs(int64(ones))
	}
	if l.model.IVNonlinearity > 0 {
		f := l.model.TransferCalibrated()
		nv := make([]float64, len(in))
		for j, x := range in {
			nv[j] = f(x)
		}
		in = nv
	}
	out := tensor.MatVecT(l.eff, in)
	l.applyReadNoise(in, out, nil)
	return out
}

// applyReadNoise perturbs one evaluation's outputs with the model's
// read noise: per-cell draws over the active rows in ascending order
// (noise.go), or the original per-column multiplicative draws. g is
// the per-cell draw scratch (len ≥ M); nil lets the float path
// allocate one on demand.
func (l *MergedLayer) applyReadNoise(in, out, g []float64) {
	if l.cells != nil {
		if g == nil {
			g = make([]float64, l.M)
		}
		sigma := l.model.ReadNoiseSigma
		data := l.eff.Data()
		draws := 0
		for j, x := range in {
			if x == 0 {
				continue
			}
			l.cells.block(g[:l.M])
			draws += l.M
			row := data[j*l.M : (j+1)*l.M]
			for c, v := range row {
				out[c] += sigma * x * v * g[c]
			}
		}
		l.hw.NoiseDraws(int64(draws))
		return
	}
	if l.readNoise != nil {
		for k := range out {
			out[k] *= 1 + l.model.ReadNoiseSigma*l.readNoise.NormFloat64()
		}
		l.hw.NoiseDraws(int64(len(out)))
	}
}

// evalInto is the allocation-free variant of Eval for a linear
// read-out (no I-V nonlinearity — guaranteed by the packed walker's
// dispatch): MatVecTInto produces the bit-identical product, then
// applyReadNoise draws exactly the draws Eval draws, in the same
// order, from the caller's scratch g (a no-op on an ideal read-out).
// Hardware counters are recorded exactly as Eval records them. Returns
// the active-input count for bounded mode's row accounting (0 when
// uninstrumented, where nothing reads it).
func (l *MergedLayer) evalInto(in, out, g []float64) int {
	ones := 0
	if h := l.hw; h != nil {
		for _, x := range in {
			if x != 0 {
				ones++
			}
		}
		h.MVM(1)
		h.ColumnActivations(int64(l.M))
		h.ActiveInputs(int64(ones))
	}
	tensor.MatVecTInto(out, l.eff, in)
	l.applyReadNoise(in, out, g)
	return ones
}

// EffectiveWeights exposes the programmed effective matrix for
// inspection and tests.
func (l *MergedLayer) EffectiveWeights() *tensor.Tensor { return l.eff }

// BlocksFor returns how many row blocks a logical matrix needs when
// each logical input occupies cellsPerInput physical rows and the
// crossbar is limited to maxRows physical rows.
func BlocksFor(n, cellsPerInput, maxRows int) int {
	if maxRows <= 0 || cellsPerInput <= 0 {
		panic(fmt.Sprintf("seicore: invalid split parameters cells=%d max=%d", cellsPerInput, maxRows))
	}
	weightsPerBlock := maxRows / cellsPerInput
	if weightsPerBlock == 0 {
		panic(fmt.Sprintf("seicore: %d cells per input exceed crossbar height %d", cellsPerInput, maxRows))
	}
	k := (n + weightsPerBlock - 1) / weightsPerBlock
	if k == 0 {
		k = 1
	}
	return k
}

// SplitOrder partitions the logical input indices, in the given order,
// into k contiguous blocks of near-equal size (the paper splits
// 1200×64 into three 400×64 crossbars — balanced, not greedy-filled).
func SplitOrder(order []int, k int) [][]int {
	n := len(order)
	if k <= 0 || k > n {
		panic(fmt.Sprintf("seicore: cannot split %d rows into %d blocks", n, k))
	}
	blocks := make([][]int, k)
	start := 0
	for b := 0; b < k; b++ {
		size := n / k
		if b < n%k {
			size++
		}
		blocks[b] = order[start : start+size]
		start += size
	}
	return blocks
}

// NaturalOrder returns the identity permutation 0..n−1.
func NaturalOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}
