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

	eff *tensor.Tensor // [N, M] effective real weights
	readout
	skip *obs.SkipHW // bounded-mode skip counters (stage 0 pool-crop skips)
}

// NewMergedLayer programs the matrix w [N,M] into the baseline
// structure under the given device model. rng drives programming
// variation and, when the model has read noise, per-evaluation noise.
func NewMergedLayer(w *tensor.Tensor, model rram.DeviceModel, rng *rand.Rand) (*MergedLayer, error) {
	eff, _, err := EffectiveSignedMatrix(w, model, rng)
	if err != nil {
		return nil, err
	}
	return &MergedLayer{N: w.Dim(0), M: w.Dim(1), eff: eff, readout: newReadout(model, 0, rng)}, nil
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
	l.readFloat(l.eff.Data(), nil, in, out, 0, nil)
	return out
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
