package quant

// The calibration-time conv-sum kernel behind stageSums: the digital
// forward pass (convStage with Digital(), hence BinaryActivations,
// RecalibrateFC, ActivityFactors and seicore calibration), the
// refinement's analog sums and Algorithm 1's step-1 stage outputs.
//
// Layout. Output positions are walked in groups of 64 lanes. For one
// group and one receptive-field slot j (ascending, tensor.Im2Col's
// column order), the 64 inputs feeding slot j are gathered into one
// lane vector; the gather offset of (position p, slot j) separates
// into posOff[p] + slotOff[j], so the gather table is two offset lists
// of positions + fan entries where Im2Col copied positions × fan
// values. The weights are filter-major transposed (row j holds weight
// j of every filter), so one vecf call folds slot j into every
// filter's accumulators. Both are rebuilt on every call into pooled
// buffers: the search re-scales the weights in place, so a kernel kept
// across calls could go stale, and the rebuild costs fan × filters
// copies against the fold's fan × filters × positions operations.
//
//   - A real-valued input goes through vecf.MulAccLanes: acc[k][i] +=
//     w[j][k] · x[i], strict mul-then-add, lanes = positions.
//   - A 0/1 input goes through vecf.AddRowLanes: the lanes whose input
//     is 1 add row j (w·1 = w exactly) and the others add nothing.
//
// Exactness. Per (filter, position) both fold w·x over the fan in
// ascending order from +0, as the references do: MatMul skips
// zero weights, the Im2Col skip-zero fold skips zero inputs, and the
// kernel skips zero inputs (AddRowLanes, all-zero slot vectors) or
// nothing (MulAccLanes). On finite values a skipped term is a signed
// zero; an IEEE sum is -0 only when both addends are, so a sum that
// starts at +0 is never -0 and adding a signed zero leaves it
// unchanged. All three therefore give the same bits. The argument
// needs finite weights and inputs (0·Inf is NaN, not a zero), which
// Extract and Load enforce.

import (
	"sync"

	"sei/internal/tensor"
	"sei/internal/vecf"
)

// convSum is one conv stage's conv-sum kernel on one input shape.
type convSum struct {
	filters, outH, outW, groups int
	slotOff                     []int          // [fan]: offset of slot j from its window's origin
	posOff                      []int          // [groups*lanes]: window origin of position p; padding lanes read element 0
	wT                          []float64      // [fan*filters]: row j holds weight j of every filter
	acc                         []float64      // [lanes*filters] accumulators
	x                           [lanes]float64 // one slot's gathered inputs
}

// sumPool recycles stageSums' kernels, so a warm call allocates only
// its output.
var sumPool = sync.Pool{New: func() any { return new(convSum) }}

// stageSums computes conv stage c's pre-threshold analog sums on in
// ([channels, h, w]) into a fresh [filters, outH, outW] tensor — the
// fold of digitalEval.EvalConv, so `sum > t` reproduces the binarized
// pipeline's bit for any candidate t, and of floatConv, so it is
// Algorithm 1's stage output.
func stageSums(c *ConvSpec, in *tensor.Tensor) *tensor.Tensor {
	k := sumPool.Get().(*convSum)
	k.load(c, in.Dim(0), in.Dim(1), in.Dim(2))
	out := tensor.New(k.filters, k.outH, k.outW)
	k.sums(out.Data(), in.Data())
	sumPool.Put(k)
	return out
}

// load points k at stage c on a [channels, h, w] input, reusing k's
// buffers.
func (k *convSum) load(c *ConvSpec, channels, h, w int) {
	kh, kw, s := c.W.Dim(2), c.W.Dim(3), c.Stride
	k.filters = c.Filters()
	k.outH, k.outW = (h-kh)/s+1, (w-kw)/s+1
	positions := k.outH * k.outW
	k.groups = (positions + lanes - 1) / lanes

	k.slotOff = k.slotOff[:0]
	for ch := 0; ch < channels; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				k.slotOff = append(k.slotOff, ch*h*w+ky*w+kx)
			}
		}
	}
	k.posOff = resize(k.posOff, k.groups*lanes)
	clear(k.posOff[positions:])
	for oy := 0; oy < k.outH; oy++ {
		for ox := 0; ox < k.outW; ox++ {
			k.posOff[oy*k.outW+ox] = oy*s*w + ox*s
		}
	}

	wd, fan := c.W.Data(), c.FanIn()
	k.wT = resize(k.wT, fan*k.filters)
	for j := 0; j < fan; j++ {
		row := k.wT[j*k.filters : (j+1)*k.filters]
		for f := range row {
			row[f] = wd[f*fan+j]
		}
	}
	k.acc = resize(k.acc, lanes*k.filters)
}

// resize returns buf with length n, reallocating only when it is too
// short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sums writes the stage's sums on the flat input in to out ([filters,
// outH, outW], every element overwritten).
func (k *convSum) sums(out, in []float64) {
	binary := true
	for _, v := range in {
		if v != 0 && v != 1 {
			binary = false
			break
		}
	}
	positions := k.outH * k.outW
	for g := 0; g < k.groups; g++ {
		p0 := g * lanes
		n := min(lanes, positions-p0)
		pos := k.posOff[p0 : p0+lanes]
		if binary {
			k.foldBits(in, pos, n)
			for i := 0; i < n; i++ {
				for f, v := range k.acc[i*k.filters : (i+1)*k.filters] {
					out[f*positions+p0+i] = v
				}
			}
		} else {
			k.foldReals(in, pos)
			for f := 0; f < k.filters; f++ {
				copy(out[f*positions+p0:][:n], k.acc[f*lanes:][:n])
			}
		}
	}
}

// foldBits folds one position group of a 0/1 input into k.acc, lane
// major (acc[i*filters+f]): slot by slot, every lane whose input is 1
// adds weight row j. Only the first n lanes are gathered.
func (k *convSum) foldBits(in []float64, pos []int, n int) {
	f := k.filters
	clear(k.acc)
	for j, so := range k.slotOff {
		base := in[so:]
		var word uint64
		for i, o := range pos[:n] {
			if base[o] != 0 {
				word |= 1 << uint(i)
			}
		}
		vecf.AddRowLanes(k.acc, k.wT[j*f:(j+1)*f], word)
	}
}

// foldReals folds one position group of a real-valued input into
// k.acc, filter major (acc[f*lanes+i]), with MulAccLanes per slot;
// slots whose 64 gathered inputs are all zero add only signed zeros
// and are skipped.
func (k *convSum) foldReals(in []float64, pos []int) {
	f := k.filters
	clear(k.acc)
	x := k.x[:]
	for j, so := range k.slotOff {
		base := in[so:]
		nz := false
		for i, o := range pos[:lanes] {
			v := base[o]
			x[i] = v
			nz = nz || v != 0
		}
		if nz {
			vecf.MulAccLanes(k.acc, x, k.wT[j*f:(j+1)*f])
		}
	}
}
