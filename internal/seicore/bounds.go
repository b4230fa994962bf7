package seicore

// Runtime activation bounds: input-dependent early termination for the
// binary SEI stages (the CompRRAE idea of PAPERS.md, arXiv 1906.03180,
// hosted on 1-bit activations where per-row max-contribution tables
// make the bound exact up to float rounding). For each crossbar block
// we precompute, at a fixed checkpoint stride over the block's local
// rows, the suffix sums of every column's positive weights (the
// largest contribution the remaining rows could still add), negative
// weights (the smallest), and absolute weights (the slack scale). The
// bounded row walk (sumsBitsBounded; the per-image walker runs it per
// image, the sliced walker per lane) evaluates the bound the first
// time it meets an active row at or past each checkpoint: a column
// whose partial sum plus the best remaining contribution cannot exceed
// the sense-amp reference emits 0 without scanning further; one whose
// partial plus the worst remaining contribution already exceeds it
// emits 1. Once every column of the block is decided the remaining
// active rows are never driven.
//
// Soundness under float rounding: the unbounded paths accumulate rows
// in ascending local order, so at any scan point the bounded walk's
// partial sum is bit-identical to the unbounded sum's prefix. Let k
// rows remain, let R be the exact remaining contribution of the active
// suffix rows (sufNeg ≤ R ≤ sufPos in exact arithmetic) and ŝ the
// float value the full scan would produce. Standard forward error
// analysis gives |ŝ − (partial + R)| ≤ γ_k·(|partial| + Σ|terms|) with
// γ_k = k·u/(1−k·u), u = 2⁻⁵³. The tables themselves are float sums
// and may under-report their exact values by another γ_n·Σ|w|. The
// per-checkpoint slack factor slackU = 4·u·(rows remaining) covers
// both error sources plus the rounding of the decision expression
// itself, so a bound decision can never contradict the full scan's
// `s > ref` compare: labels are bit-identical to the unbounded paths.
// The slack is kept out of the tables so they stay tight — with
// exactly representable weights sufPos equals the true maximum over
// every subset of the remaining rows (pinned by a property test).
//
// Decidability: the final checkpoint's suffix covers at most
// boundStride−1 unscanned rows, and when the walk exhausts a block's
// active rows the undecided columns fall through to the ordinary
// sense-amp compare on the (complete, bit-identical) column sums — so
// every column always resolves, bounds or not.
//
// Bounds apply only to blocks with a static sense-amp reference: a
// dynamic-threshold slope (Gamma ≠ 0) or a unipolar dynamic column
// (w0 ≠ nil) makes the reference depend on the not-yet-scanned rows.
// Those blocks keep full scans but still benefit from the cross-block
// digital-threshold skip in evalBoundedCounts: once every output
// column's fired count either reached DigitalThreshold or can no
// longer reach it, the layer's remaining blocks are skipped wholesale.

import (
	"math"
	"math/bits"

	"sei/internal/tensor"
	"sei/internal/vecf"
)

// boundStride is the checkpoint spacing in local rows. Smaller strides
// decide earlier but pay more bound evaluations; 8 keeps the digital
// side (2 compares per undecided column per checkpoint) well under the
// analog work it can save on the paper's 3×3-kernel stages.
const boundStride = 8

// boundSlackU is the per-remaining-row slack coefficient: 4·2⁻⁵³, twice
// the first-order γ coefficient of the accumulation error so table
// rounding and the decision expression's own rounding are covered too.
const boundSlackU = 4 * 0x1p-53

// boundMaxCols caps bounded layers at one machine word of columns: the
// undecided set travels as a uint64 mask. Every network in the repo is
// far under it (widest stage: 64 filters).
const boundMaxCols = 64

// colBounds is one block's precomputed suffix-bound table.
type colBounds struct {
	n, m, stride int
	// Checkpoint cp (0 ≤ cp < ncp, ncp = ceil(n/stride)) summarizes the
	// rows at local index ≥ cp·stride: sufPos[cp·m+c] is column c's
	// suffix sum of positive weights, sufNeg of negative weights,
	// sufAbs of absolute values.
	sufPos, sufNeg, sufAbs []float64
	// slackU[cp] = boundSlackU · (n − cp·stride), the float-safety slack
	// per unit of (|partial| + sufAbs).
	slackU []float64
}

// checkpoints returns the number of checkpoint rows for n rows at
// stride s.
func checkpoints(n, stride int) int { return (n + stride - 1) / stride }

// newColBounds builds the suffix table for one block's effective
// weight matrix. Returns nil when the block cannot be bounded (more
// columns than the undecided mask holds, or no rows).
func newColBounds(eff *tensor.Tensor) *colBounds {
	n, m := eff.Dim(0), eff.Dim(1)
	if n == 0 || m > boundMaxCols {
		return nil
	}
	ncp := checkpoints(n, boundStride)
	cb := &colBounds{
		n: n, m: m, stride: boundStride,
		sufPos: make([]float64, ncp*m),
		sufNeg: make([]float64, ncp*m),
		sufAbs: make([]float64, ncp*m),
		slackU: make([]float64, ncp),
	}
	pos := make([]float64, m)
	neg := make([]float64, m)
	abs := make([]float64, m)
	data := eff.Data()
	for r := n - 1; r >= 0; r-- {
		row := data[r*m : (r+1)*m]
		for c, v := range row {
			if v > 0 {
				pos[c] += v
			} else {
				neg[c] += v
			}
			abs[c] += math.Abs(v)
		}
		if r%boundStride == 0 {
			cp := r / boundStride
			copy(cb.sufPos[cp*m:(cp+1)*m], pos)
			copy(cb.sufNeg[cp*m:(cp+1)*m], neg)
			copy(cb.sufAbs[cp*m:(cp+1)*m], abs)
			cb.slackU[cp] = boundSlackU * float64(n-r)
		}
	}
	return cb
}

// boundState is one block's bounded-scan outcome.
type boundState struct {
	fired1    uint64 // columns decided 1 by the bound
	undecided uint64 // columns still needing the final SA compare
	ones      int    // active rows actually driven
	skipped   int    // active rows skipped after every column decided
	evals     int    // per-column bound evaluations performed
}

// colMask returns the m-column full mask (m ≤ 64).
func colMask(m int) uint64 {
	if m >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(m) - 1
}

// sumsBitsBounded is sumsBits with the bounded row walk: rows are
// visited in ascending local order exactly as sumsBits visits them, and
// before processing the first active row at or past each checkpoint the
// undecided columns are tested against the suffix bound. When every
// column has decided the remaining active rows are counted but not
// driven. Column sums for the rows actually processed land in main
// (len m, zeroed here) — for undecided columns they equal the full
// sumsBits values bit for bit, because the walk only ever stops once
// no compare depends on the sums. Only called for blocks with a static
// reference (w0 == nil) and a built table.
func (b *seiBlock) sumsBitsBounded(win []uint64, main []float64, ref float64) boundState {
	clear(main)
	m := len(main)
	cb := b.bnd
	st := boundState{undecided: colMask(m)}
	lastCp := -1
	data, lo, hi := b.eff.Data(), b.lo, b.hi
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		for w := rangeWord(win, wi, lo, hi); w != 0; w &= w - 1 {
			j := wi<<6 + bits.TrailingZeros64(w)
			local := j - lo
			if cp := local / cb.stride; cp > lastCp {
				lastCp = cp
				st.evals += bits.OnesCount64(st.undecided)
				base := cp * m
				dec0, dec1 := vecf.BoundCols(main,
					cb.sufPos[base:base+m], cb.sufNeg[base:base+m], cb.sufAbs[base:base+m],
					cb.slackU[cp], ref, st.undecided)
				st.fired1 |= dec1
				st.undecided &^= dec0 | dec1
				if st.undecided == 0 {
					st.skipped = onesIn(win, j, hi)
					return st
				}
			}
			st.ones++
			vecf.AddRowLanes(main, data[local*m:(local+1)*m], 1)
		}
	}
	return st
}

// boundable reports whether the layer's columns fit the undecided mask;
// wider layers keep the unbounded walk even in bounded mode
// (boundedAt).
func (l *SEIConvLayer) boundable() bool { return l.M <= boundMaxCols }

// initBounds builds the suffix tables for every block that can use
// them: dynamic-column-free blocks of mask-width layers on an ideal
// read-out, the only place bounded mode runs. Tables depend only on
// the programmed effective weights, so they are never persisted.
func (d *SEIDesign) initBounds() {
	for _, l := range d.Convs {
		for bi := range l.blocks {
			b := &l.blocks[bi]
			b.bnd = nil
			if d.ideal && l.boundable() && b.w0 == nil {
				b.bnd = newColBounds(b.eff)
			}
		}
	}
}

// evalBoundedCounts is evalCounts with runtime activation bounds, for
// ideal read-outs of boundable layers: statically-referenced blocks
// run the bounded row walk, every block participates in the
// cross-block digital-threshold skip, and the hardware counters record
// only the work actually performed (rows driven, sense-amp compares
// actually taken). Labels — the fired counts compared against
// DigitalThreshold by the caller — are bit-identical to evalCounts;
// counter totals shrink exactly where work was skipped, with the
// skipped work recorded on the sei_* skip counters instead.
func (l *SEIConvLayer) evalBoundedCounts(win []uint64, fired []int, col []float64) {
	clear(fired)
	full := colMask(l.M)
	unresolved := full // output columns the digital threshold hasn't resolved
	var mvms, saCmps, driven, skipped, colsEarly, evals, blocksSkipped int64
	for bi := range l.blocks {
		b := &l.blocks[bi]
		if unresolved == 0 {
			// Every output is resolved: the remaining blocks' rows are
			// never driven.
			blocksSkipped++
			skipped += int64(onesIn(win, b.lo, b.hi))
			continue
		}
		if b.bnd != nil && l.Gamma == 0 {
			ref := l.BaseThr[bi]
			st := b.sumsBitsBounded(win, col, ref)
			l.hw.ActiveInputs(int64(st.ones))
			mvms++
			driven += int64(st.ones)
			skipped += int64(st.skipped)
			evals += int64(st.evals)
			colsEarly += int64(bits.OnesCount64(full &^ st.undecided))
			saCmps += int64(bits.OnesCount64(st.undecided))
			firedMask := st.fired1
			for t := st.undecided; t != 0; t &= t - 1 {
				c := bits.TrailingZeros64(t)
				if col[c] > ref {
					firedMask |= 1 << uint(c)
				}
			}
			for t := firedMask; t != 0; t &= t - 1 {
				fired[bits.TrailingZeros64(t)]++
			}
		} else {
			// Dynamic reference (Gamma slope or unipolar w0 column): the
			// reference depends on unscanned rows, so the block scans in
			// full — cross-block skipping still applies.
			w0sum, ones := b.sumsBits(win, col)
			l.hw.ActiveInputs(int64(ones))
			mvms++
			driven += int64(ones)
			saCmps += int64(l.M)
			ref := l.BaseThr[bi] + l.Gamma*(float64(ones)-l.OnesMean[bi]) + w0sum
			for c, s := range col {
				if s > ref {
					fired[c]++
				}
			}
		}
		if l.K > 1 {
			rem := l.K - 1 - bi
			undec := uint64(0)
			for t := unresolved; t != 0; t &= t - 1 {
				c := bits.TrailingZeros64(t)
				if fired[c] >= l.DigitalThreshold {
					continue // already fires whatever the remaining blocks do
				}
				if fired[c]+rem < l.DigitalThreshold {
					continue // can no longer reach the digital threshold
				}
				undec |= 1 << uint(c)
			}
			unresolved = undec
		}
	}
	if h := l.hw; h != nil {
		h.MVM(mvms)
		h.SACompares(saCmps)
		h.ColumnActivations(saCmps)
	}
	l.skip.Record(driven, skipped, colsEarly, evals, blocksSkipped)
}
