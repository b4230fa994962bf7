// Package vecf provides the small dense float64 kernels under the
// bit-sliced batch path's stage 0: a lane-major multiply-accumulate
// and a lane-major threshold compare, each processing the 64 lanes of
// one nn.SlicedGroupSize batch per call.
//
// Exactness contract: every kernel computes, per element, exactly
//
//	acc[i] = acc[i] + (w * x[i])
//
// with both the multiply and the add rounded separately (never fused
// into an FMA; ConvWin4's optional read-noise gain likewise), and
// compares with the same semantics as the Go `>`
// operator (NaN compares false). The amd64 AVX2 implementations use
// VMULPD/VADDPD/VCMPPD, which round each element identically to the
// scalar MULSD/ADDSD/UCOMISD sequence, so results are bit-identical
// to the pure-Go loops on every input — the property the SEI sliced
// path's bit-identity contract rests on (see seicore/sliced.go).
package vecf

import "math/bits"

// Lanes is the fixed lane width of every kernel in this package — the
// word width of the bit-sliced batch path.
const Lanes = 64

// MulAccLanes accumulates acc[c*Lanes+i] += w[c] * x[i] for every
// weight c and lane i, with strict per-element mul-then-add rounding.
// x holds one value per lane; acc holds len(w) lane-major segments.
// acc and x must not overlap. Panics when x is shorter than Lanes or
// acc shorter than len(w)*Lanes.
func MulAccLanes(acc, x []float64, w []float64) {
	if len(w) == 0 {
		return
	}
	x = x[:Lanes]
	acc = acc[:len(w)*Lanes]
	mulAccLanes(acc, x, w)
}

// GtMask64 returns the lane mask of x[i] > thr over exactly Lanes
// values: bit i is set when lane i exceeds the threshold. NaN lanes
// compare false, as with the Go `>` operator. Panics when x is shorter
// than Lanes.
func GtMask64(x []float64, thr float64) uint64 {
	return gtMask64(x[:Lanes], thr)
}

// ConvWin4 fuses one four-filter convolution window over 64 lanes.
// For each filter c in [0,4) it accumulates, over the set bits r of
// rowMask in ascending order,
//
//	acc_c[i] += w[r*4+c] * x[off[r]+i]
//
// with strict per-element mul-then-add rounding. When g is non-nil it
// then applies per-column read noise from lane-major draws (lane i's
// four at g[i*4:i*4+4]),
//
//	acc_c[i] = acc_c[i] * (1 + (sigma * g[i*4+c]))
//
// each operation rounded separately, and finally writes masks[c] =
// lane mask of acc_c[i] > thr (NaN compares false). The accumulators
// start at +0 and, in the AVX2 implementation, never leave registers —
// the kernel replaces a zero/accumulate/compare round trip through a
// 4·Lanes scratch buffer.
//
// off holds element offsets into x, one per window row; rows whose
// rowMask bit is clear are skipped entirely and their off entries are
// not read. Panics when a set row's x span or weight row is out of
// bounds, or g is non-nil and shorter than 4·Lanes.
func ConvWin4(x, w []float64, off []int64, rowMask uint64, g []float64, sigma, thr float64, masks *[4]uint64) {
	if g != nil {
		_ = g[4*Lanes-1]
	} else if rowMask == 0 {
		var m uint64
		if 0.0 > thr { // +0 accumulators can still fire a negative threshold
			m = ^uint64(0)
		}
		masks[0], masks[1], masks[2], masks[3] = m, m, m, m
		return
	}
	if rowMask != 0 {
		hi := 63 - bits.LeadingZeros64(rowMask)
		_ = w[hi*4+3]
	}
	for t := rowMask; t != 0; t &= t - 1 {
		_ = x[off[bits.TrailingZeros64(t)]+Lanes-1]
	}
	convWin4(x, w, off, rowMask, g, sigma, thr, masks)
}

// AddRowLanes adds one row of values into each set lane's lane-major
// accumulator segment: for every set bit lane of laneWord,
//
//	acc[lane*m+c] += row[c]  for c in [0,m), m = len(row)
//
// Each element is a single IEEE add with the same operands as the
// scalar loop, so results are bit-identical on every input. Lanes are
// visited in ascending order (their accumulators are disjoint, so the
// order is unobservable). Panics when acc is shorter than
// (highest set lane + 1)*m.
func AddRowLanes(acc, row []float64, laneWord uint64) {
	if laneWord == 0 || len(row) == 0 {
		return
	}
	hi := 63 - bits.LeadingZeros64(laneWord)
	_ = acc[(hi+1)*len(row)-1]
	addRowLanes(acc, row, laneWord)
}

// addRowLanesGeneric is the portable row-add kernel.
func addRowLanesGeneric(acc, row []float64, laneWord uint64) {
	m := len(row)
	for t := laneWord; t != 0; t &= t - 1 {
		lane := bits.TrailingZeros64(t)
		a := acc[lane*m : lane*m+m]
		for c, v := range row {
			a[c] += v
		}
	}
}

// convWin4Generic is the portable fused-window kernel.
func convWin4Generic(x, w []float64, off []int64, rowMask uint64, g []float64, sigma, thr float64, masks *[4]uint64) {
	var acc [4 * Lanes]float64
	for t := rowMask; t != 0; t &= t - 1 {
		r := bits.TrailingZeros64(t)
		xr := x[off[r] : off[r]+Lanes]
		for c := 0; c < 4; c++ {
			wc := w[r*4+c]
			a := acc[c*Lanes : c*Lanes+Lanes]
			for i, v := range xr {
				a[i] += wc * v
			}
		}
	}
	if g != nil {
		for i := 0; i < Lanes; i++ {
			for c, v := range g[i*4 : i*4+4] {
				acc[c*Lanes+i] *= 1 + sigma*v
			}
		}
	}
	for c := 0; c < 4; c++ {
		masks[c] = gtMask64Generic(acc[c*Lanes:c*Lanes+Lanes], thr)
	}
}

// mulAccLanesGeneric is the portable kernel; the amd64 build replaces
// it at dispatch time, and the equivalence tests pin the two
// bit-identical.
func mulAccLanesGeneric(acc, x []float64, w []float64) {
	for c, wc := range w {
		a := acc[c*Lanes : c*Lanes+Lanes]
		for i, v := range x {
			a[i] += wc * v
		}
	}
}

// gtMask64Generic is the portable compare kernel.
func gtMask64Generic(x []float64, thr float64) uint64 {
	var m uint64
	for i, v := range x {
		if v > thr {
			m |= 1 << uint(i)
		}
	}
	return m
}
