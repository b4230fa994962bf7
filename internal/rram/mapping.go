package rram

import (
	"fmt"
	"math"

	"sei/internal/tensor"
)

// WeightBits is the CNN weight precision the paper assumes ("the
// precision of weight matrix is 8-bit").
const WeightBits = 8

// QuantizeSymmetric quantizes a real weight matrix to signed integers
// with the given total precision (sign + magnitude): values are scaled
// by max|w|/(2^(bits-1)−1) and rounded. It returns the integer matrix
// (same shape, row-major) and the scale such that w ≈ q·scale.
func QuantizeSymmetric(w *tensor.Tensor, bits int) ([]int, float64, error) {
	if bits < 2 || bits > 16 {
		return nil, 0, fmt.Errorf("rram: weight bits %d outside [2,16]", bits)
	}
	maxAbs := 0.0
	for _, v := range w.Data() {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	qmax := float64(int(1)<<(bits-1) - 1)
	if maxAbs == 0 {
		return make([]int, w.Len()), 1, nil
	}
	scale := maxAbs / qmax
	q := make([]int, w.Len())
	for i, v := range w.Data() {
		q[i] = int(math.Round(v / scale))
		if q[i] > int(qmax) {
			q[i] = int(qmax)
		}
		if q[i] < -int(qmax) {
			q[i] = -int(qmax)
		}
	}
	return q, scale, nil
}

// SliceCount returns how many device cells one unsigned magnitude of
// weightBits needs at deviceBits per cell: ceil(weightBits/deviceBits).
// With the paper's 8-bit weights and 4-bit devices this is 2; weaker
// 2-bit devices need 4 cells, and 8-bit devices store a weight whole.
func SliceCount(weightBits, deviceBits int) int {
	if weightBits < 1 || deviceBits < 1 {
		panic(fmt.Sprintf("rram: SliceCount(%d,%d) invalid", weightBits, deviceBits))
	}
	return (weightBits + deviceBits - 1) / deviceBits
}

// SliceMagnitude decomposes a non-negative magnitude into little-
// endian base-2^deviceBits digits, one per cell:
// m = Σ_i slices[i]·2^(deviceBits·i). Each digit fits a device level.
func SliceMagnitude(m, weightBits, deviceBits int) []int {
	if m < 0 {
		panic(fmt.Sprintf("rram: SliceMagnitude of negative magnitude %d", m))
	}
	n := SliceCount(weightBits, deviceBits)
	mask := 1<<deviceBits - 1
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = m & mask
		m >>= deviceBits
	}
	if m != 0 {
		panic(fmt.Sprintf("rram: magnitude does not fit %d slices of %d bits", n, deviceBits))
	}
	return out
}
