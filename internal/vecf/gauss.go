package vecf

// Counter-indexed Gaussian kernel for the packed non-ideal inference
// path (seicore/fast.go). Unlike math/rand's ziggurat — whose
// draws depend on hidden generator state and a variable number of
// uniforms per sample — every draw here is a pure function of
// (seed, index): splitmix64's finalizer turns the counter into a
// uniform, and the inverse normal CDF (Φ⁻¹ via math.Erfinv) turns the
// uniform into a Gaussian. Two properties follow by construction:
//
//   - Seed stability: GaussAt(seed, i) never changes, so a stream
//     sliced into blocks of any size — GaussBlock(seed, 0, dst[:k])
//     then GaussBlock(seed, k, ...) — reproduces the scalar sequence
//     exactly, at every block size and worker count (property-tested
//     in gauss_test.go).
//   - Exactly one index per draw: consumers can account RNG
//     consumption as a counter (sei_noise_draws) and two paths that
//     record equal counts have consumed identical stream prefixes.
//
// The inverse-CDF method costs more per draw than the ziggurat but
// draws in any order and in blocks, which is what lets the bit-packed
// noisy path replay the float path's row-ascending draw order without
// simulating it row by row.

import "math"

// gaussGamma is splitmix64's golden-ratio increment.
const gaussGamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output finalizer: a bijective avalanche over
// uint64.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// UniformAt returns draw i of seed's uniform stream: the splitmix64
// output for counter i, mapped to the open interval (0, 1) on the
// centered 2⁻⁵³ grid (never exactly 0 or 1, so Φ⁻¹ stays finite).
func UniformAt(seed, i uint64) float64 {
	x := mix64(seed + (i+1)*gaussGamma)
	return (float64(x>>11) + 0.5) * 0x1p-53
}

// GaussAt returns draw i of seed's standard normal stream:
// Φ⁻¹(UniformAt(seed, i)) = √2·erfinv(2u − 1).
func GaussAt(seed, i uint64) float64 {
	return math.Sqrt2 * math.Erfinv(2*UniformAt(seed, i)-1)
}

// GaussBlock fills dst with draws start, start+1, … of seed's standard
// normal stream. Equivalent to len(dst) GaussAt calls; block size
// never changes the stream.
func GaussBlock(seed, start uint64, dst []float64) {
	for k := range dst {
		dst[k] = GaussAt(seed, start+uint64(k))
	}
}
