// Package bitvec implements uint64-word-packed binary vectors: the
// in-memory form of the paper's 1-bit intermediate data. After
// quantization every inter-layer activation is 0 or 1, so the crossbar
// MVM degenerates to summing the effective-weight rows whose input bit
// is set and max pooling degenerates to OR — both operations this
// package supports directly with word-parallel kernels (popcount,
// word-wise OR, ordered set-bit iteration).
//
// A Vec is a fixed-capacity scratch object: Reset re-sizes and clears
// it without allocating when the new length fits the existing word
// buffer, which is what keeps the SEI inference fast path
// allocation-free in steady state.
package bitvec

import "math/bits"

const wordBits = 64

// Vec is a packed vector of n bits. The zero value is an empty vector;
// grow it with Reset.
type Vec struct {
	n int
	w []uint64
}

// New returns a zeroed vector of n bits.
func New(n int) *Vec {
	v := &Vec{}
	v.Reset(n)
	return v
}

// wordsFor returns how many uint64 words hold n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the vector's length in bits.
func (v *Vec) Len() int { return v.n }

// Words exposes the backing words (ceil(Len/64) of them; bits past Len
// in the last word are zero). Mutating them mutates the vector.
func (v *Vec) Words() []uint64 { return v.w }

// Reset re-sizes the vector to n bits and clears every bit. The word
// buffer is reused when large enough, so steady-state Reset does not
// allocate.
func (v *Vec) Reset(n int) {
	if n < 0 {
		n = 0
	}
	nw := wordsFor(n)
	if cap(v.w) < nw {
		v.w = make([]uint64, nw)
	} else {
		v.w = v.w[:nw]
		for i := range v.w {
			v.w[i] = 0
		}
	}
	v.n = n
}

// Set sets bit i.
func (v *Vec) Set(i int) { v.w[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (v *Vec) Get(i int) bool { return v.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// OnesCount returns the number of set bits (popcount).
func (v *Vec) OnesCount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the smallest set bit index ≥ i, or -1 when no set
// bit remains. Iterating `for i := v.NextSet(0); i >= 0; i =
// v.NextSet(i+1)` visits every set bit in ascending order.
func (v *Vec) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i >> 6
	w := v.w[wi] >> (uint(i) & 63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.w); wi++ {
		if v.w[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(v.w[wi])
		}
	}
	return -1
}

// SetFloats re-sizes v to len(xs) and packs xs into it: bit i is set
// iff xs[i] != 0 — the quantizer's "active input" predicate.
func (v *Vec) SetFloats(xs []float64) {
	v.Reset(len(xs))
	for i, x := range xs {
		if x != 0 {
			v.w[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}
