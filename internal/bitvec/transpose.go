package bitvec

// Lane-transposed ("bit-sliced") layout: the batch inference fast path
// packs the SAME activation bit across up to 64 images into one
// uint64, so word i of a sliced map holds bit i of every image — image
// L occupies bit position (lane) L. In that layout a pooling OR, a
// threshold write-out or a crossbar row-select test touches 64 images
// per word operation. Transpose64 converts between that form and the
// per-image packed form 64 bit positions at a time; the sliced walker
// uses it to hand a bounded stage's windows to the per-image kernel.

// Transpose64 transposes the 64×64 bit matrix src into dst: bit c of
// dst[r] equals bit r of src[c]. Rows are words, columns are bit
// positions (LSB first), so transposing per-image rows yields
// lane-major words and vice versa. It is its own inverse. dst and src
// must each hold at least 64 words and may be the same slice.
//
// The kernel is the classic recursive block swap (Hacker's Delight
// §7-3, adapted to LSB-first bit order): at step j it exchanges the
// high-j-bit quadrant of rows k with the low-j-bit quadrant of rows
// k+j, halving j from 32 to 1 — 6·64 word operations total instead of
// 4096 single-bit moves.
func Transpose64(dst, src []uint64) {
	if len(dst) < 64 || len(src) < 64 {
		panic("bitvec: Transpose64 needs 64 words")
	}
	a := dst[:64]
	if &a[0] != &src[0] {
		copy(a, src[:64])
	}
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j = j >> 1 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
		m ^= m << (j >> 1)
	}
}
