package seicore

// Per-cell read noise: the seed-addressed draw stream and the noise
// passes shared by the float path (sei.go, merged.go) and the packed
// walker (fast.go).
//
// The per-column model (DeviceModel.ReadNoiseSigma alone) keeps its
// original math/rand ziggurat stream untouched — every existing noisy
// design, calibration run and snapshot stays bit-for-bit identical.
// The per-cell model (ReadNoisePerCell) draws far more values — one
// per active cell instead of one per column — and must replay the
// identical draw sequence on both the float and the packed path at
// every worker count, so it uses the counter-indexed vecf kernel: a
// draw is a pure function of (seed, index), blocks of any size
// reproduce the scalar stream, and consumption is countable
// (sei_noise_draws) rather than hidden generator state.
//
// Both paths visit a block's active rows in ascending local order —
// the float path's skip-zero loop and the packed path's NextSet walk
// enumerate the same rows in the same order — and draw one length-M
// block per active row, so the stream position after any prefix of
// the work is identical on both paths. That is the whole bit-identity
// argument; determinism_test.go pins it end to end.

import (
	"math"

	"sei/internal/bitvec"
	"sei/internal/vecf"
)

// noiseStream is one layer's per-cell draw stream: a cursor over the
// counter-indexed Gaussian sequence of a seed. Cloned per evaluation
// chunk (parallel.go) exactly like the per-column RNGs, so worker
// count never changes which draws an image sees.
type noiseStream struct {
	seed uint64
	pos  uint64
}

func newNoiseStream(seed int64) *noiseStream {
	return &noiseStream{seed: uint64(seed)}
}

// block fills dst with the next len(dst) draws.
func (s *noiseStream) block(dst []float64) {
	vecf.GaussBlock(s.seed, s.pos, dst)
	s.pos += uint64(len(dst))
}

// cellNoiseFloat adds per-cell read noise to one block's column sums
// for a float 0/1 (or analog, for the DAC-driven input stage) input
// vector: for each active row, in ascending local order, one length-m
// Gaussian block perturbs the row's contribution by σ·in·w·g per
// column. Returns the number of draws consumed.
func cellNoiseFloat(cells *noiseStream, sigma float64, b *seiBlock, in, main, g []float64) int {
	m := len(main)
	data := b.eff.Data()
	draws := 0
	for local, j := range b.inputs {
		x := in[j]
		if x == 0 {
			continue
		}
		cells.block(g[:m])
		draws += m
		row := data[local*m : (local+1)*m]
		for c, v := range row {
			main[c] += sigma * x * v * g[c]
		}
	}
	return draws
}

// cellNoiseBits is cellNoiseFloat on a packed input window: the same
// rows in the same ascending order (sumsBits's walk), the same draws,
// the same accumulation — bit-identical column sums.
func cellNoiseBits(cells *noiseStream, sigma float64, b *seiBlock, in *bitvec.Vec, main, g []float64) int {
	m := len(main)
	data := b.eff.Data()
	draws := 0
	if b.contig {
		lo := b.inputs[0]
		hi := lo + len(b.inputs)
		for j := in.NextSet(lo); j >= 0 && j < hi; j = in.NextSet(j + 1) {
			local := j - lo
			cells.block(g[:m])
			draws += m
			row := data[local*m : (local+1)*m]
			for c, v := range row {
				main[c] += sigma * v * g[c]
			}
		}
		return draws
	}
	for local, j := range b.inputs {
		if !in.Get(j) {
			continue
		}
		cells.block(g[:m])
		draws += m
		row := data[local*m : (local+1)*m]
		for c, v := range row {
			main[c] += sigma * v * g[c]
		}
	}
	return draws
}

// cellNoiseAggregated is the opt-in approximate mode (SetNoiseApprox):
// instead of one Gaussian per active cell, each column gets a single
// draw scaled by the summed per-cell variance — the exact pass
// perturbs column c by Σ_active σ·w·g, a zero-mean Gaussian with
// variance σ²·Σ_active w², and this pass samples that distribution
// directly from the block's precomputed squared-weight table (b.sq).
// Distributionally identical to the exact pass (pinned by the KS and
// moment tests in noise_test.go), ~ones× cheaper in draws, and by
// design NOT bit-identical to it. vs is the per-column variance
// scratch; returns the number of draws consumed (always m).
func cellNoiseAggregated(cells *noiseStream, sigma float64, b *seiBlock, in *bitvec.Vec, main, g, vs []float64) int {
	m := len(main)
	for c := range vs[:m] {
		vs[c] = 0
	}
	sq := b.sq.Data()
	if b.contig {
		lo := b.inputs[0]
		hi := lo + len(b.inputs)
		for j := in.NextSet(lo); j >= 0 && j < hi; j = in.NextSet(j + 1) {
			row := sq[(j-lo)*m : (j-lo+1)*m]
			for c, v := range row {
				vs[c] += v
			}
		}
	} else {
		for local, j := range b.inputs {
			if !in.Get(j) {
				continue
			}
			row := sq[local*m : (local+1)*m]
			for c, v := range row {
				vs[c] += v
			}
		}
	}
	cells.block(g[:m])
	for c := range main {
		main[c] += sigma * sqrtNonneg(vs[c]) * g[c]
	}
	return m
}

// sqrtNonneg is math.Sqrt clamped at zero for the float-rounding case
// where a variance accumulation lands at −0 or a denormal negative.
func sqrtNonneg(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
