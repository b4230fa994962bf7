package seicore

// The crossbar read-out: how a device model perturbs a block's column
// sums once the column currents have formed, and which noise source it
// draws from. The paper's structures differ in how they interface a
// crossbar (ADC merging, Fig. 2b, vs sense amplifiers, Fig. 2c/d), not
// in how a read behaves, so every crossbar layer — MergedLayer,
// SEIConvLayer, SEIFCLayer — embeds one readout and runs the same
// passes. Only the per-cell walk differs between the float reference
// path (readFloat) and the packed walker (readBits).
//
// The effects, in order: per-cell read noise perturbs each active
// cell's current (one Gaussian per selected cell); the IR-drop factor
// scales the column current by the driven-row load; per-column read
// noise multiplies each scaled column sum. The sinh I-V nonlinearity is
// not a read-out effect: SEI inputs are 0 or full swing, and the
// full-swing gain is removed by one-point calibration
// (rram.TransferCalibrated), so 1-bit layers are exactly immune to it;
// the DAC-driven input stage applies it to its inputs (MergedLayer.Eval).
//
// The per-column model (DeviceModel.ReadNoiseSigma alone) keeps its
// original math/rand ziggurat stream, so every noisy design,
// calibration run and snapshot stays bit-for-bit identical. The
// per-cell model (ReadNoisePerCell) draws far more values — one per
// active cell instead of one per column — and must replay the
// identical draw sequence on both paths at every worker count, so it
// uses the counter-indexed vecf kernel: a draw is a pure function of
// (seed, index), blocks of any size reproduce the scalar stream, and
// consumption is countable (sei_noise_draws) rather than hidden
// generator state.
//
// Both paths visit a block's active rows in ascending local order — the
// float path's skip-zero loop and the packed path's trailing-zeros walk
// enumerate the same rows in the same order — and draw one length-M
// block per active row, so the stream position after any prefix of the
// work is identical on both paths. That is the whole bit-identity
// argument; determinism_test.go pins it end to end.

import (
	"math/bits"
	"math/rand"

	"sei/internal/obs"
	"sei/internal/rram"
	"sei/internal/vecf"
)

// readout is one crossbar layer's device read-out.
type readout struct {
	model rram.DeviceModel
	// irRows is the number of physical rows one active logical input
	// drives: the IR-drop load per input. Zero on the ADC-merged layers,
	// whose IR drop is not modeled.
	irRows int
	// noise is the per-column read-noise RNG (one multiplicative draw
	// per column current); cells is the per-cell draw stream (one draw
	// per selected cell). At most one is non-nil, selected by the
	// model's ReadNoisePerCell flag.
	noise *rand.Rand
	cells *noiseStream
	hw    *obs.HW // hardware-event counters; nil = not instrumented
}

// newReadout builds a layer's read-out at programming time, after the
// layer's programming draws: a per-cell layer seeds its stream with one
// draw of rng, a per-column layer draws from rng itself.
func newReadout(model rram.DeviceModel, irRows int, rng *rand.Rand) readout {
	r := readout{model: model, irRows: irRows}
	if model.ReadNoiseSigma > 0 {
		if model.ReadNoisePerCell {
			r.cells = newNoiseStream(int64(rng.Uint64()))
		} else {
			r.noise = rng
		}
	}
	return r
}

// seeded returns a copy of r owning a fresh noise source anchored at
// seed: a per-column RNG or a per-cell stream, as the model asks.
// Noise-free read-outs come back unchanged. Loaded designs (LoadDesign)
// and per-chunk evaluation clones (evalClone) anchor their noise here.
func (r readout) seeded(seed int64) readout {
	switch {
	case r.model.ReadNoiseSigma <= 0:
	case r.model.ReadNoisePerCell:
		r.cells = newNoiseStream(seed)
	default:
		r.noise = rand.New(rand.NewSource(seed))
	}
	return r
}

// noisy reports whether the read-out draws noise.
func (r *readout) noisy() bool { return r.noise != nil || r.cells != nil }

// readoutOf gives evalClone access to a layer's embedded read-out.
func (r *readout) readoutOf() *readout { return r }

// evalClone returns l itself when its read-out is noise-free, else a
// copy sharing everything but its noise source, re-anchored at seed.
func evalClone[L any, P interface {
	*L
	readoutOf() *readout
}](l P, seed int64) P {
	if !l.readoutOf().noisy() {
		return l
	}
	clone := P(new(L))
	*clone = *l
	r := clone.readoutOf()
	*r = r.seeded(seed)
	return clone
}

// readFloat is the float reference path's read-out of one block's
// column sums. data is the block's effective matrix, rows maps its
// local rows to input indices (nil: the identity, as on a merged
// layer's single matrix), and in is the input vector — 0/1 on the SEI
// stages, analog on the DAC-driven input stage, where per-cell noise
// scales with the driven level (σ·x·w·g per cell). g is the per-cell
// draw scratch (len ≥ len(sums)); nil allocates one when needed.
// Returns the IR-drop scale (columns).
func (r *readout) readFloat(data []float64, rows []int, in, sums []float64, ones int, g []float64) float64 {
	if r.cells != nil {
		m := len(sums)
		if g == nil {
			g = make([]float64, m)
		}
		n := len(rows)
		if rows == nil {
			n = len(in)
		}
		draws := 0
		for local := 0; local < n; local++ {
			j := local
			if rows != nil {
				j = rows[local]
			}
			if x := in[j]; x != 0 {
				r.cellRow(data[local*m:(local+1)*m], x, sums, g)
				draws += m
			}
		}
		r.hw.NoiseDraws(int64(draws))
	}
	return r.columns(sums, ones)
}

// readBits is readFloat on a packed window in layer-local order: the
// same rows in the same ascending order (sumsBits's walk), the same
// draws, the same accumulation — bit-identical column sums.
func (r *readout) readBits(b *seiBlock, win []uint64, sums []float64, ones int, g []float64) float64 {
	if r.cells != nil {
		m := len(sums)
		data := b.eff.Data()
		for wi := b.lo >> 6; wi<<6 < b.hi; wi++ {
			for w := rangeWord(win, wi, b.lo, b.hi); w != 0; w &= w - 1 {
				local := wi<<6 + bits.TrailingZeros64(w) - b.lo
				r.cellRow(data[local*m:(local+1)*m], 1, sums, g)
			}
		}
		r.hw.NoiseDraws(int64(ones * m))
	}
	return r.columns(sums, ones)
}

// cellRow draws the next len(sums) per-cell Gaussians into g and
// perturbs one active row's contribution by σ·x·w·g per column. With
// x = 1 the product rounds exactly as σ·w·g does.
func (r *readout) cellRow(row []float64, x float64, sums, g []float64) {
	g = g[:len(sums)]
	r.cells.block(g)
	sigma := r.model.ReadNoiseSigma
	for c, v := range row {
		sums[c] += sigma * x * v * g[c]
	}
}

// columns applies the column-level effects to one block's sums: the
// IR-drop scale for ones active inputs, then per-column read noise.
// Returns the scale, which the FC layer also applies to its
// dynamic-column sum (1 when the model has no IR drop).
func (r *readout) columns(sums []float64, ones int) float64 {
	scale := r.irDrop(sums, ones)
	if r.noise != nil {
		sigma := r.model.ReadNoiseSigma
		for c := range sums {
			sums[c] *= 1 + sigma*r.noise.NormFloat64()
		}
		r.hw.NoiseDraws(int64(len(sums)))
	}
	return scale
}

// columnsDrawn is columns with the per-column draws taken beforehand
// (the sliced walker's pre-drawn lanes, which record NoiseDraws when
// they draw): the same expressions in the same order, so the same
// rounding. draws is nil on a noise-free read-out.
func (r *readout) columnsDrawn(sums []float64, ones int, draws []float64) float64 {
	scale := r.irDrop(sums, ones)
	if draws != nil {
		sigma := r.model.ReadNoiseSigma
		for c := range sums {
			sums[c] *= 1 + sigma*draws[c]
		}
	}
	return scale
}

// irDrop scales sums by the IR-drop factor for ones active inputs and
// returns it (1 when the model has no IR drop).
func (r *readout) irDrop(sums []float64, ones int) float64 {
	scale := 1.0
	if a := r.model.IRDropAlpha; a > 0 {
		scale = 1 - a*float64(ones*r.irRows)/float64(rram.MaxCrossbarSize)
		for c := range sums {
			sums[c] *= scale
		}
	}
	return scale
}

// noiseStream is one layer's per-cell draw stream: a cursor over the
// counter-indexed Gaussian sequence of a seed. Cloned per evaluation
// chunk exactly like the per-column RNGs, so worker count never changes
// which draws an image sees.
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
