package seicore

// The packed per-image walker. After 1-bit quantization every
// inter-layer activation is binary, so the crossbar MVM degenerates to
// summing the effective-weight rows whose input bit is set and max
// pooling to an OR of bits (the paper's core observation; Section 3).
// This file carries those activations as uint64-word-packed bit
// vectors end to end — packed activation maps, bit-blitted im2col
// windows, OR-fused pooling — and reuses one per-goroutine scratch
// arena for every buffer the forward pass needs, making steady-state
// Predict allocation-free.
//
// One walker serves every linear read-out. Each non-ideality the repo
// models is a separate pass over the binary column sums: variation,
// stuck faults and level quantization are already folded into the
// effective weights (matrix.go); IR drop is a per-column scale fixed
// by the active-row count; per-column read noise is one draw per
// column current; per-cell read noise is a second walk over the same
// active rows in the same ascending order (readout.go). On an ideal
// read-out those passes do nothing, so the ideal and the noisy designs
// share the layer kernels. Only the sinh I-V transfer breaks the
// separation (it distorts the analog input stage before the product);
// those designs keep the float path, selected in SEIDesign.Predict.
//
// Each stage's kernel is picked from facts about that layer
// (stage0Kernel, convKernel): the row-strip or gather kernel at stage
// 0; the bounded, single-word or bitvec kernel at the SEI stages.
//
// Contract (pinned by determinism_test.go, fast_test.go and
// noise_test.go): the walker is bit-identical to the float path in
// predictions, hardware-counter totals and noise draws. Every float
// accumulation visits rows in the exact order of the float path's
// skip-zero loops, every counter is recorded at the same logical
// event, and the fused OR pool writes the same output bits as
// quant.orPool (OR is order-independent on bits). Bounded mode keeps
// labels and records only the work actually performed (bounds.go).

import (
	"math/bits"

	"sei/internal/bitvec"
	"sei/internal/quant"
	"sei/internal/tensor"
)

// stageGeom is the pre-resolved geometry of one conv stage: input map
// dims, output grid, pooled output grid.
type stageGeom struct {
	kh, kw, stride, pool int
	inC, inH, inW        int
	outH, outW           int // pre-pool output grid
	pooledH, pooledW     int // post-pool dims (== outH/outW when pool ≤ 1)
	fan                  int // receptive-field size inC·kh·kw
	filters              int
}

// fastGeometry chains the quantized net's stage shapes from InShape,
// mirroring the shape arithmetic of quant.convStage/orPool (including
// the floor division that drops pool-uncovered edge rows).
func fastGeometry(q *quant.QuantizedNet) []stageGeom {
	inC, inH, inW := q.InShape[0], q.InShape[1], q.InShape[2]
	gs := make([]stageGeom, len(q.Convs))
	for l := range q.Convs {
		c := &q.Convs[l]
		g := stageGeom{
			kh: c.W.Dim(2), kw: c.W.Dim(3), stride: c.Stride, pool: c.PoolSize,
			inC: inC, inH: inH, inW: inW,
			fan: c.FanIn(), filters: c.Filters(),
		}
		g.outH = (inH-g.kh)/g.stride + 1
		g.outW = (inW-g.kw)/g.stride + 1
		g.pooledH, g.pooledW = g.outH, g.outW
		if g.pool > 1 {
			g.pooledH, g.pooledW = g.outH/g.pool, g.outW/g.pool
		}
		gs[l] = g
		inC, inH, inW = g.filters, g.pooledH, g.pooledW
	}
	return gs
}

// seiScratch is one goroutine's arena for the packed walker: every
// buffer a full forward pass touches, sized once for the design's
// largest stage. Predict borrows a scratch from the design's pool, so
// steady-state inference performs zero heap allocations per image.
type seiScratch struct {
	geom      []stageGeom
	cur, next *bitvec.Vec // packed activation maps, ping-pong
	win       *bitvec.Vec // packed receptive-field window
	field     []float64   // stage-0 float im2col window (DAC-driven)
	strip     []float64   // stage-0 output-row column sums (row-strip kernel)
	col       []float64   // per-block column sums
	fired     []int       // per-column fired-block counts
	scores    []float64   // FC classifier scores
	gauss     []float64   // per-cell noise-draw block
}

// newSEIScratch sizes an arena for d.
func newSEIScratch(d *SEIDesign) *seiScratch {
	s := &seiScratch{geom: fastGeometry(d.Q)}
	maxMap, maxFan, maxM := 0, 0, 0
	for l, g := range s.geom {
		if n := g.filters * g.pooledH * g.pooledW; n > maxMap {
			maxMap = n
		}
		if l > 0 && g.fan > maxFan {
			maxFan = g.fan
		}
		if g.filters > maxM {
			maxM = g.filters
		}
	}
	if d.FC.M > maxM {
		maxM = d.FC.M
	}
	s.cur = bitvec.New(maxMap)
	s.next = bitvec.New(maxMap)
	s.win = bitvec.New(maxFan)
	s.field = make([]float64, s.geom[0].fan)
	s.strip = make([]float64, s.geom[0].outW*s.geom[0].filters)
	s.col = make([]float64, maxM)
	s.fired = make([]int, maxM)
	s.scores = make([]float64, d.FC.M)
	s.gauss = make([]float64, maxM)
	return s
}

// anyReadout reports whether f holds for some stage's read-out.
func (d *SEIDesign) anyReadout(f func(*readout) bool) bool {
	if f(&d.Input.readout) || f(&d.FC.readout) {
		return true
	}
	for _, l := range d.Convs {
		if f(&l.readout) {
			return true
		}
	}
	return false
}

// stageKernel names the kernel one stage of a packed walker runs.
type stageKernel int

const (
	// kernelStrip scans each image row once per output row and scatters
	// its pixels into a strip of per-window column sums (stage 0).
	kernelStrip stageKernel = iota
	// kernelGather gathers each float window, runs MatVecTInto and the
	// read-noise pass, and records counters (stage 0).
	kernelGather
	// kernelBounded is the activation-bound row walk (SEI stages).
	kernelBounded
	// kernelWord walks a receptive field packed into one machine word
	// (SEI stages).
	kernelWord
	// kernelBitvec walks a bitvec window (SEI stages).
	kernelBitvec
)

func (k stageKernel) String() string {
	return [...]string{"strip", "gather", "bounded", "word", "bitvec"}[k]
}

// stage0Kernel picks the input stage's kernel. The row strip needs
// stride 1 and no per-cell noise (cached in strip0), and records no
// counters, so an instrumented design gathers.
func (d *SEIDesign) stage0Kernel() stageKernel {
	if d.strip0 && d.Input.hw == nil {
		return kernelStrip
	}
	return kernelGather
}

// convKernel picks an SEI conv stage's kernel. Bounds are exact only
// on ideal read-outs and need the columns to fit the undecided mask;
// the single-word window needs the fan-in in one word, contiguous
// blocks and no per-cell noise (cached in l.word).
func (d *SEIDesign) convKernel(l *SEIConvLayer) stageKernel {
	switch {
	case d.bounded && d.ideal && l.boundable():
		return kernelBounded
	case l.word:
		return kernelWord
	default:
		return kernelBitvec
	}
}

// wordWindowEligible reports whether the layer's receptive field fits
// in 64 bits and every block holds a contiguous ascending input range,
// so block-local rows are bit positions and the row walk is a
// TrailingZeros loop. Per-cell noise keeps the bitvec window (its draw
// walk consumes one).
func (l *SEIConvLayer) wordWindowEligible() bool {
	if l.N > 64 || l.cells != nil {
		return false
	}
	for bi := range l.blocks {
		if !l.blocks[bi].contig {
			return false
		}
	}
	return true
}

// gatherFloatWindow copies one receptive-field window out of the float
// input map into dst, in exactly tensor.Im2Col's element order
// (channel-major, then kernel row, then kernel column).
func gatherFloatWindow(data []float64, g *stageGeom, oy, ox int, dst []float64) {
	di := 0
	for ch := 0; ch < g.inC; ch++ {
		base := ch * g.inH * g.inW
		for ky := 0; ky < g.kh; ky++ {
			src := base + (oy*g.stride+ky)*g.inW + ox*g.stride
			copy(dst[di:di+g.kw], data[src:src+g.kw])
			di += g.kw
		}
	}
}

// gatherBitWindow is gatherFloatWindow on a packed activation map:
// each kernel row is a kw-bit blit, so a window costs O(fan/64 + rows)
// word operations instead of fan float copies.
func gatherBitWindow(in *bitvec.Vec, g *stageGeom, oy, ox int, dst *bitvec.Vec) {
	di := 0
	for ch := 0; ch < g.inC; ch++ {
		base := ch * g.inH * g.inW
		for ky := 0; ky < g.kh; ky++ {
			src := base + (oy*g.stride+ky)*g.inW + ox*g.stride
			bitvec.CopyRange(dst, di, in, src, g.kw)
			di += g.kw
		}
	}
}

// gatherWindowWord packs one receptive-field window (fan ≤ 64) into a
// single machine word, in gatherBitWindow's bit order: kernel-row
// segments of the map, concatenated channel-major.
func gatherWindowWord(in *bitvec.Vec, g *stageGeom, oy, ox int) uint64 {
	words := in.Words()
	var win uint64
	di := 0
	for ch := 0; ch < g.inC; ch++ {
		base := ch * g.inH * g.inW
		for ky := 0; ky < g.kh; ky++ {
			src := base + (oy*g.stride+ky)*g.inW + ox*g.stride
			off := uint(src) & 63
			w := words[src>>6] >> off
			if rem := 64 - int(off); rem < g.kw {
				w |= words[(src>>6)+1] << uint(rem)
			}
			win |= (w & (1<<uint(g.kw) - 1)) << uint(di)
			di += g.kw
		}
	}
	return win
}

// poolSet writes one fired output bit into the (pool-fused) output
// map: with pooling the bit lands OR-wise in its pool window's slot,
// and positions in edge rows/columns the floor-division pool grid
// never covers are dropped — exactly what quant.orPool computes.
func poolSet(out *bitvec.Vec, g *stageGeom, k, oy, ox int) {
	py, px := oy, ox
	if g.pool > 1 {
		py /= g.pool
		px /= g.pool
		if py >= g.pooledH || px >= g.pooledW {
			return
		}
	}
	out.Set((k*g.pooledH+py)*g.pooledW + px)
}

// croppedAt reports whether output position (oy, ox) falls outside
// the floor-division pool grid — the mirror of poolSet's drop
// condition. Bounded mode skips such windows wholesale: their outputs
// are unreadable, so not driving them cannot change anything.
func (g *stageGeom) croppedAt(oy, ox int) bool {
	return g.pool > 1 && (oy/g.pool >= g.pooledH || ox/g.pool >= g.pooledW)
}

// live returns the extent of the output grid the pool grid keeps: the
// positions croppedAt does not report.
func (g *stageGeom) live() (h, w int) {
	if g.pool > 1 {
		return g.pooledH * g.pool, g.pooledW * g.pool
	}
	return g.outH, g.outW
}

// predictPacked classifies one image on the packed walker. The caller
// owns s for the duration of the call.
func (d *SEIDesign) predictPacked(img *tensor.Tensor, s *seiScratch) int {
	q := d.Q
	// The pool-crop skip comes with bounded mode, which is exact only
	// on ideal read-outs (a noisy window's draws must still be taken).
	bounded := d.bounded && d.ideal

	// Stage 0 keeps the DAC+ADC organization (Section 3.2): float
	// image windows through the merged input layer, binarized by the
	// stage threshold, pooled into the first packed map.
	g := &s.geom[0]
	out := s.cur
	out.Reset(g.filters * g.pooledH * g.pooledW)
	if d.stage0Kernel() == kernelStrip {
		d.stage0Strip(img.Data(), g, s.strip, out)
	} else {
		d.stage0Gather(img.Data(), g, s, out, bounded)
	}
	if g.pool > 1 {
		q.CountORPool(int64(g.filters * g.pooledH * g.pooledW))
	}

	// Deeper conv stages are SEI crossbars: packed windows in, SA
	// threshold counts out, OR-fused pooling.
	for l := 1; l < len(q.Convs); l++ {
		layer := d.Convs[l-1]
		kernel := d.convKernel(layer)
		g := &s.geom[l]
		in := s.cur
		out := s.next
		out.Reset(g.filters * g.pooledH * g.pooledW)
		s.win.Reset(g.fan)
		fired := s.fired[:layer.M]
		col := s.col[:layer.M]
		var cropSkip int64
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				crop := bounded && g.croppedAt(oy, ox)
				if kernel == kernelWord {
					w := gatherWindowWord(in, g, oy, ox)
					if crop {
						cropSkip += int64(bits.OnesCount64(w))
						continue
					}
					layer.evalCountsWord(w, fired, col)
				} else {
					gatherBitWindow(in, g, oy, ox, s.win)
					if crop {
						cropSkip += int64(s.win.OnesCount())
						continue
					}
					if kernel == kernelBounded {
						layer.evalBoundedCounts(s.win, fired, col)
					} else {
						layer.evalCounts(s.win, fired, col, s.gauss)
					}
				}
				for k, f := range fired {
					if f >= layer.DigitalThreshold {
						poolSet(out, g, k, oy, ox)
					}
				}
			}
		}
		if g.pool > 1 {
			q.CountORPool(int64(g.filters * g.pooledH * g.pooledW))
		}
		if cropSkip > 0 {
			layer.skip.Record(0, cropSkip, 0, 0, 0)
		}
		s.cur, s.next = out, in
	}

	// FC stage: the flattened final map is already the packed input.
	d.FC.evalInto(s.cur, s.scores, s.col[:d.FC.M], s.gauss)
	best, bi := s.scores[0], 0
	for i, v := range s.scores {
		if v > best { // strict >: first maximum wins, as tensor.ArgMax
			best, bi = v, i
		}
	}
	return bi
}

// stage0Gather is the gather kernel: each window goes through the
// merged layer's evalInto, which records the counters and feeds the
// per-cell noise walk its input values. In bounded mode pool-cropped
// windows skip the MVM, their active inputs counted skipped (the
// merged layer has no threshold readout to bound rows against).
func (d *SEIDesign) stage0Gather(data []float64, g *stageGeom, s *seiScratch, out *bitvec.Vec, bounded bool) {
	thr := d.Q.Thresholds[0]
	col := s.col[:g.filters]
	var driven, skipped int64
	for oy := 0; oy < g.outH; oy++ {
		for ox := 0; ox < g.outW; ox++ {
			gatherFloatWindow(data, g, oy, ox, s.field)
			if bounded && g.croppedAt(oy, ox) {
				for _, v := range s.field {
					if v != 0 {
						skipped++
					}
				}
				continue
			}
			driven += int64(d.Input.evalInto(s.field, col, s.gauss))
			for k, v := range col {
				if v > thr {
					poolSet(out, g, k, oy, ox)
				}
			}
		}
	}
	if bounded {
		d.Input.skip.Record(driven, skipped, 0, 0, 0)
	}
}

// stage0Strip is the row-strip kernel: the windows are evaluated one
// output row at a time, each image row scanned once per (oy, ky) and
// its nonzero pixels scattered into the strip of per-window column
// sums, so a pixel is read kh times instead of kh·kw times. For a
// fixed window ox at stride 1, ascending pixel index means ascending
// kernel column, so every window still accumulates its contributions
// in exactly MatVecTInto's (ch, ky, kx) skip-zero order and the sums
// stay bit-identical; the read-out's column pass then walks the strip
// in window order, preserving the RNG stream.
func (d *SEIDesign) stage0Strip(data []float64, g *stageGeom, strip []float64, out *bitvec.Vec) {
	in := d.Input
	thr := d.Q.Thresholds[0]
	eff, m := in.eff.Data(), in.M
	// The merged layer models no IR drop, and the kernel never runs
	// with per-cell noise, so only per-column noise has column work.
	noisy := in.noisy()
	strip = strip[:g.outW*m]
	for oy := 0; oy < g.outH; oy++ {
		for i := range strip {
			strip[i] = 0
		}
		for ch := 0; ch < g.inC; ch++ {
			base := ch * g.inH * g.inW
			for ky := 0; ky < g.kh; ky++ {
				row := data[base+(oy+ky)*g.inW : base+(oy+ky+1)*g.inW]
				kbase := (ch*g.kh + ky) * g.kw
				for ix, x := range row {
					if x == 0 {
						continue
					}
					lo := ix - g.kw + 1
					if lo < 0 {
						lo = 0
					}
					hi := ix
					if hi >= g.outW {
						hi = g.outW - 1
					}
					for ox := lo; ox <= hi; ox++ {
						w := eff[(kbase+ix-ox)*m : (kbase+ix-ox+1)*m]
						dst := strip[ox*m : ox*m+m]
						for j, v := range w {
							dst[j] += v * x
						}
					}
				}
			}
		}
		for ox := 0; ox < g.outW; ox++ {
			cw := strip[ox*m : ox*m+m]
			if noisy {
				in.columns(cw, 0)
			}
			for k, v := range cw {
				if v > thr {
					poolSet(out, g, k, oy, ox)
				}
			}
		}
	}
}

// evalCountsWord is evalCounts over a single-word window: each
// contiguous block selects its rows by mask and walks set bits
// lowest-first — the same ascending local order, sums, draws and
// counters as the bitvec walk, with no window blit and no second pass
// (the kernel never runs with per-cell noise, so only the column-level
// read-out applies).
func (l *SEIConvLayer) evalCountsWord(win uint64, fired []int, col []float64) {
	for c := range fired {
		fired[c] = 0
	}
	m := len(col)
	for bi := range l.blocks {
		b := &l.blocks[bi]
		w := win >> uint(b.inputs[0])
		if n := len(b.inputs); n < 64 {
			w &= 1<<uint(n) - 1
		}
		for c := range col {
			col[c] = 0
		}
		data := b.eff.Data()
		ones := 0
		w0sum := 0.0
		for bs := w; bs != 0; bs &= bs - 1 {
			local := bits.TrailingZeros64(bs)
			ones++
			row := data[local*m : (local+1)*m]
			for c, v := range row {
				col[c] += v
			}
			if b.w0 != nil {
				w0sum += b.w0[local]
			}
		}
		l.hw.ActiveInputs(int64(ones))
		l.columns(col, ones)
		ref := l.BaseThr[bi] + l.Gamma*(float64(ones)-l.OnesMean[bi]) + w0sum
		for c, s := range col {
			if s > ref {
				fired[c]++
			}
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.SACompares(int64(l.K * l.M))
		h.ColumnActivations(int64(l.K * l.M))
	}
}

// evalCounts is the packed twin of the float Eval: bit-summed blocks,
// the read-out effects applied per block, the same sense-amp compare,
// hardware counters recorded at the same logical events. It fills
// fired (len M, the per-column count of blocks whose SA fired); the
// caller applies Eval's `>= DigitalThreshold` compare.
func (l *SEIConvLayer) evalCounts(in *bitvec.Vec, fired []int, col, g []float64) {
	for c := range fired {
		fired[c] = 0
	}
	for bi := range l.blocks {
		b := &l.blocks[bi]
		w0sum, ones := b.sumsBits(in, col)
		l.hw.ActiveInputs(int64(ones))
		l.readBits(b, in, col, ones, g)
		ref := l.BaseThr[bi] + l.Gamma*(float64(ones)-l.OnesMean[bi]) + w0sum
		for c, s := range col {
			if s > ref {
				fired[c]++
			}
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.SACompares(int64(l.K * l.M))
		h.ColumnActivations(int64(l.K * l.M))
	}
}

// evalInto is the packed twin of the FC Eval: scores are written into
// out (len M), col is a per-block column scratch (len M) and g the
// per-cell draw scratch. Bias copy, block order, read-out and the
// `s − w0sum` accumulation all match Eval, so scores are bit-identical.
func (l *SEIFCLayer) evalInto(in *bitvec.Vec, out, col, g []float64) {
	copy(out, l.Bias)
	for bi := range l.blocks {
		b := &l.blocks[bi]
		w0sum, ones := b.sumsBits(in, col)
		l.hw.ActiveInputs(int64(ones))
		w0sum *= l.readBits(b, in, col, ones, g)
		for c, s := range col {
			out[c] += s - w0sum
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.ColumnActivations(int64(l.K * l.M))
	}
}
