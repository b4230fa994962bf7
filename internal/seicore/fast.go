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
// Each stage has one kernel. Stage 0 is the row strip (stage0). An SEI
// stage gathers each window into words once, moves it into the layer's
// block order when the blocks are permuted (seiArray.local), and walks
// every block's bit range lowest-first; bounded mode (boundedAt) swaps
// in the bounded row walk.
//
// Contract (pinned by determinism_test.go, fast_test.go and
// noise_test.go): the walker is bit-identical to the float path in
// predictions, hardware-counter totals and noise draws. Every float
// accumulation visits rows in the exact order of the float path's
// skip-zero loops, every counter total matches (stage 0 charges its
// counters from pixel coverage, as the sliced walker does), and the
// fused OR pool writes the same output bits as quant.orPool (OR is
// order-independent on bits). Bounded mode keeps
// labels and records only the work actually performed (bounds.go).

import (
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
	win       []uint64    // packed receptive-field window, logical order
	local     []uint64    // the window (or FC input) in layer-local order
	strip     []float64   // stage-0 output-row column sums
	col       []float64   // per-block column sums
	fired     []int       // per-column fired-block counts
	scores    []float64   // FC classifier scores
	gauss     []float64   // per-cell noise-draw block
	// cover and coverLive count, per stage-0 input pixel, the windows
	// and the pool-covered windows reading it (coverage); first and last
	// give, per stage-0 image column, the first and last window columns
	// reading it (first > last when none does), so the row strip does
	// no division per pixel.
	cover, coverLive []int32
	first, last      []int
}

// newSEIScratch sizes an arena for d.
func newSEIScratch(d *SEIDesign) *seiScratch {
	s := &seiScratch{geom: fastGeometry(d.Q)}
	maxMap, maxFan, maxM := 0, d.FC.N, d.FC.M
	for l, g := range s.geom {
		maxMap = max(maxMap, g.filters*g.pooledH*g.pooledW)
		if l > 0 {
			maxFan = max(maxFan, g.fan)
		}
		maxM = max(maxM, g.filters)
	}
	g := &s.geom[0]
	s.cur = bitvec.New(maxMap)
	s.next = bitvec.New(maxMap)
	s.win = make([]uint64, (maxFan+63)/64)
	s.local = make([]uint64, (maxFan+63)/64)
	s.strip = make([]float64, g.outW*g.filters)
	s.col = make([]float64, maxM)
	s.fired = make([]int, maxM)
	s.scores = make([]float64, d.FC.M)
	s.gauss = make([]float64, maxM)
	s.cover, s.coverLive = g.coverage()
	s.first, s.last = make([]int, g.inW), make([]int, g.inW)
	for x := range s.first {
		if x >= g.kw {
			s.first[x] = (x-g.kw)/g.stride + 1
		}
		s.last[x] = min(x/g.stride, g.outW-1)
	}
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

// boundedAt reports whether an SEI conv stage runs the bounded row
// walk: bounds are exact only on ideal read-outs and need the columns
// to fit the undecided mask.
func (d *SEIDesign) boundedAt(l *SEIConvLayer) bool {
	return d.bounded && d.ideal && l.boundable()
}

// gatherWindow packs one receptive-field window of the packed map in
// into dst (len ⌈fan/64⌉), in tensor.Im2Col's column order
// (channel-major, then kernel row, then kernel column), so a window bit
// is the float path's im2col column. Each kernel row is a kw-bit
// segment of the map, shifted out of its word (and the next, when it
// straddles one) and OR-ed into a register at the running offset; a
// filled register is stored and its spill starts the next word.
func gatherWindow(in []uint64, g *stageGeom, oy, ox int, dst []uint64) {
	inC, kh, kw, inW := g.inC, g.kh, g.kw, g.inW
	plane, corner := g.inH*inW, (oy*inW+ox)*g.stride // corner: the window's top-left bit
	var acc uint64
	wi, off := 0, uint(0)
	for ch := 0; ch < inC; ch++ {
		top := ch*plane + corner
		for src := top; src < top+kh*inW; src += inW {
			for k := 0; k < kw; k += 64 {
				n := uint(min(kw-k, 64))
				w := bitsAt(in, src+k, n)
				acc |= w << off
				if off+n >= 64 {
					dst[wi] = acc
					wi++
					acc = w >> (64 - off)
				}
				off = (off + n) & 63
			}
		}
	}
	if off != 0 {
		dst[wi] = acc
	}
}

// bitsAt returns the n ≤ 64 bits of words starting at bit off.
func bitsAt(words []uint64, off int, n uint) uint64 {
	sh := uint(off) & 63
	w := words[off>>6] >> sh
	if 64-sh < n {
		w |= words[off>>6+1] << (64 - sh)
	}
	if n < 64 {
		w &= 1<<n - 1
	}
	return w
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

// coverage counts, per input pixel (y·inW + x), the windows reading it
// (cover) and the pool-covered ones (live). Coverage is separable:
// cover(y,x) = rows(y)·cols(x), the per-axis counts of kernel
// placements reading that coordinate, and a window is live iff both
// its axes are.
func (g *stageGeom) coverage() (cover, live []int32) {
	liveH, liveW := g.live()
	rows := coverage1D(g.inH, g.kh, g.stride, g.outH)
	cols := coverage1D(g.inW, g.kw, g.stride, g.outW)
	liveRows := coverage1D(g.inH, g.kh, g.stride, liveH)
	liveCols := coverage1D(g.inW, g.kw, g.stride, liveW)
	cover = make([]int32, g.inH*g.inW)
	live = make([]int32, g.inH*g.inW)
	for y := 0; y < g.inH; y++ {
		for x := 0; x < g.inW; x++ {
			cover[y*g.inW+x] = rows[y] * cols[x]
			live[y*g.inW+x] = liveRows[y] * liveCols[x]
		}
	}
	return cover, live
}

// coverage1D counts, per input coordinate, how many of the first outN
// kernel placements along one axis read it.
func coverage1D(in, k, stride, outN int) []int32 {
	c := make([]int32, in)
	for o := 0; o < outN; o++ {
		for d := 0; d < k; d++ {
			c[o*stride+d]++
		}
	}
	return c
}

// recordStage0 records the input stage's counters for a batch of
// images as totals of the per-window events: each window is one MVM
// over M columns whose active inputs are its nonzero pixels, so a
// nonzero pixel counts once per window reading it. nz(p) is the number
// of images whose pixel p is nonzero. Bounded runs charge only the
// pool-covered windows and record the cropped ones' active inputs as
// skipped.
func (d *SEIDesign) recordStage0(g *stageGeom, cover, coverLive []int32, images int64, bounded bool, nz func(p int) int64) {
	in := d.Input
	if in.hw == nil && in.skip == nil {
		return
	}
	positions, charged := int64(g.outH*g.outW), cover
	if bounded {
		liveH, liveW := g.live()
		positions, charged = int64(liveH*liveW), coverLive
	}
	plane := g.inH * g.inW
	var driven, skipped int64
	for p := 0; p < g.inC*plane; p++ {
		if n := nz(p); n != 0 {
			driven += n * int64(charged[p%plane])
			skipped += n * int64(cover[p%plane]-charged[p%plane])
		}
	}
	if h := in.hw; h != nil {
		h.MVM(positions * images)
		h.ColumnActivations(positions * int64(g.filters) * images)
		h.ActiveInputs(driven)
	}
	if bounded {
		in.skip.Record(driven, skipped, 0, 0, 0)
	}
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
	data := img.Data()
	d.stage0(data, g, s, out)
	d.recordStage0(g, s.cover, s.coverLive, 1, bounded, func(p int) int64 {
		if data[p] != 0 {
			return 1
		}
		return 0
	})
	if g.pool > 1 {
		q.CountORPool(int64(g.filters * g.pooledH * g.pooledW))
	}

	// Deeper conv stages are SEI crossbars: packed windows in, SA
	// threshold counts out, OR-fused pooling.
	for l := 1; l < len(q.Convs); l++ {
		layer := d.Convs[l-1]
		bnd := d.boundedAt(layer)
		g := &s.geom[l]
		in := s.cur
		out := s.next
		out.Reset(g.filters * g.pooledH * g.pooledW)
		win := s.win[:(g.fan+63)/64]
		fired := s.fired[:layer.M]
		col := s.col[:layer.M]
		var cropSkip int64
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				gatherWindow(in.Words(), g, oy, ox, win)
				if bounded && g.croppedAt(oy, ox) {
					cropSkip += int64(onesIn(win, 0, g.fan))
					continue
				}
				lw := layer.local(win, s.local)
				if bnd {
					layer.evalBoundedCounts(lw, fired, col)
				} else {
					layer.evalCounts(lw, fired, col, s.gauss)
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
	d.FC.evalInto(d.FC.local(s.cur.Words(), s.local), s.scores, s.col[:d.FC.M], s.gauss)
	best, bi := s.scores[0], 0
	for i, v := range s.scores {
		if v > best { // strict >: first maximum wins, as tensor.ArgMax
			best, bi = v, i
		}
	}
	return bi
}

// stage0 is the input stage's row-strip kernel: the windows are
// evaluated one output row at a time, each image row scanned once per
// (oy, ky) and its nonzero pixels scattered into the strip of
// per-window column sums, so a pixel is read kh times instead of kh·kw
// times. For a fixed window ox, ascending pixel index means ascending
// kernel column at any stride, so every window accumulates its
// contributions in exactly MatVecTInto's (ch, ky, kx) skip-zero order
// and the sums are bit-identical to the float path's. The read-out then
// runs per window, in window order: the per-cell draws walk the
// window's nonzero pixels in the same (ch, ky, kx) order as
// readFloat, then the column pass draws per-column noise — the RNG
// stream stays exact. A noise-free read-out leaves pool-cropped
// windows out: their outputs are never read, and recordStage0 charges
// the counters from pixel coverage alone.
func (d *SEIDesign) stage0(data []float64, g *stageGeom, s *seiScratch, out *bitvec.Vec) {
	in := d.Input
	thr := d.Q.Thresholds[0]
	eff, m := in.eff.Data(), in.M
	noisy := in.noisy()
	outH, outW := g.outH, g.outW
	if !noisy {
		outH, outW = g.live()
	}
	strip := s.strip[:outW*m]
	stride, inW, first, last, cells := g.stride, g.inW, s.first, s.last, in.cells != nil
	for oy := 0; oy < outH; oy++ {
		clear(strip)
		for ch := 0; ch < g.inC; ch++ {
			for ky := 0; ky < g.kh; ky++ {
				y := ch*g.inH + oy*stride + ky
				kbase := (ch*g.kh + ky) * g.kw
				for ix, x := range data[y*inW : (y+1)*inW] {
					if x == 0 {
						continue
					}
					// Window ox reads the pixel through kernel row r.
					ox, hi := first[ix], min(last[ix], outW-1)
					for r := kbase + ix - ox*stride; ox <= hi; ox, r = ox+1, r-stride {
						dst := strip[ox*m : ox*m+m]
						for j, v := range eff[r*m : r*m+m] {
							dst[j] += v * x
						}
					}
				}
			}
		}
		for ox := 0; ox < outW; ox++ {
			cw := strip[ox*m : ox*m+m]
			if cells {
				draws, r := 0, 0
				for ch := 0; ch < g.inC; ch++ {
					for ky := 0; ky < g.kh; ky++ {
						src := (ch*g.inH+oy*g.stride+ky)*g.inW + ox*g.stride
						for _, x := range data[src : src+g.kw] {
							if x != 0 {
								in.cellRow(eff[r*m:r*m+m], x, cw, s.gauss)
								draws += m
							}
							r++
						}
					}
				}
				in.hw.NoiseDraws(int64(draws))
			}
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

// evalCounts is the packed twin of the float Eval over a window in
// layer-local order: bit-summed blocks, the read-out effects applied
// per block, the same sense-amp compare, hardware counters recorded at
// the same logical events. It fills fired (len M, the per-column count
// of blocks whose SA fired); the caller applies Eval's
// `>= DigitalThreshold` compare.
func (l *SEIConvLayer) evalCounts(win []uint64, fired []int, col, g []float64) {
	clear(fired)
	for bi := range l.blocks {
		b := &l.blocks[bi]
		w0sum, ones := b.sumsBits(win, col)
		l.hw.ActiveInputs(int64(ones))
		l.readBits(b, win, col, ones, g)
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

// evalInto is the packed twin of the FC Eval over its input in
// layer-local order: scores are written into out (len M), col is a
// per-block column scratch (len M) and g the per-cell draw scratch.
// Bias copy, block order, read-out and the `s − w0sum` accumulation
// all match Eval, so scores are bit-identical.
func (l *SEIFCLayer) evalInto(win []uint64, out, col, g []float64) {
	copy(out, l.Bias)
	for bi := range l.blocks {
		b := &l.blocks[bi]
		w0sum, ones := b.sumsBits(win, col)
		l.hw.ActiveInputs(int64(ones))
		w0sum *= l.readBits(b, win, col, ones, g)
		for c, s := range col {
			out[c] += s - w0sum
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K))
		h.ColumnActivations(int64(l.K * l.M))
	}
}
