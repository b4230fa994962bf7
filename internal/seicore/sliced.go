package seicore

// The bit-sliced (SIMD-within-a-register) batch walker. The per-image
// walker (fast.go) packs one image's activations 64 bits per word; this file transposes
// the layout — the SAME activation bit across up to 64 images packed
// into one uint64, image L in bit (lane) L — so a pooling OR, a
// threshold write-out or a crossbar row-select test processes 64
// images per word operation, and a receptive-field window gather is a
// handful of word copies instead of per-image bit blits. The maps are
// produced lane-major directly; only a bounded stage's windows are
// transposed back to per-image words (bitvec.Transpose64).
//
// Bit-identity contract (pinned by sliced_test.go and
// determinism_test.go): per-lane results equal the per-image walker
// bit for bit, in labels AND in hardware-counter totals. Two
// mechanisms carry that:
//
//   - Every float accumulation replays the per-image walker's exact
//     addition sequence. Stage 0 transposes the float images lane-major
//     (pixT[p·64+lane]) and gathers each window with ascending-row
//     vecf.MulAccLanes calls — strict mul-then-add rounding per
//     element, never a fused multiply-add — so each lane sees exactly
//     tensor.MatVecTInto's ascending-row accumulation. The per-image
//     path skips v == 0 terms while the lane-dense kernel adds their
//     ±0 products; that is an IEEE identity here: under
//     round-to-nearest a sum of finite products is +0 or nonzero but
//     never -0, and x + (±0) == x for every such x. Rows whose pixel
//     is zero in all 64 lanes are skipped outright — the same identity
//     applied wordwise. Deeper stages iterate a block's rows in
//     ascending local order and, per set lane, add the same
//     effective-weight row values the per-image sumsBits adds.
//
//   - Counters are recorded as lane-aggregated totals of the same
//     events: one per-image window records MVM(1); the sliced window
//     records MVM(lanes). Active-input counts are popcounts over lane
//     words (deeper stages) or coverage-weighted nonzero-pixel counts
//     (stage 0), both equal to the per-image sums by construction.
//
// Integer-weight or table-lookup accumulation tricks are deliberately
// absent: effective weights are scale-multiplied floats, so any
// regrouping of the additions would change rounding and break the
// contract. The speedup comes from amortizing row walks, window
// gathers and pooling over 64 lanes, not from reassociating sums.
//
// Bounded mode (SetBounded) skips pool-cropped windows wholesale and,
// on the stages boundedAt picks, transposes each lane-major window
// into per-lane packed windows and runs the per-image bounded kernel
// (evalBoundedCounts) lane by lane: there is one bounded row walk, so
// labels, hw_* and sei_* counter totals equal per-image bounded
// Predict by construction (pinned by
// TestBoundedSlicedMatchesBoundedFast). A bound decision is per image,
// so a lane-dense bounded walk would only replay that kernel's
// decisions lane by lane.
//
// Read noise and IR drop: the walker takes every linear read-out
// without per-cell noise. IR drop is a per-lane scale fixed by the
// lane's active-row count. Per-column read noise has a fixed count per
// image and layer (M draws per window and block, pool-cropped windows
// included), and the chunked engine draws it from a per-chunk stream
// re-seeded per layer (layerSeed of the chunk's CloneForEval seed). So
// a seeded group (PredictBatchSeeded) pre-draws, per layer, each
// chunk's run of that stream in image order (preDraw) and applies each
// lane's draws with columns' own expressions (columnsDrawn): labels,
// hw_* totals and sei_noise_draws equal the chunked engine's. Per-cell
// noise, whose draws follow each image's active cells, and the I-V
// nonlinearity keep the per-image walker.
//
// The receiver is goroutine-safe: the design's own noise sources are
// never read, and scratch state — the seeded groups' generator and
// draw buffer included — lives in a per-call arena from a sync.Pool,
// so steady-state sliced batches allocate nothing.

import (
	"math/bits"
	"math/rand"

	"sei/internal/bitvec"
	"sei/internal/nn"
	"sei/internal/par"
	"sei/internal/tensor"
	"sei/internal/vecf"
)

// slicedScratch is one call's arena for the bit-sliced path, sized
// once for the design's largest stage. All lane-indexed buffers hold
// nn.SlicedGroupSize (64) lanes.
type slicedScratch struct {
	geom []stageGeom

	// Stage-0 gather state: per-pixel window-coverage counts
	// (precomputed from the geometry; cover[y·inW+x] windows read input
	// position (y,x)), the lane-transposed float images
	// (pixT[p·Lanes+lane]), and the per-pixel nonzero-lane words that
	// drive the all-lanes-zero row skip and the active-input counter.
	cover []int32
	pixT  []float64
	nz    []uint64
	off0  []int64     // per window row, its pixel's element offset into pixT
	srcs  [][]float64 // transpose-time image data refs, cleared after use

	cur, next []uint64 // lane-major activation maps, one word per bit position
	win       []uint64 // lane-major receptive-field window

	acc    []float64 // per-lane block column sums, lane-major [lane·M + c]
	fired  []int     // per-lane fired-block counts, lane-major [lane·M + c]
	scores []float64 // per-lane FC scores, lane-major [lane·M + c]
	ones   []int32   // per-lane active-input count within one block
	w0     []float64 // per-lane dynamic-column sum within one block

	// Bounded stages run the per-image kernel lane by lane: blk is the
	// 64×64 transpose block, lw the per-lane packed windows
	// (laneWindows), local one lane's window in layer-local order and
	// col its per-block column sums.
	blk   [64]uint64
	lw    []uint64
	local []uint64
	col   []float64
	// coverLive counts the pool-covered kernel placements reading each
	// pixel; cover − coverLive are the pool-cropped ones.
	coverLive []int32

	// Seeded groups (noisy designs only): rng is re-seeded in place per
	// chunk and layer, and draws holds one layer's pre-drawn per-column
	// read noise (preDraw).
	rng   *rand.Rand
	draws []float64
}

// newSlicedScratch sizes an arena for d and precomputes the stage-0
// coverage tables.
func newSlicedScratch(d *SEIDesign) *slicedScratch {
	s := &slicedScratch{geom: fastGeometry(d.Q)}
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
	lanes := nn.SlicedGroupSize
	s.cur = make([]uint64, maxMap)
	s.next = make([]uint64, maxMap)
	s.win = make([]uint64, maxFan)
	s.acc = make([]float64, lanes*maxM)
	s.fired = make([]int, lanes*maxM)
	s.scores = make([]float64, lanes*d.FC.M)
	s.ones = make([]int32, lanes)
	s.w0 = make([]float64, lanes)
	nw := (maxFan + 63) / 64
	s.lw = make([]uint64, lanes*nw)
	s.local = make([]uint64, nw)
	s.col = make([]float64, maxM)

	g := &s.geom[0]
	s.pixT = make([]float64, g.inC*g.inH*g.inW*vecf.Lanes)
	s.nz = make([]uint64, g.inC*g.inH*g.inW)
	s.srcs = make([][]float64, lanes)
	// Window-row offsets in eff's row order (ch, ky, kx ascending),
	// relative to a window's first pixel; scaled to pixT elements.
	s.off0 = make([]int64, 0, g.fan)
	for ch := 0; ch < g.inC; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				s.off0 = append(s.off0, int64(((ch*g.inH+ky)*g.inW+kx)*vecf.Lanes))
			}
		}
	}
	s.cover, s.coverLive = g.coverage()

	// The largest per-image draw count of a noisy layer (columnReads).
	maxDraws := 0
	for idx := 0; idx < len(s.geom)+1; idx++ {
		if r, reads, m := d.columnReads(s.geom, idx); r.noise != nil {
			maxDraws = max(maxDraws, reads*m)
		}
	}
	if maxDraws > 0 {
		s.rng = rand.New(rand.NewSource(0))
		s.draws = make([]float64, lanes*maxDraws)
	}
	return s
}

// columnReads returns stage idx's read-out, in layerSeed order (the
// input stage, the SEI conv stages, the FC stage), with the column
// reads it makes per image and the columns each read converts: one
// read per window (input stage), per window and block (SEI conv
// stages, pool-cropped windows included) or per block (FC stage).
func (d *SEIDesign) columnReads(geom []stageGeom, idx int) (r *readout, reads, m int) {
	switch {
	case idx == 0:
		g := &geom[0]
		return &d.Input.readout, g.outH * g.outW, d.Input.M
	case idx <= len(d.Convs):
		g, l := &geom[idx], d.Convs[idx-1]
		return &l.readout, g.outH * g.outW * l.K, l.M
	default:
		return &d.FC.readout, d.FC.K, d.FC.M
	}
}

// preDraw takes stage idx's per-column read-noise draws for every lane
// of a seeded group, as the chunked engine's clones would: lane i is
// image i%par.DefaultChunkSize of chunk i/par.DefaultChunkSize, whose
// stream for stage idx is seeded layerSeed(seeds[chunk], idx). Each
// chunk's stream is drawn in image order, then read order, then column
// order, into s.draws at [read][lane][column], vecf.Lanes lane slots
// per read (laneDraws), so a read's draws lie in the lane-major order
// of the sums. Records the draws and returns the buffer; nil when the
// stage draws no noise.
func (s *slicedScratch) preDraw(d *SEIDesign, idx, lanes int, seeds []int64) []float64 {
	r, reads, m := d.columnReads(s.geom, idx)
	if r.noise == nil {
		return nil
	}
	draws, rng := s.draws[:reads*vecf.Lanes*m], s.rng
	for lane := 0; lane < lanes; lane++ {
		if lane%par.DefaultChunkSize == 0 {
			rng.Seed(layerSeed(seeds[lane/par.DefaultChunkSize], idx))
		}
		for u := 0; u < reads; u++ {
			dst := laneDraws(draws, u, lane, m)
			for c := range dst {
				dst[c] = rng.NormFloat64()
			}
		}
	}
	r.hw.NoiseDraws(int64(reads * lanes * m))
	return draws
}

// SlicedBatchEligible implements nn.SlicedBatchPredictor: the
// noise-free sliced kernel applies to ideal read-outs unless
// SetFastPath turned the packed paths off. Callers that need the
// per-image engine on an eligible design wrap it in a type that
// implements neither nn.SlicedBatchPredictor nor
// nn.SeededBatchPredictor.
func (d *SEIDesign) SlicedBatchEligible() bool {
	return d.ideal && d.SeededBatchEligible()
}

// SeededBatchEligible implements nn.SeededBatchPredictor: the seeded
// kernel applies to every linear read-out without per-cell noise
// (d.sliced is built only for them) unless SetFastPath turned the
// packed paths off.
func (d *SEIDesign) SeededBatchEligible() bool {
	return d.sliced != nil && !d.fastOff
}

var (
	_ nn.SlicedBatchPredictor = (*SEIDesign)(nil)
	_ nn.SeededBatchPredictor = (*SEIDesign)(nil)
)

// PredictBatchSliced classifies up to 64 images in one bit-sliced
// pass, writing one result per image into out. It reports false —
// leaving out untouched — when the design is not eligible, the batch
// is empty or exceeds nn.SlicedGroupSize, or an image does not match
// the design's input geometry; the caller then falls back to per-image
// prediction. Labels and hardware-counter totals are bit-identical to
// per-image Predict calls on the same images. Safe for concurrent use;
// steady-state calls allocate nothing.
func (d *SEIDesign) PredictBatchSliced(imgs []*tensor.Tensor, out []nn.PredictResult) bool {
	return d.SlicedBatchEligible() && d.predictBatch(imgs, nil, out)
}

// PredictBatchSeeded classifies up to 64 images in one bit-sliced
// pass, drawing each lane's read noise as the chunked engine's clone
// seeded seeds[i/par.DefaultChunkSize] would for image i (see
// nn.SeededBatchPredictor). It reports false — leaving out untouched —
// under PredictBatchSliced's conditions, on per-cell noise or an I-V
// nonlinearity, or when seeds does not cover every image's chunk.
// Labels, hardware-counter totals and noise draws are bit-identical to
// the chunked engine on the same images. Safe for concurrent use;
// steady-state calls allocate nothing.
func (d *SEIDesign) PredictBatchSeeded(imgs []*tensor.Tensor, seeds []int64, out []nn.PredictResult) bool {
	chunks := (len(imgs) + par.DefaultChunkSize - 1) / par.DefaultChunkSize
	return d.SeededBatchEligible() && len(seeds) >= chunks && d.predictBatch(imgs, seeds, out)
}

// predictBatch is the kernels' shared body: it validates the batch
// against the design's geometry and runs predictSliced on a pooled
// arena.
func (d *SEIDesign) predictBatch(imgs []*tensor.Tensor, seeds []int64, out []nn.PredictResult) bool {
	lanes := len(imgs)
	if lanes == 0 || lanes > nn.SlicedGroupSize || len(out) < lanes {
		return false
	}
	s, _ := d.sliced.Get().(*slicedScratch)
	if s == nil {
		s = newSlicedScratch(d)
	}
	g := &s.geom[0]
	want := g.inC * g.inH * g.inW
	for _, img := range imgs {
		if img == nil || len(img.Data()) != want {
			d.sliced.Put(s)
			return false
		}
	}
	d.predictSliced(imgs, seeds, out[:lanes], s)
	d.sliced.Put(s)
	return true
}

// predictSliced runs the full bit-sliced forward pass; seeds are the
// group's chunk seeds (nil on an ideal design). The caller owns s for
// the duration of the call and has validated the input shapes.
func (d *SEIDesign) predictSliced(imgs []*tensor.Tensor, seeds []int64, out []nn.PredictResult, s *slicedScratch) {
	q := d.Q
	lanes := len(imgs)
	batchMask := ^uint64(0)
	if lanes < vecf.Lanes {
		batchMask = 1<<uint(lanes) - 1
	}
	// The pool-crop skip comes with bounded mode, which is exact only
	// on ideal read-outs.
	bounded := d.bounded && d.ideal

	// Stage 0 keeps the DAC+ADC organization: the float images are
	// transposed lane-major, every conv window accumulates all 64 lanes
	// at once through the vecf kernels, and the fired bits pool-fuse
	// straight into the lane-major map. The compute loops skip
	// pool-cropped windows (their outputs are unreadable, and their
	// noise draws are taken but unused); unbounded runs still charge
	// them, as the per-image walker evaluates them, while bounded runs
	// charge only the live placements and record the cropped ones as
	// skipped.
	g := &s.geom[0]
	mapLen := g.filters * g.pooledH * g.pooledW
	cur := s.cur[:mapLen]
	for i := range cur {
		cur[i] = 0
	}
	d.slicedStage0(imgs, s, cur, s.preDraw(d, 0, lanes, seeds))
	nz := s.nz
	d.recordStage0(g, s.cover, s.coverLive, int64(lanes), bounded, func(p int) int64 {
		return int64(bits.OnesCount64(nz[p]))
	})
	if g.pool > 1 {
		q.CountORPool(int64(lanes) * int64(mapLen))
	}

	// Deeper conv stages are SEI crossbars: lane-major windows in, SA
	// threshold counts per lane out, OR-fused pooling as word ORs.
	for l := 1; l < len(q.Convs); l++ {
		layer := d.Convs[l-1]
		bnd := d.boundedAt(layer)
		g := &s.geom[l]
		in := s.cur
		outMap := s.next[:g.filters*g.pooledH*g.pooledW]
		for i := range outMap {
			outMap[i] = 0
		}
		win := s.win[:g.fan]
		fired := s.fired[:lanes*layer.M]
		draws := s.preDraw(d, l, lanes, seeds)
		var fullWins, cropSkip int64 // windows charged at full cost; rows skipped by the crop
		for oy := 0; oy < g.outH; oy++ {
			for ox := 0; ox < g.outW; ox++ {
				py, px := oy, ox
				cropped := false
				if g.pool > 1 {
					py /= g.pool
					px /= g.pool
					cropped = py >= g.pooledH || px >= g.pooledW
				}
				di := 0
				for ch := 0; ch < g.inC; ch++ {
					src := (ch*g.inH+oy*g.stride)*g.inW + ox*g.stride
					for ky := 0; ky < g.kh; ky++ {
						copy(win[di:di+g.kw], in[src:src+g.kw])
						di += g.kw
						src += g.inW
					}
				}
				if cropped {
					// No output bit depends on a pool-cropped window;
					// only its active-input totals are observable.
					if bounded {
						for _, w := range win {
							cropSkip += int64(bits.OnesCount64(w & batchMask))
						}
					} else {
						layer.slicedOnes(win)
						fullWins++
					}
					continue
				}
				if bnd {
					nw := s.laneWindows(win, lanes)
					for lane := 0; lane < lanes; lane++ {
						lw := layer.local(s.lw[lane*nw:(lane+1)*nw], s.local)
						layer.evalBoundedCounts(lw, fired[lane*layer.M:(lane+1)*layer.M], s.col[:layer.M])
					}
				} else {
					var wd []float64 // the window's K reads
					if draws != nil {
						wd = draws[(oy*g.outW+ox)*layer.K*vecf.Lanes*layer.M:]
					}
					layer.slicedCounts(win, lanes, batchMask, s, wd)
					fullWins++
				}
				for k := 0; k < layer.M; k++ {
					var w uint64
					for lane := 0; lane < lanes; lane++ {
						if fired[lane*layer.M+k] >= layer.DigitalThreshold {
							w |= 1 << uint(lane)
						}
					}
					if w != 0 {
						outMap[(k*g.pooledH+py)*g.pooledW+px] |= w
					}
				}
			}
		}
		if h := layer.hw; h != nil {
			n := int64(layer.K) * fullWins * int64(lanes)
			h.MVM(n)
			h.SACompares(n * int64(layer.M))
			h.ColumnActivations(n * int64(layer.M))
		}
		if cropSkip > 0 {
			layer.skip.Record(0, cropSkip, 0, 0, 0)
		}
		if g.pool > 1 {
			q.CountORPool(int64(lanes) * int64(g.filters*g.pooledH*g.pooledW))
		}
		s.cur, s.next = s.next, s.cur
	}

	// FC stage: the flattened final map is already the lane-major
	// input; per-lane scores feed the argmax epilogue.
	d.FC.slicedScores(s.cur, lanes, batchMask, s, s.preDraw(d, len(q.Convs), lanes, seeds))
	m := d.FC.M
	for lane := 0; lane < lanes; lane++ {
		sc := s.scores[lane*m : lane*m+m]
		best, bi := sc[0], 0
		for i, v := range sc {
			if v > best { // strict >: first maximum wins, as tensor.ArgMax
				best, bi = v, i
			}
		}
		out[lane] = nn.PredictResult{Label: bi}
	}
}

// laneWindows transposes the lane-major window win (one word per bit
// position) into per-lane packed windows, one bitvec.Transpose64 per
// 64 rows with the tail zero-filled: lane L's ⌈len(win)/64⌉ words land
// at s.lw[L·nw:(L+1)·nw], bit for bit the window gatherWindow packs
// for that lane's image. It returns nw.
func (s *slicedScratch) laneWindows(win []uint64, lanes int) (nw int) {
	nw = (len(win) + 63) / 64
	blk := s.blk[:]
	for w0 := 0; w0 < nw; w0++ {
		n := copy(blk, win[w0*64:])
		clear(blk[n:])
		bitvec.Transpose64(blk, blk)
		for lane := 0; lane < lanes; lane++ {
			s.lw[lane*nw+w0] = blk[lane]
		}
	}
	return nw
}

// slicedStage0 convolves all lanes' float images through the merged
// input layer in one lane-dense pass, thresholds per lane and
// pool-fuses the fired bits into the lane-major map, leaving each
// pixel's nonzero-lane word in s.nz for the caller's counters.
//
// Per window the kernel rows are visited in ascending fan order with
// strict mul-then-add accumulation — vecf.ConvWin4 fused when the
// layer has exactly four filters, a vecf.MulAccLanes/GtMask64 loop
// otherwise — so each lane replays MatVecTInto's ascending-row loop
// exactly; lanes whose pixel is zero accumulate a ±0 product, an IEEE
// identity (see the file header), and rows zero in every lane are
// skipped outright. draws are the stage's pre-drawn per-column noise
// (preDraw, one lane-major block per window; nil when noise-free),
// applied per lane before the threshold with the per-image
// columns(cw, 0) expression; the IR-drop scale is exactly 1 on the
// input stage, which drives no SEI rows.
func (d *SEIDesign) slicedStage0(imgs []*tensor.Tensor, s *slicedScratch, out []uint64, draws []float64) {
	g := &s.geom[0]
	n := g.inC * g.inH * g.inW
	pixT := s.pixT[:n*vecf.Lanes]
	nz := s.nz[:n]
	srcs := s.srcs[:len(imgs)]
	for lane, img := range imgs {
		srcs[lane] = img.Data()
	}
	// Pixel-outer transpose: the read side walks every image
	// sequentially (one hot cache line per lane) and the write side is
	// one contiguous 64-lane burst per pixel. Lane-outer order would
	// stride the stores eight cache lines apart and miss L1 on every
	// write.
	for p := 0; p < n; p++ {
		dst := pixT[p*vecf.Lanes : p*vecf.Lanes+vecf.Lanes]
		var w uint64
		for lane, src := range srcs {
			v := src[p]
			dst[lane] = v
			if v != 0 {
				w |= 1 << uint(lane)
			}
		}
		nz[p] = w
	}
	for lane := range srcs {
		srcs[lane] = nil // don't retain image data in the pooled arena
	}
	lanes := len(imgs)
	laneMask := ^uint64(0)
	if lanes < vecf.Lanes {
		laneMask = 1<<uint(lanes) - 1 // stale high lanes carry old batches' pixels
	}
	m := g.filters
	eff := d.Input.eff.Data()
	thr := d.Q.Thresholds[0]
	var sigma float64
	var wd []float64 // one window's draws
	if draws != nil {
		sigma = d.Input.model.ReadNoiseSigma
	}
	if m == 4 && g.fan <= 64 {
		// Fused-kernel form: vecf.ConvWin4 keeps all four filters'
		// accumulators in registers across the window and returns the
		// fired masks directly — same ascending-row mul-then-add
		// sequence, no scratch accumulator round trip.
		var masks [4]uint64
		for oy := 0; oy < g.outH; oy++ {
			py := oy
			if g.pool > 1 {
				py = oy / g.pool
				if py >= g.pooledH {
					continue // pool-cropped row: no output bits depend on it
				}
			}
			for ox := 0; ox < g.outW; ox++ {
				px := ox
				if g.pool > 1 {
					px = ox / g.pool
					if px >= g.pooledW {
						continue
					}
				}
				pbase := oy*g.stride*g.inW + ox*g.stride
				var rm uint64
				for r, o := range s.off0 {
					if nz[pbase+int(o)/vecf.Lanes] != 0 {
						rm |= 1 << uint(r)
					}
				}
				if draws != nil {
					wd = draws[(oy*g.outW+ox)*vecf.Lanes*m:]
				}
				vecf.ConvWin4(pixT[pbase*vecf.Lanes:], eff, s.off0, rm, wd, sigma, thr, &masks)
				for k := 0; k < 4; k++ {
					if w := masks[k] & laneMask; w != 0 {
						out[(k*g.pooledH+py)*g.pooledW+px] |= w
					}
				}
			}
		}
		return
	}
	acc := s.acc[:m*vecf.Lanes]
	for oy := 0; oy < g.outH; oy++ {
		py := oy
		if g.pool > 1 {
			py = oy / g.pool
			if py >= g.pooledH {
				continue // pool-cropped row: no output bits depend on it
			}
		}
		for ox := 0; ox < g.outW; ox++ {
			px := ox
			if g.pool > 1 {
				px = ox / g.pool
				if px >= g.pooledW {
					continue
				}
			}
			for i := range acc {
				acc[i] = 0
			}
			row := 0
			for ch := 0; ch < g.inC; ch++ {
				src := (ch*g.inH+oy*g.stride)*g.inW + ox*g.stride
				for ky := 0; ky < g.kh; ky++ {
					for kx := 0; kx < g.kw; kx++ {
						if nz[src+kx] != 0 {
							vecf.MulAccLanes(acc, pixT[(src+kx)*vecf.Lanes:], eff[row*m:(row+1)*m])
						}
						row++
					}
					src += g.inW
				}
			}
			if draws != nil {
				wd = draws[(oy*g.outW+ox)*vecf.Lanes*m:]
				for lane := 0; lane < lanes; lane++ {
					for k, v := range wd[lane*m : lane*m+m] {
						acc[k*vecf.Lanes+lane] *= 1 + sigma*v
					}
				}
			}
			for k := 0; k < m; k++ {
				if w := vecf.GtMask64(acc[k*vecf.Lanes:], thr) & laneMask; w != 0 {
					out[(k*g.pooledH+py)*g.pooledW+px] |= w
				}
			}
		}
	}
}

// slicedCounts is evalCounts over a lane-major window: it fills
// s.fired (lane-major, lanes·M entries) with each lane's per-column
// fired-block counts. Rows are visited in ascending local order and
// each set lane accumulates the same effective-weight row the
// per-image walker adds, so per-lane sums — and the SA compares
// against the (per-lane dynamic) reference — are bit-identical. A
// non-ideal read-out runs each lane's sums through columnsDrawn with
// the window's pre-drawn noise (draws, one read per block; nil when
// noise-free). ActiveInputs is recorded as the popcount total, the sum
// of the per-lane counts.
func (l *SEIConvLayer) slicedCounts(win []uint64, lanes int, batchMask uint64, s *slicedScratch, draws []float64) {
	m := l.M
	fired := s.fired[:lanes*m]
	for i := range fired {
		fired[i] = 0
	}
	nonIdeal := draws != nil || l.model.IRDropAlpha > 0
	for bi := range l.blocks {
		b := &l.blocks[bi]
		onesTot := b.slicedSums(win, batchMask, l.Gamma != 0 || nonIdeal, s)
		l.hw.ActiveInputs(onesTot)
		dyn := b.w0 != nil
		switch {
		case l.Gamma != 0 || nonIdeal:
			for lane := 0; lane < lanes; lane++ {
				a := s.acc[lane*m : lane*m+m]
				if nonIdeal {
					l.columnsDrawn(a, int(s.ones[lane]), laneDraws(draws, bi, lane, m))
				}
				ref := l.BaseThr[bi] + l.Gamma*(float64(s.ones[lane])-l.OnesMean[bi])
				if dyn {
					ref += s.w0[lane]
				}
				f := fired[lane*m : lane*m+m]
				for c, v := range a {
					if v > ref {
						f[c]++
					}
				}
			}
		case dyn:
			for lane := 0; lane < lanes; lane++ {
				ref := l.BaseThr[bi] + s.w0[lane]
				a := s.acc[lane*m : lane*m+m]
				f := fired[lane*m : lane*m+m]
				for c, v := range a {
					if v > ref {
						f[c]++
					}
				}
			}
		default:
			// Static reference, one value for every lane: compare the
			// whole lane-major accumulator in one pass.
			ref := l.BaseThr[bi]
			for i, v := range s.acc[:lanes*m] {
				if v > ref {
					fired[i]++
				}
			}
		}
	}
}

// laneDraws returns lane's m draws of read u in a pre-drawn
// [read][lane][column] buffer (preDraw), or nil when draws is.
func laneDraws(draws []float64, u, lane, m int) []float64 {
	if draws == nil {
		return nil
	}
	i := (u*vecf.Lanes + lane) * m
	return draws[i : i+m]
}

// slicedOnes records a pool-cropped window's per-block active-input
// totals without computing column sums: the window's fired bits never
// reach the output map, but the unbounded per-image walker still
// evaluates it, so its ActiveInputs contribution must be counted.
func (l *SEIConvLayer) slicedOnes(win []uint64) {
	for bi := range l.blocks {
		b := &l.blocks[bi]
		var tot int64
		for _, j := range b.inputs {
			tot += int64(bits.OnesCount64(win[j]))
		}
		l.hw.ActiveInputs(tot)
	}
}

// slicedScores is SEIFCLayer.evalInto over a lane-major flattened map:
// bias copy, block order, the read-out (columnsDrawn with the
// pre-drawn draws, one read per block, on a non-ideal read-out) and
// the `s − w0sum` accumulation per lane match the per-image walker
// exactly, so per-lane scores are bit-identical.
func (l *SEIFCLayer) slicedScores(in []uint64, lanes int, batchMask uint64, s *slicedScratch, draws []float64) {
	m := l.M
	for lane := 0; lane < lanes; lane++ {
		copy(s.scores[lane*m:lane*m+m], l.Bias)
	}
	nonIdeal := draws != nil || l.model.IRDropAlpha > 0
	for bi := range l.blocks {
		b := &l.blocks[bi]
		onesTot := b.slicedSums(in, batchMask, nonIdeal, s)
		l.hw.ActiveInputs(onesTot)
		dyn := b.w0 != nil
		for lane := 0; lane < lanes; lane++ {
			var w0sum float64
			if dyn {
				w0sum = s.w0[lane]
			}
			a := s.acc[lane*m : lane*m+m]
			if nonIdeal {
				w0sum *= l.columnsDrawn(a, int(s.ones[lane]), laneDraws(draws, bi, lane, m))
			}
			sc := s.scores[lane*m : lane*m+m]
			for c, v := range a {
				sc[c] += v - w0sum
			}
		}
	}
	if h := l.hw; h != nil {
		h.MVM(int64(l.K) * int64(lanes))
		h.ColumnActivations(int64(l.K*l.M) * int64(lanes))
	}
}

// slicedSums is sumsBits over a lane-major input, restricted to the
// lanes in part: for every block row whose lane word has a part bit
// set, each such lane accumulates the row into its column sums (s.acc,
// zeroed here) in ascending local-row order via vecf.AddRowLanes — one
// IEEE add per element, identical to the scalar loop. Per-lane active
// counts land in s.ones only when the caller needs them (the Gamma
// reference), dynamic-column sums in s.w0 when the block carries them.
// Returns the rows driven — the sum over part lanes of the per-image
// walker's ones. One word test skips a row for all 64 lanes at once.
func (b *seiBlock) slicedSums(win []uint64, part uint64, needOnes bool, s *slicedScratch) (driven int64) {
	m := b.eff.Dim(1)
	n := bits.Len64(part)
	acc := s.acc[:n*m]
	for i := range acc {
		acc[i] = 0
	}
	dyn := b.w0 != nil
	if dyn {
		for i := range s.w0[:n] {
			s.w0[i] = 0
		}
	}
	if needOnes {
		for i := range s.ones[:n] {
			s.ones[i] = 0
		}
	}
	data := b.eff.Data()
	for local, j := range b.inputs {
		pw := win[j] & part
		if pw == 0 {
			continue
		}
		driven += int64(bits.OnesCount64(pw))
		vecf.AddRowLanes(acc, data[local*m:(local+1)*m], pw)
		if needOnes || dyn {
			var w0v float64
			if dyn {
				w0v = b.w0[local]
			}
			for t := pw; t != 0; t &= t - 1 {
				lane := bits.TrailingZeros64(t)
				if needOnes {
					s.ones[lane]++
				}
				if dyn {
					s.w0[lane] += w0v
				}
			}
		}
	}
	return driven
}
