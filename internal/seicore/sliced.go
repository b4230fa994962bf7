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
// Eligibility: ideal read-outs everywhere (no read noise, IR drop or
// I-V nonlinearity), which also makes the receiver goroutine-safe —
// scratch state lives in a per-call arena from a sync.Pool, so
// steady-state sliced batches allocate nothing.

import (
	"math/bits"

	"sei/internal/bitvec"
	"sei/internal/nn"
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
	return s
}

// SlicedBatchEligible implements nn.SlicedBatchPredictor: the sliced
// path applies to ideal read-outs (d.sliced is built only for them)
// unless SetFastPath turned the packed paths off. Callers that need
// the per-image engine on an eligible design wrap it in a type that
// does not implement nn.SlicedBatchPredictor.
func (d *SEIDesign) SlicedBatchEligible() bool {
	return d.sliced != nil && !d.fastOff
}

var _ nn.SlicedBatchPredictor = (*SEIDesign)(nil)

// PredictBatchSliced classifies up to 64 images in one bit-sliced
// pass, writing one result per image into out. It reports false —
// leaving out untouched — when the design is not eligible, the batch
// is empty or exceeds nn.SlicedGroupSize, or an image does not match
// the design's input geometry; the caller then falls back to per-image
// prediction. Labels and hardware-counter totals are bit-identical to
// per-image Predict calls on the same images. Safe for concurrent use;
// steady-state calls allocate nothing.
func (d *SEIDesign) PredictBatchSliced(imgs []*tensor.Tensor, out []nn.PredictResult) bool {
	lanes := len(imgs)
	if !d.SlicedBatchEligible() || lanes == 0 || lanes > nn.SlicedGroupSize || len(out) < lanes {
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
	d.predictSliced(imgs, out[:lanes], s)
	d.sliced.Put(s)
	return true
}

// predictSliced runs the full bit-sliced forward pass. The caller owns
// s for the duration of the call and has validated the input shapes.
func (d *SEIDesign) predictSliced(imgs []*tensor.Tensor, out []nn.PredictResult, s *slicedScratch) {
	q := d.Q
	lanes := len(imgs)
	batchMask := ^uint64(0)
	if lanes < vecf.Lanes {
		batchMask = 1<<uint(lanes) - 1
	}

	// Stage 0 keeps the DAC+ADC organization: the float images are
	// transposed lane-major, every conv window accumulates all 64 lanes
	// at once through the vecf kernels, and the fired bits pool-fuse
	// straight into the lane-major map. The compute loops skip
	// pool-cropped windows (their outputs are unreadable); unbounded
	// runs still charge them, as the per-image walker evaluates them,
	// while bounded runs charge only the live placements and record the
	// cropped ones as skipped.
	g := &s.geom[0]
	mapLen := g.filters * g.pooledH * g.pooledW
	cur := s.cur[:mapLen]
	for i := range cur {
		cur[i] = 0
	}
	d.slicedStage0(imgs, s, cur)
	nz := s.nz
	d.recordStage0(g, s.cover, s.coverLive, int64(lanes), d.bounded, func(p int) int64 {
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
					if d.bounded {
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
					layer.slicedCounts(win, lanes, batchMask, s)
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
	d.FC.slicedScores(s.cur, lanes, batchMask, s)
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
// skipped outright.
func (d *SEIDesign) slicedStage0(imgs []*tensor.Tensor, s *slicedScratch, out []uint64) {
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
				vecf.ConvWin4(pixT[pbase*vecf.Lanes:], eff, s.off0, rm, thr, &masks)
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
			for k := 0; k < m; k++ {
				if w := vecf.GtMask64(acc[k*vecf.Lanes:], thr) & laneMask; w != 0 {
					out[(k*g.pooledH+py)*g.pooledW+px] |= w
				}
			}
		}
	}
}

// slicedCounts is evalCounts over a lane-major window on an ideal
// read-out: it fills s.fired (lane-major, lanes·M entries) with each
// lane's per-column fired-block counts. Rows are visited in ascending
// local order and each set lane accumulates the same effective-weight
// row the per-image walker adds, so per-lane sums — and the SA
// compares against the (per-lane dynamic) reference — are
// bit-identical. ActiveInputs is recorded as the popcount total, the
// sum of the per-lane counts.
func (l *SEIConvLayer) slicedCounts(win []uint64, lanes int, batchMask uint64, s *slicedScratch) {
	m := l.M
	fired := s.fired[:lanes*m]
	for i := range fired {
		fired[i] = 0
	}
	for bi := range l.blocks {
		b := &l.blocks[bi]
		onesTot := b.slicedSums(win, batchMask, l.Gamma != 0, s)
		l.hw.ActiveInputs(onesTot)
		dyn := b.w0 != nil
		switch {
		case l.Gamma != 0:
			for lane := 0; lane < lanes; lane++ {
				ref := l.BaseThr[bi] + l.Gamma*(float64(s.ones[lane])-l.OnesMean[bi])
				if dyn {
					ref += s.w0[lane]
				}
				a := s.acc[lane*m : lane*m+m]
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

// slicedScores is SEIFCLayer.evalInto over a lane-major flattened map
// on an ideal read-out: bias copy, block order and the `s − w0sum`
// accumulation per lane match the per-image walker exactly, so
// per-lane scores are bit-identical.
func (l *SEIFCLayer) slicedScores(in []uint64, lanes int, batchMask uint64, s *slicedScratch) {
	m := l.M
	for lane := 0; lane < lanes; lane++ {
		copy(s.scores[lane*m:lane*m+m], l.Bias)
	}
	for bi := range l.blocks {
		b := &l.blocks[bi]
		onesTot := b.slicedSums(in, batchMask, false, s)
		l.hw.ActiveInputs(onesTot)
		dyn := b.w0 != nil
		for lane := 0; lane < lanes; lane++ {
			var w0sum float64
			if dyn {
				w0sum = s.w0[lane]
			}
			a := s.acc[lane*m : lane*m+m]
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
