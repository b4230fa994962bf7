package seicore

// The bit-sliced (SIMD-within-a-register) batch walker. The per-image
// walker (fast.go) packs one image's activations 64 bits per word; this file transposes
// the layout — the SAME activation bit across up to 64 images packed
// into one uint64, image L in bit (lane) L — so a pooling OR, a
// threshold write-out or a crossbar row-select test processes 64
// images per word operation, and a receptive-field window gather is a
// handful of word copies instead of per-image bit blits. The layout's
// converters live in bitvec (Transpose64/SliceLanes); here the maps
// are produced lane-major directly and never transposed back.
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
// Bounded mode (SetBounded) runs the same walk with the per-lane
// activation-bound kernel on stages boundedAt picks, and skips
// pool-cropped windows wholesale; labels, hw_* and sei_* counter
// totals stay bit-identical to per-image bounded Predict (pinned by
// TestBoundedSlicedMatchesBoundedFast). The per-lane walk mirrors
// sumsBitsBounded decision for decision: a column decides at exactly
// the same scan point on either engine because both call
// vecf.BoundCols with identical partial sums and tables.
//
// Eligibility: ideal read-outs everywhere (no read noise, IR drop or
// I-V nonlinearity), which also makes the receiver goroutine-safe —
// scratch state lives in a per-call arena from a sync.Pool, so
// steady-state sliced batches allocate nothing.

import (
	"math/bits"

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
	fired  []int32   // per-lane fired-block counts, lane-major [lane·M + c]
	scores []float64 // per-lane FC scores, lane-major [lane·M + c]
	ones   []int32   // per-lane active-input count within one block
	w0     []float64 // per-lane dynamic-column sum within one block

	// Bounded-mode per-lane state: undecided column masks,
	// bound-decided-1 masks and last-evaluated checkpoints within one
	// block's walk, plus the cross-block output-undecided masks.
	undec    []uint64
	fired1   []uint64
	lastCp   []int32
	outUndec []uint64
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
	s.fired = make([]int32, lanes*maxM)
	s.scores = make([]float64, lanes*d.FC.M)
	s.ones = make([]int32, lanes)
	s.w0 = make([]float64, lanes)

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
	s.undec = make([]uint64, lanes)
	s.fired1 = make([]uint64, lanes)
	s.lastCp = make([]int32, lanes)
	s.outUndec = make([]uint64, lanes)
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
		dthr := int32(layer.DigitalThreshold)
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
					layer.slicedCountsBounded(win, lanes, batchMask, s)
				} else {
					layer.slicedCounts(win, lanes, batchMask, s)
					fullWins++
				}
				for k := 0; k < layer.M; k++ {
					var w uint64
					for lane := 0; lane < lanes; lane++ {
						if fired[lane*layer.M+k] >= dthr {
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
		onesTot, _ := b.slicedSums(win, batchMask, 0, l.Gamma != 0, s)
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
		onesTot, _ := b.slicedSums(in, batchMask, 0, false, s)
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
// walker's ones — and the active bits of the nonPart lanes, whose
// block the bounded walk skips wholesale. One word test skips a row
// for all 64 lanes at once.
func (b *seiBlock) slicedSums(win []uint64, part, nonPart uint64, needOnes bool, s *slicedScratch) (driven, skipped int64) {
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
		w := win[j]
		if w == 0 {
			continue
		}
		if sw := w & nonPart; sw != 0 {
			skipped += int64(bits.OnesCount64(sw))
		}
		pw := w & part
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
	return driven, skipped
}

// slicedCountsBounded is evalBoundedCounts over a lane-major window:
// per participating lane the same blocks are bounded, full-scanned or
// skipped wholesale, and every counter — hw_* and sei_* — aggregates
// the per-lane events the per-image walker would record. Only run on
// layers boundedAt picks.
func (l *SEIConvLayer) slicedCountsBounded(win []uint64, lanes int, batchMask uint64, s *slicedScratch) {
	m := l.M
	full := colMask(m)
	fired := s.fired[:lanes*m]
	for i := range fired {
		fired[i] = 0
	}
	outUndec := s.outUndec[:lanes]
	for lane := range outUndec {
		outUndec[lane] = full
	}
	var mvms, saCmps, driven, skipped, colsEarly, evals, blocksSkipped int64
	for bi := range l.blocks {
		b := &l.blocks[bi]
		var part uint64
		for lane := 0; lane < lanes; lane++ {
			if outUndec[lane] != 0 {
				part |= 1 << uint(lane)
			}
		}
		nonPart := batchMask &^ part
		blocksSkipped += int64(bits.OnesCount64(nonPart))
		if part == 0 {
			for _, j := range b.inputs {
				skipped += int64(bits.OnesCount64(win[j] & batchMask))
			}
			continue
		}
		mvms += int64(bits.OnesCount64(part))
		if b.bnd != nil && l.Gamma == 0 {
			ref := l.BaseThr[bi]
			d2, s2, c2, e2 := b.slicedSumsBounded(win, part, nonPart, ref, s)
			driven += d2
			skipped += s2
			colsEarly += c2
			evals += e2
			l.hw.ActiveInputs(d2)
			for t := part; t != 0; t &= t - 1 {
				lane := bits.TrailingZeros64(t)
				undec := s.undec[lane]
				saCmps += int64(bits.OnesCount64(undec))
				firedMask := s.fired1[lane]
				a := s.acc[lane*m : lane*m+m]
				for u := undec; u != 0; u &= u - 1 {
					c := bits.TrailingZeros64(u)
					if a[c] > ref {
						firedMask |= 1 << uint(c)
					}
				}
				f := fired[lane*m : lane*m+m]
				for u := firedMask; u != 0; u &= u - 1 {
					f[bits.TrailingZeros64(u)]++
				}
			}
		} else {
			// Dynamic reference (Gamma slope or unipolar w0 column):
			// participating lanes scan in full, as per-image.
			d2, s2 := b.slicedSums(win, part, nonPart, l.Gamma != 0, s)
			driven += d2
			skipped += s2
			l.hw.ActiveInputs(d2)
			for t := part; t != 0; t &= t - 1 {
				lane := bits.TrailingZeros64(t)
				ref := l.BaseThr[bi]
				if l.Gamma != 0 {
					ref += l.Gamma * (float64(s.ones[lane]) - l.OnesMean[bi])
				}
				if b.w0 != nil {
					ref += s.w0[lane]
				}
				a := s.acc[lane*m : lane*m+m]
				f := fired[lane*m : lane*m+m]
				for c, v := range a {
					if v > ref {
						f[c]++
					}
				}
				saCmps += int64(m)
			}
		}
		if l.K > 1 {
			rem := l.K - 1 - bi
			for t := part; t != 0; t &= t - 1 {
				lane := bits.TrailingZeros64(t)
				f := fired[lane*m : lane*m+m]
				var undec uint64
				for u := outUndec[lane]; u != 0; u &= u - 1 {
					c := bits.TrailingZeros64(u)
					if int(f[c]) >= l.DigitalThreshold {
						continue
					}
					if int(f[c])+rem < l.DigitalThreshold {
						continue
					}
					undec |= 1 << uint(c)
				}
				outUndec[lane] = undec
			}
		}
	}
	if h := l.hw; h != nil {
		h.MVM(mvms)
		h.SACompares(saCmps)
		h.ColumnActivations(saCmps)
	}
	l.skip.Record(driven, skipped, colsEarly, evals, blocksSkipped)
}

// slicedSumsBounded is sumsBitsBounded over a lane-major window: the
// block's rows are walked once in ascending local order; per active
// row each participating, still-undecided lane whose checkpoint
// advanced evaluates the bound, then the row is driven only into the
// lanes still alive. Active bits in decided lanes count skipped, bits
// in non-participating lanes count toward their wholesale block skip.
// Per-lane outcomes land in s.undec / s.fired1; partial sums in s.acc
// equal the full scan's values for every undecided column.
func (b *seiBlock) slicedSumsBounded(win []uint64, part, nonPart uint64, ref float64, s *slicedScratch) (driven, skipped, colsEarly, evals int64) {
	cb := b.bnd
	m := cb.m
	acc := s.acc[:vecf.Lanes*m]
	for i := range acc {
		acc[i] = 0
	}
	full := colMask(m)
	for t := part; t != 0; t &= t - 1 {
		lane := bits.TrailingZeros64(t)
		s.undec[lane] = full
		s.fired1[lane] = 0
		s.lastCp[lane] = -1
	}
	alive := part
	data := b.eff.Data()
	for local, j := range b.inputs {
		w := win[j]
		if w == 0 {
			continue
		}
		skipped += int64(bits.OnesCount64(w & nonPart))
		if alive == 0 {
			skipped += int64(bits.OnesCount64(w & part))
			continue
		}
		cp := int32(local / cb.stride)
		base := int(cp) * m
		for t := w & alive; t != 0; t &= t - 1 {
			lane := bits.TrailingZeros64(t)
			if s.lastCp[lane] >= cp {
				continue
			}
			s.lastCp[lane] = cp
			u := s.undec[lane]
			evals += int64(bits.OnesCount64(u))
			dec0, dec1 := vecf.BoundCols(acc[lane*m:lane*m+m],
				cb.sufPos[base:base+m], cb.sufNeg[base:base+m], cb.sufAbs[base:base+m],
				cb.slackU[cp], ref, u)
			s.fired1[lane] |= dec1
			u &^= dec0 | dec1
			s.undec[lane] = u
			if u == 0 {
				alive &^= 1 << uint(lane)
			}
		}
		aw := w & alive
		driven += int64(bits.OnesCount64(aw))
		skipped += int64(bits.OnesCount64(w & part &^ alive))
		if aw != 0 {
			vecf.AddRowLanes(acc, data[local*m:(local+1)*m], aw)
		}
	}
	for t := part; t != 0; t &= t - 1 {
		lane := bits.TrailingZeros64(t)
		colsEarly += int64(bits.OnesCount64(full &^ s.undec[lane]))
	}
	return driven, skipped, colsEarly, evals
}
