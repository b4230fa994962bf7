package quant

// The candidate-lane sweep engine behind SearchThresholds and
// RefineThresholds.
//
// Both calibration loops score a list of ascending candidate
// thresholds t₀ < t₁ < … for one conv stage by counting how many
// samples the rest of the network classifies correctly when that stage
// binarizes at t. The naive form pays a full remainder forward pass per
// (sample, candidate) pair. The engine scores up to 64 candidates in one
// pass instead: lane c of a 64-bit word stands for candidate ts[c].
//
// Crossing index. A stage output bit is `v > t`. Because the candidates
// ascend, the lanes where v's bit is on form a prefix: exactly the
// cj = #{c : ts[c] < v} lanes below the crossing index, found by a
// binary search (no per-sample sort). An OR-pool window is on in lane c
// iff one of its members is, so its lane word is the prefix mask of the
// largest member cj — the crossing index of the window maximum. The
// candidates of one sample are therefore nested bitmaps, and two
// neighbouring candidates see the same remainder input unless some
// pooled index has cj == c. Only those distinct inputs are evaluated:
// lanes are compressed to one representative per run of identical
// candidates before the remainder runs.
//
// Exactness. Every remainder kernel reproduces the reference's IEEE
// operation sequence per lane:
//
//   - The first remainder stage reads a 0/1 map. The reference (Im2Col,
//     Transpose2D, MatMul with zero weights skipped) folds, per filter
//     and position, `s += w·x` in ascending fan order from +0. With x ∈
//     {0,1}, w·1 = w exactly and w·0 is a signed zero; s starts at +0
//     and an IEEE sum is -0 only when both addends are, so s is never -0
//     and adding a signed zero (or a zero weight) leaves it unchanged.
//     Hence s is the ascending fold of the weights whose input bit is
//     on — what vecf.AddRowLanes computes for every lane at once over
//     the filter-major transposed weights. The binarized refinement
//     tail (stageSums' skip-zero order) is the same fold, thresholded.
//   - Deeper float stages (float inputs after the first remainder
//     stage) use vecf.MulAccLanes — strict mul-then-add per lane — in
//     ascending fan order, skipping zero weights as MatMulInto does;
//     ReLU and max pooling follow the reference's compare order.
//   - The classifier is a fresh per-lane fold of the FC (AddRowLanes
//     over FC columns for a 0/1 input, MulAccLanes for a float one)
//     followed by the bias — the operations of MatVec plus bias, so the
//     last stage matches the reference bit for bit rather than to an
//     ulp, as an incremental `y -= W[:,j]` update would.
//
// Accounting. SweepStats keeps the crossing-schedule metrics, derived
// from the crossing indices: a candidate is skipped when no pooled
// index has cj == c (its remainder input equals its predecessor's), and
// the "FC delta updates" are the last-stage pooled bits with
// 1 ≤ cj ≤ C-1 (those that turn off inside the candidate list).
//
// All per-sample state lives in sweepArenas pooled per crossSweep
// (sync.Pool, the seicore seiScratch pattern), and per-chunk candidate
// counts live in one slab per run, so steady-state scoring allocates
// nothing per sample. Chunk boundaries come from internal/par and the
// folds are integer sums, so results are bit-identical at every worker
// count.

import (
	"math"
	"sync"

	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
	"sei/internal/vecf"
)

const lanes = vecf.Lanes

// crossSweep scores candidate thresholds for one conv stage with the
// candidate-lane sweep. The greedy search (float remainder) and the
// refinement (binarized remainder) differ only in their remainder
// stages.
type crossSweep struct {
	filters, outH, outW int // swept stage's conv-output geometry
	pool                int // OR-pool window (≤1 = no pooling)
	remLen              int // length of the (pooled) map the remainder reads

	stages        []laneStage   // remainder conv stages, in network order
	q             *QuantizedNet // binarized-tail thresholds, read at sweep time
	fcT           []float64     // FC weights [in, classes]: row j is column j of W
	fcB           []float64
	classes, fcIn int

	arenas sync.Pool
}

// laneStage is one remainder conv stage in lane form. Its input is
// either lane words (one uint64 per map element, bit r = lane r) or
// element-major float lanes (lanes consecutive values per element).
type laneStage struct {
	filters, fan, positions int
	pool, outH, outW        int
	pooledH, pooledW        int       // = outH, outW when pool ≤ 1
	cols                    []int32   // [positions*fan]: input element feeding each receptive-field slot (Im2Col order)
	wT                      []float64 // [fan*filters]: row j holds weight j of every filter
	l                       int       // conv stage index (the binarized tail thresholds at q.Thresholds[l])
	floatIn, floatOut       bool
}

// newCrossSweep builds the sweep for conv stage l, whose outputs have
// shape outShape ([filters, outH, outW]). binary selects the
// refinement's binarized remainder; otherwise the remainder is the float
// tail of Algorithm 1's greedy search.
func newCrossSweep(q *QuantizedNet, l int, outShape []int, binary bool) *crossSweep {
	s := &crossSweep{
		filters: outShape[0], outH: outShape[1], outW: outShape[2],
		pool: q.Convs[l].PoolSize,
		q:    q,
	}
	shape := []int{s.filters, s.outH, s.outW}
	if s.pool > 1 {
		shape = []int{s.filters, s.outH / s.pool, s.outW / s.pool}
	}
	s.remLen = shape[0] * shape[1] * shape[2]
	floatIn := false
	for m := l + 1; m < len(q.Convs); m++ {
		st := newLaneStage(&q.Convs[m], m, shape, floatIn, !binary)
		s.stages = append(s.stages, st)
		shape = []int{st.filters, st.pooledH, st.pooledW}
		floatIn = !binary
	}
	s.classes, s.fcIn = q.FC.W.Dim(0), q.FC.W.Dim(1)
	s.fcT = tensor.Transpose2D(q.FC.W).Data()
	s.fcB = q.FC.B
	return s
}

func newLaneStage(c *ConvSpec, l int, inShape []int, floatIn, floatOut bool) laneStage {
	kh, kw := c.W.Dim(2), c.W.Dim(3)
	h, w := inShape[1], inShape[2]
	st := laneStage{
		filters: c.Filters(), fan: c.FanIn(), pool: c.PoolSize, l: l,
		outH: (h-kh)/c.Stride + 1, outW: (w-kw)/c.Stride + 1,
		floatIn: floatIn, floatOut: floatOut,
	}
	st.positions = st.outH * st.outW
	st.pooledH, st.pooledW = st.outH, st.outW
	if st.pool > 1 {
		st.pooledH, st.pooledW = st.outH/st.pool, st.outW/st.pool
	}
	st.cols = make([]int32, 0, st.positions*st.fan)
	for oy := 0; oy < st.outH; oy++ {
		for ox := 0; ox < st.outW; ox++ {
			for ch := 0; ch < inShape[0]; ch++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						st.cols = append(st.cols, int32(ch*h*w+(oy*c.Stride+ky)*w+ox*c.Stride+kx))
					}
				}
			}
		}
	}
	st.wT = tensor.Transpose2D(c.W.Reshape(st.filters, st.fan)).Data()
	return st
}

// laneBufs is one arena's scratch for one remainder stage. Float lanes
// a pass does not use keep stale (finite) values; they never reach a
// prediction.
type laneBufs struct {
	acc                []float64 // one position's accumulators (lanes × filters)
	words, pooledWords []uint64  // binarized output
	vals, pooledVals   []float64 // float output, element-major lanes
}

func (st *laneStage) newBufs() laneBufs {
	b := laneBufs{acc: make([]float64, lanes*st.filters)}
	outLen := st.filters * st.positions
	pooledLen := st.filters * st.pooledH * st.pooledW
	if st.floatOut {
		b.vals = make([]float64, outLen*lanes)
		b.pooledVals = b.vals
		if st.pool > 1 {
			b.pooledVals = make([]float64, pooledLen*lanes)
		}
	} else {
		b.words = make([]uint64, outLen)
		b.pooledWords = b.words
		if st.pool > 1 {
			b.pooledWords = make([]uint64, pooledLen)
		}
	}
	return b
}

// sweepArena is one goroutine's scratch for sweeping samples.
type sweepArena struct {
	pcj    []int32 // per remainder-input element: crossing index of its window maximum
	hist   []int64 // hist[c]: elements with crossing index c
	rank   [lanes + 1]int
	words  []uint64 // the remainder input's lane words for the current candidate group
	preds  [lanes]int
	y      []float64 // classifier accumulators
	stages []laneBufs
}

func (s *crossSweep) getArena(candidates int) *sweepArena {
	a, ok := s.arenas.Get().(*sweepArena)
	if !ok {
		a = &sweepArena{
			pcj:   make([]int32, s.remLen),
			words: make([]uint64, s.remLen),
			y:     make([]float64, lanes*s.classes),
		}
		for i := range s.stages {
			a.stages = append(a.stages, s.stages[i].newBufs())
		}
	}
	if cap(a.hist) < candidates+1 {
		a.hist = make([]int64, candidates+1)
	}
	a.hist = a.hist[:candidates+1]
	return a
}

// run scores every candidate in ts (ascending) against every sample
// and returns the per-candidate correct counts. values[i] is sample
// i's flat stage-output buffer. Counts and accounting are integer sums
// over fixed chunks, hence identical for every worker count.
func (s *crossSweep) run(values [][]float64, labels []int, ts []float64, workers int, rec *obs.Recorder, stats *SweepStats) []int {
	nc := len(ts)
	if nc == 0 {
		return nil
	}
	slab := make([]int64, par.NumChunks(len(values), par.DefaultChunkSize)*nc)
	res := par.MapChunksRec(rec, workers, len(values), par.DefaultChunkSize, func(c par.Chunk) SweepStats {
		a := s.getArena(nc)
		defer s.arenas.Put(a)
		counts := slab[c.Index*nc : (c.Index+1)*nc]
		var st SweepStats
		for i := c.Lo; i < c.Hi; i++ {
			st.add(s.sweepSample(a, values[i], labels[i], ts, counts))
		}
		return st
	})
	counts := make([]int, nc)
	for i, v := range slab {
		counts[i%nc] += int(v)
	}
	var agg SweepStats
	for _, r := range res {
		agg.add(r)
	}
	stats.add(agg)
	rec.Counter(MetricRemainderSkipped).Add(agg.RemainderSkipped)
	rec.Counter(MetricRemainderEvals).Add(agg.RemainderEvals)
	rec.Counter(MetricFCDeltaUpdates).Add(agg.FCDeltaUpdates)
	return counts
}

// crossing returns #{c : ts[c] < v} for ascending ts: the number of
// leading candidates at which v's bit (v > t) is on. NaN is never on.
func crossing(ts []float64, v float64) int32 {
	if !(ts[0] < v) {
		return 0
	}
	lo, hi := 1, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// laneMask is the word with the low k lanes set.
func laneMask(k int) uint64 {
	if k >= lanes {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// sweepSample scores one sample against the ascending candidate list,
// adding its correct predictions to counts, and returns its accounting.
func (s *crossSweep) sweepSample(a *sweepArena, data []float64, label int, ts []float64, counts []int64) SweepStats {
	pcj := a.pcj
	if p := s.pool; p > 1 {
		ph, pw := s.outH/p, s.outW/p
		e := 0
		for k := 0; k < s.filters; k++ {
			plane := data[k*s.outH*s.outW : (k+1)*s.outH*s.outW]
			for py := 0; py < ph; py++ {
				for px := 0; px < pw; px++ {
					m := math.Inf(-1)
					for ky := 0; ky < p; ky++ {
						row := plane[(py*p+ky)*s.outW+px*p:][:p]
						for _, v := range row {
							if v > m {
								m = v
							}
						}
					}
					pcj[e] = crossing(ts, m)
					e++
				}
			}
		}
	} else {
		for j, v := range data {
			pcj[j] = crossing(ts, v)
		}
	}

	nc := len(ts)
	hist := a.hist
	clear(hist)
	for _, cj := range pcj {
		hist[cj]++
	}
	st := SweepStats{Evaluations: int64(nc), RemainderEvals: 1}
	for c := 1; c < nc; c++ {
		switch {
		case hist[c] == 0:
			st.RemainderSkipped++
		case len(s.stages) == 0:
			st.FCDeltaUpdates += hist[c]
		default:
			st.RemainderEvals++
		}
	}

	// Score the candidates 64 lanes at a time. Within a group, lane x is
	// a representative when it is the group's first lane or its input
	// differs from lane x-1's (hist[lo+x] > 0); rank[x] counts the
	// representatives among the first x lanes, so an element on in the
	// group's first x lanes is on in the first rank[x] compressed lanes.
	for lo := 0; lo < nc; lo += lanes {
		n := min(lanes, nc-lo)
		rank := a.rank[:n+1]
		rank[0] = 0
		for x := 0; x < n; x++ {
			r := rank[x]
			if x == 0 || hist[lo+x] > 0 {
				r++
			}
			rank[x+1] = r
		}
		for e, cj := range pcj {
			x := min(max(int(cj)-lo, 0), n)
			a.words[e] = laneMask(rank[x])
		}
		s.evalLanes(a, rank[n])
		for x := 0; x < n; x++ {
			if a.preds[rank[x+1]-1] == label {
				counts[lo+x]++
			}
		}
	}
	return st
}

// evalLanes runs the remainder on the first n lanes of a.words and
// writes each lane's predicted class to a.preds.
func (s *crossSweep) evalLanes(a *sweepArena, n int) {
	words := a.words
	var vals []float64
	for i := range s.stages {
		st, b := &s.stages[i], &a.stages[i]
		switch {
		case st.floatIn:
			vals = st.floatStage(b, vals, n)
		case st.floatOut:
			vals = st.bitsToFloat(b, words, n)
		default:
			words = st.binaryStage(b, words, n, s.q.Thresholds[st.l])
		}
	}
	if vals != nil {
		s.classifyFloat(a, vals, n)
	} else {
		s.classifyBits(a, words, n)
	}
}

// accumulateBits folds position p's receptive field into acc (n lanes
// × filters, lane-major): for each fan slot in ascending order, every
// lane whose input bit is on adds the slot's weight row.
func (st *laneStage) accumulateBits(acc []float64, in []uint64, p, n int) {
	f := st.filters
	clear(acc[:n*f])
	for j, e := range st.cols[p*st.fan : (p+1)*st.fan] {
		if w := in[e]; w != 0 {
			vecf.AddRowLanes(acc, st.wT[j*f:(j+1)*f], w)
		}
	}
}

// binaryStage is one binarized stage on lane words: per-lane sums
// thresholded at t, then OR-pooled.
func (st *laneStage) binaryStage(b *laneBufs, in []uint64, n int, t float64) []uint64 {
	f := st.filters
	for p := 0; p < st.positions; p++ {
		st.accumulateBits(b.acc, in, p, n)
		for k := 0; k < f; k++ {
			var word uint64
			for r := 0; r < n; r++ {
				if b.acc[r*f+k] > t {
					word |= 1 << uint(r)
				}
			}
			b.words[k*st.positions+p] = word
		}
	}
	if st.pool <= 1 {
		return b.words
	}
	size := st.pool
	e := 0
	for k := 0; k < f; k++ {
		for py := 0; py < st.pooledH; py++ {
			for px := 0; px < st.pooledW; px++ {
				var word uint64
				for ky := 0; ky < size; ky++ {
					for _, w := range b.words[(k*st.outH+py*size+ky)*st.outW+px*size:][:size] {
						word |= w
					}
				}
				b.pooledWords[e] = word
				e++
			}
		}
	}
	return b.pooledWords
}

// bitsToFloat is the float remainder's first stage on lane words:
// per-lane sums, ReLU, max pool.
func (st *laneStage) bitsToFloat(b *laneBufs, in []uint64, n int) []float64 {
	f := st.filters
	for p := 0; p < st.positions; p++ {
		st.accumulateBits(b.acc, in, p, n)
		for k := 0; k < f; k++ {
			dst := b.vals[(k*st.positions+p)*lanes:][:n]
			for r := range dst {
				v := b.acc[r*f+k]
				if v < 0 {
					v = 0
				}
				dst[r] = v
			}
		}
	}
	return st.maxPoolLanes(b, n)
}

// floatStage is a deeper float remainder stage on element-major float
// lanes: MulAccLanes per non-zero weight in ascending fan order, ReLU,
// max pool. MulAccLanes accumulates all 64 lanes; only the first n are
// kept.
func (st *laneStage) floatStage(b *laneBufs, in []float64, n int) []float64 {
	f := st.filters
	acc := b.acc
	for p := 0; p < st.positions; p++ {
		clear(acc)
		for j, e := range st.cols[p*st.fan : (p+1)*st.fan] {
			x := in[int(e)*lanes:][:lanes]
			row := st.wT[j*f : (j+1)*f]
			for k := range row {
				if row[k] != 0 {
					vecf.MulAccLanes(acc[k*lanes:(k+1)*lanes], x, row[k:k+1])
				}
			}
		}
		for k := 0; k < f; k++ {
			dst := b.vals[(k*st.positions+p)*lanes:][:n]
			for r, v := range acc[k*lanes:][:n] {
				if v < 0 {
					v = 0
				}
				dst[r] = v
			}
		}
	}
	return st.maxPoolLanes(b, n)
}

// maxPoolLanes max-pools the first n lanes of b.vals into b.pooledVals,
// in maxPool's window order.
func (st *laneStage) maxPoolLanes(b *laneBufs, n int) []float64 {
	if st.pool <= 1 {
		return b.vals
	}
	size := st.pool
	e := 0
	for k := 0; k < st.filters; k++ {
		for py := 0; py < st.pooledH; py++ {
			for px := 0; px < st.pooledW; px++ {
				dst := b.pooledVals[e*lanes:][:n]
				e++
				for r := range dst {
					dst[r] = math.Inf(-1)
				}
				for ky := 0; ky < size; ky++ {
					for kx := 0; kx < size; kx++ {
						src := b.vals[((k*st.outH+py*size+ky)*st.outW+px*size+kx)*lanes:][:n]
						for r, v := range src {
							if v > dst[r] {
								dst[r] = v
							}
						}
					}
				}
			}
		}
	}
	return b.pooledVals
}

// classifyBits folds the FC over 0/1 lane words (AddRowLanes over FC
// columns), adds the bias and takes each lane's argmax.
func (s *crossSweep) classifyBits(a *sweepArena, in []uint64, n int) {
	m := s.classes
	y := a.y[:n*m]
	clear(y)
	for j, w := range in {
		if w != 0 {
			vecf.AddRowLanes(y, s.fcT[j*m:(j+1)*m], w)
		}
	}
	for r := 0; r < n; r++ {
		sc := y[r*m : (r+1)*m]
		for o, b := range s.fcB {
			sc[o] += b
		}
		a.preds[r] = argmaxFirst(sc)
	}
}

// classifyFloat folds the FC over element-major float lanes
// (MulAccLanes per input element, ascending), adds the bias and takes
// each lane's argmax.
func (s *crossSweep) classifyFloat(a *sweepArena, in []float64, n int) {
	m := s.classes
	y := a.y
	clear(y)
	for j := 0; j < s.fcIn; j++ {
		vecf.MulAccLanes(y, in[j*lanes:(j+1)*lanes], s.fcT[j*m:(j+1)*m])
	}
	for r := 0; r < n; r++ {
		best, bi := y[r]+s.fcB[0], 0
		for o := 1; o < m; o++ {
			if v := y[o*lanes+r] + s.fcB[o]; v > best {
				best, bi = v, o
			}
		}
		a.preds[r] = bi
	}
}

// argmaxFirst is tensor.ArgMax on a plain slice: index of the largest
// element, first on ties.
func argmaxFirst(y []float64) int {
	best, bi := y[0], 0
	for i, v := range y {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// newLaneSweeper wires a crossSweep for Algorithm 1's stage-l
// candidate scoring through the float tail of the network (bit-identical
// to floatRemainder).
func newLaneSweeper(q *QuantizedNet, l int, convOut []*tensor.Tensor, labels []int, cfg SearchConfig, stats *SweepStats) layerSweeper {
	s := newCrossSweep(q, l, convOut[0].Shape(), false)
	values := make([][]float64, len(convOut))
	for i, t := range convOut {
		values[i] = t.Data()
	}
	return func(ts []float64) []int {
		return s.run(values, labels, ts, cfg.Workers, cfg.Obs, stats)
	}
}
