package quant

import (
	"fmt"
	"math"

	"sei/internal/mnist"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
)

// Search instrumentation metric names (recorded on SearchConfig.Obs /
// RefineConfig.Obs).
const (
	// MetricThresholdCandidates counts candidate thresholds scored by
	// Algorithm 1 (coarse + fine, summed over conv stages).
	MetricThresholdCandidates = "quant_threshold_candidates"
	// MetricRefineCandidates counts candidate thresholds scored by the
	// coordinate-descent refinement (plus its baseline evaluation).
	MetricRefineCandidates = "quant_refine_candidates"
	// MetricRemainderSkipped counts (sample, candidate) evaluations whose
	// remainder input equals the previous candidate's: no activation
	// crossed between the two thresholds (or every crossing was absorbed
	// by a still-populated OR-pool window), so the prediction is provably
	// unchanged and the lane sweep scores both with one remainder lane.
	MetricRemainderSkipped = "quant_remainder_skipped"
	// MetricRemainderEvals counts distinct remainder inputs per sample
	// for stages with a conv remainder (the first candidate plus every
	// candidate whose remainder input changed; the last conv stage counts
	// only its first candidate and reports changes as FC delta updates).
	MetricRemainderEvals = "quant_remainder_evals"
	// MetricFCDeltaUpdates counts last-stage pooled bits that turn off
	// inside the candidate list (crossing index 1 ≤ cj ≤ C-1): the
	// per-column classifier updates an incremental sweep would apply.
	// The lane sweep re-folds the classifier per lane instead and keeps
	// the count as a measure of crossing activity.
	MetricFCDeltaUpdates = "quant_fc_delta_updates"
	// GaugeSearchSkipRate is RemainderSkipped/Evaluations of the last
	// SearchThresholds run — the fraction of candidate evaluations the
	// crossing test answered for free.
	GaugeSearchSkipRate = "quant_search_skip_rate"
)

// SearchConfig controls Algorithm 1 (Threshold Searching Algorithm).
type SearchConfig struct {
	// ThresMin/ThresMax bound the brute-force interval. The paper
	// searches [0, 0.1]: after re-scaling, outputs lie in [0,1] and the
	// long-tail distribution puts the optimum well below 0.1.
	ThresMin, ThresMax float64
	// CoarseStep is the first sweep's step; FineStep refines around the
	// coarse optimum (a two-resolution version of the paper's single
	// SearchStep, same brute-force spirit at lower cost).
	CoarseStep, FineStep float64
	// Samples caps how many training samples drive the search
	// (0 = use the whole set). The paper uses all 60k; a subsample
	// preserves the optimum because only the argmax over a smooth
	// accuracy curve matters.
	Samples int
	// Workers bounds the parallel engine's goroutines (0 = all cores,
	// 1 = the serial path). Every worker count yields bit-identical
	// thresholds: candidate scoring is an order-independent count and
	// sample chunking is fixed.
	Workers int
	// Obs, when set, receives search counters (quant_threshold_candidates,
	// the incremental-engine skip/eval counters, and the engine
	// scheduling metrics) plus per-stage search spans; nil disables
	// recording.
	Obs *obs.Recorder
}

// DefaultSearchConfig uses a wider interval than the paper's [0, 0.1]:
// the synthetic-MNIST networks place their accuracy optimum above 0.1
// (denser early-layer features than CaffeNet's), and since weight
// re-scaling bounds outputs to [0,1] a wider brute-force sweep is
// harmless. PaperSearchConfig reproduces the paper's exact interval.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		ThresMin:   0,
		ThresMax:   0.6,
		CoarseStep: 0.03,
		FineStep:   0.005,
		Samples:    500,
	}
}

// PaperSearchConfig is the literal Algorithm-1 interval: thresholds
// searched from 0 to 0.1.
func PaperSearchConfig() SearchConfig {
	return SearchConfig{
		ThresMin:   0,
		ThresMax:   0.1,
		CoarseStep: 0.01,
		FineStep:   0.002,
		Samples:    500,
	}
}

// LayerSearchResult records one layer's outcome.
type LayerSearchResult struct {
	Layer     int
	MaxOutput float64 // re-scaling divisor (max activation before scaling)
	Threshold float64
	Accuracy  float64 // training-subsample accuracy at the chosen threshold
}

// SweepStats is the lane sweep's work accounting: how many (sample,
// candidate) evaluations the sweep faced and how many distinct
// remainder inputs they produced, derived from the crossing indices
// (engine.go). The reference implementation leaves it zero — the stats
// describe engine effort, not search outcomes, and are excluded from
// the bit-identity contract.
type SweepStats struct {
	// Evaluations is the number of (sample, candidate) pairs scored.
	Evaluations int64
	// RemainderSkipped counts evaluations whose remainder input is
	// unchanged since the previous candidate.
	RemainderSkipped int64
	// RemainderEvals counts distinct remainder inputs (each sample's
	// first candidate plus, below the last conv stage, every candidate
	// whose remainder input changed).
	RemainderEvals int64
	// FCDeltaUpdates counts last-stage pooled bits that turn off inside
	// the candidate list.
	FCDeltaUpdates int64
}

// SkipRate is the fraction of evaluations answered without touching
// the remainder of the network.
func (s SweepStats) SkipRate() float64 {
	if s.Evaluations == 0 {
		return 0
	}
	return float64(s.RemainderSkipped) / float64(s.Evaluations)
}

func (s *SweepStats) add(o SweepStats) {
	s.Evaluations += o.Evaluations
	s.RemainderSkipped += o.RemainderSkipped
	s.RemainderEvals += o.RemainderEvals
	s.FCDeltaUpdates += o.FCDeltaUpdates
}

// SearchReport is the outcome of Algorithm 1.
type SearchReport struct {
	Layers []LayerSearchResult
	// Stats is the lane sweep's work accounting (zero when the
	// reference sweep produced the report).
	Stats SweepStats
}

// layerSweeper scores one conv stage's candidate thresholds: given an
// ascending candidate list it returns, per candidate, how many search
// samples the remainder of the network classifies correctly at that
// threshold.
type layerSweeper func(ts []float64) []int

// sweeperFactory builds a layerSweeper for conv stage l over the
// re-scaled stage outputs convOut. Implementations: the candidate-lane
// sweep (engine.go) and the retained naive reference below.
type sweeperFactory func(q *QuantizedNet, l int, convOut []*tensor.Tensor, labels []int, cfg SearchConfig, stats *SweepStats) layerSweeper

// SearchThresholds runs Algorithm 1 on q in place: for each conv stage
// in order it (1) computes the stage's outputs under the already-
// quantized prefix, (2) re-scales the stage weights so outputs lie in
// [0,1], and (3) brute-force searches the binarization threshold that
// maximizes training accuracy through the *float* remainder of the
// network (the layer-by-layer greedy strategy).
//
// Candidate scoring runs on the candidate-lane sweep (engine.go);
// thresholds, accuracies and hardware-counter totals are bit-identical
// to SearchThresholdsReference at every worker count.
func SearchThresholds(q *QuantizedNet, train *mnist.Dataset, cfg SearchConfig) (*SearchReport, error) {
	return searchThresholds(q, train, cfg, newLaneSweeper)
}

// SearchThresholdsReference runs Algorithm 1 with the retained naive
// sweep: every candidate threshold re-binarizes every sample and runs
// the full float remainder of the network. It is the verification
// baseline the property tests pin the lane sweep against, and matches
// the pre-engine implementation bit-for-bit.
func SearchThresholdsReference(q *QuantizedNet, train *mnist.Dataset, cfg SearchConfig) (*SearchReport, error) {
	return searchThresholds(q, train, cfg, newNaiveSweeper)
}

func searchThresholds(q *QuantizedNet, train *mnist.Dataset, cfg SearchConfig, factory sweeperFactory) (*SearchReport, error) {
	if cfg.ThresMax <= cfg.ThresMin || cfg.CoarseStep <= 0 || cfg.FineStep <= 0 {
		return nil, fmt.Errorf("quant: invalid search config %+v", cfg)
	}
	if err := par.Validate(cfg.Workers); err != nil {
		return nil, fmt.Errorf("quant: search config: %w", err)
	}
	data := train
	if cfg.Samples > 0 && cfg.Samples < train.Len() {
		data = train.Subset(cfg.Samples)
	}
	if data.Len() == 0 {
		return nil, fmt.Errorf("quant: empty training set")
	}
	report := &SearchReport{}
	eval := q.Digital()

	// entries[i] is the activation entering the stage currently being
	// searched; starts as the raw images and is advanced through each
	// finished stage's binarized pipeline.
	entries := make([]*tensor.Tensor, data.Len())
	copy(entries, data.Images)

	for l := range q.Convs {
		sp := cfg.Obs.StartSpan(fmt.Sprintf("search/conv%d", l))
		// Step 1: stage outputs under the quantized prefix (stageSums
		// gives floatConv's bits; convsum.go). Each sample's output
		// lands in its own slot; the per-chunk maxima fold in chunk
		// order (max is order-independent anyway).
		convOut := make([]*tensor.Tensor, data.Len())
		maxOut := par.MapReduceRec(cfg.Obs, cfg.Workers, data.Len(), par.DefaultChunkSize,
			func(c par.Chunk) float64 {
				m := 0.0
				for i := c.Lo; i < c.Hi; i++ {
					convOut[i] = stageSums(&q.Convs[l], entries[i])
					if v := convOut[i].Max(); v > m {
						m = v
					}
				}
				return m
			},
			math.Max, 0)
		if maxOut <= 1e-12 {
			sp.End()
			return nil, fmt.Errorf("quant: conv stage %d produces no positive outputs; network is dead", l)
		}

		// Step 2: weight re-scaling (Algorithm 1 line 4). Scaling the
		// weights scales the outputs; it cannot change the float
		// network's classification.
		q.Convs[l].W.Scale(1 / maxOut)
		par.ForEachRec(cfg.Obs, cfg.Workers, len(convOut), func(i int) {
			convOut[i].Scale(1 / maxOut)
		})

		// Step 3: brute-force threshold search, coarse then fine. The
		// sweeper scores a whole ascending candidate list at once;
		// q is read-only until the chosen threshold is committed.
		sweep := factory(q, l, convOut, data.Labels, cfg, &report.Stats)
		score := func(ts []float64) []float64 {
			cfg.Obs.Counter(MetricThresholdCandidates).Add(int64(len(ts)))
			counts := sweep(ts)
			accs := make([]float64, len(ts))
			for i, c := range counts {
				accs[i] = float64(c) / float64(len(convOut))
			}
			return accs
		}
		bestT, bestAcc := cfg.ThresMin, -1.0
		coarse := thresholdCandidates(cfg.ThresMin, cfg.ThresMax, cfg.CoarseStep)
		for i, acc := range score(coarse) {
			if acc > bestAcc {
				bestT, bestAcc = coarse[i], acc
			}
		}
		lo := math.Max(cfg.ThresMin, bestT-cfg.CoarseStep)
		hi := math.Min(cfg.ThresMax, bestT+cfg.CoarseStep)
		fine := thresholdCandidates(lo, hi, cfg.FineStep)
		for i, acc := range score(fine) {
			if acc > bestAcc {
				bestT, bestAcc = fine[i], acc
			}
		}
		q.Thresholds[l] = bestT
		report.Layers = append(report.Layers, LayerSearchResult{
			Layer: l, MaxOutput: maxOut, Threshold: bestT, Accuracy: bestAcc,
		})
		sp.AddSamples(int64(data.Len()))
		sp.End()

		// Advance the cached entries through the now-final stage; the
		// last stage's outputs have no reader.
		if l+1 < len(q.Convs) {
			par.ForEachRec(cfg.Obs, cfg.Workers, len(entries), func(i int) {
				entries[i] = q.convStage(eval, l, entries[i])
			})
		}
	}
	if report.Stats.Evaluations > 0 {
		cfg.Obs.Gauge(GaugeSearchSkipRate).Set(report.Stats.SkipRate())
	}
	return report, nil
}

// thresholdCandidates materializes the brute-force loop
// `for t := lo; t <= hi+1e-12; t += step` as an ascending slice,
// preserving the exact float accumulation of the original sweep so the
// searched thresholds stay bit-identical.
func thresholdCandidates(lo, hi, step float64) []float64 {
	var ts []float64
	for t := lo; t <= hi+1e-12; t += step {
		ts = append(ts, t)
	}
	return ts
}

// newNaiveSweeper is the retained reference sweep: one parallel pass
// over the samples per candidate, each (sample, candidate) pair paying
// a fresh binarize + OR pool + full float remainder. Only the binarize
// buffer is reused (chunk-local, see binarizeInto); everything else
// matches the pre-engine implementation, including its par_* scheduling
// counter totals.
func newNaiveSweeper(q *QuantizedNet, l int, convOut []*tensor.Tensor, labels []int, cfg SearchConfig, stats *SweepStats) layerSweeper {
	pool := q.Convs[l].PoolSize
	return func(ts []float64) []int {
		counts := make([]int, len(ts))
		for c, t := range ts {
			total := 0
			for _, v := range par.MapChunksRec(cfg.Obs, cfg.Workers, len(convOut), par.DefaultChunkSize, func(ch par.Chunk) int {
				var bits *tensor.Tensor
				local := 0
				for i := ch.Lo; i < ch.Hi; i++ {
					bits = binarizeInto(bits, convOut[i], t)
					x := bits
					if pool > 1 {
						x = orPool(bits, pool)
					}
					if floatRemainder(q, l+1, x) == labels[i] {
						local++
					}
				}
				return local
			}) {
				total += v
			}
			counts[c] = total
		}
		return counts
	}
}

// floatConv computes the real-valued convolution of one stage on an
// input map (no ReLU, no pooling) with Im2Col, Transpose2D and MatMul,
// which skips zero weights: the retained reference for Algorithm 1's
// "Output(L)", which the search computes with stageSums.
func floatConv(c *ConvSpec, in *tensor.Tensor) *tensor.Tensor {
	kh, kw := c.W.Dim(2), c.W.Dim(3)
	outH := (in.Dim(1)-kh)/c.Stride + 1
	outW := (in.Dim(2)-kw)/c.Stride + 1
	cols := tensor.Im2Col(in, kh, kw, c.Stride)
	prod := tensor.MatMul(c.W.Reshape(c.Filters(), c.FanIn()), tensor.Transpose2D(cols))
	return prod.Reshape(c.Filters(), outH, outW)
}

// binarize thresholds a real map into a fresh 0/1 map.
func binarize(x *tensor.Tensor, t float64) *tensor.Tensor {
	return binarizeInto(nil, x, t)
}

// binarizeInto thresholds x into dst, overwriting every element; dst
// is allocated when nil or of the wrong size, so sweep loops can reuse
// one buffer across candidates and samples instead of allocating a
// tensor per (sample, candidate) pair. Returns the buffer in use.
func binarizeInto(dst, x *tensor.Tensor, t float64) *tensor.Tensor {
	if dst == nil || dst.Len() != x.Len() {
		dst = tensor.New(x.Shape()...)
	}
	d := dst.Data()
	for i, v := range x.Data() {
		if v > t {
			d[i] = 1
		} else {
			d[i] = 0
		}
	}
	return dst
}

// floatRemainder runs stages from (the input of conv stage `from`)
// through the original float semantics — conv, ReLU, max-pool — and
// the FC classifier, returning the predicted class. This is the
// not-yet-quantized tail of the greedy search (the allocating
// reference; the engine's arena-backed replica is in engine.go).
func floatRemainder(q *QuantizedNet, from int, x *tensor.Tensor) int {
	for l := from; l < len(q.Convs); l++ {
		x = floatConv(&q.Convs[l], x)
		for i, v := range x.Data() {
			if v < 0 {
				x.Data()[i] = 0
			}
		}
		if q.Convs[l].PoolSize > 1 {
			x = tensor.MaxPool(x, q.Convs[l].PoolSize)
		}
	}
	y := tensor.MatVec(q.FC.W, x.Data())
	for i := range y {
		y[i] += q.FC.B[i]
	}
	return tensor.FromSlice(y, len(y)).ArgMax()
}
