package quant

import (
	"fmt"

	"sei/internal/mnist"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
)

// RefineConfig controls the coordinate-descent threshold refinement.
type RefineConfig struct {
	Rounds  int     // full sweeps over the layers
	Step    float64 // candidate spacing around the current threshold
	Radius  int     // candidates tried on each side of the current value
	Samples int     // training subsample (0 = all)
	Workers int     // parallel engine goroutines (0 = all cores, 1 = serial)
	// Obs, when set, receives refinement counters
	// (quant_refine_candidates, the incremental-engine skip/eval
	// counters, and the engine scheduling metrics).
	Obs *obs.Recorder
}

// DefaultRefineConfig refines each threshold over ±5 steps of 0.01 for
// two rounds.
func DefaultRefineConfig() RefineConfig {
	return RefineConfig{Rounds: 2, Step: 0.01, Radius: 5, Samples: 500}
}

// RefineThresholds improves the greedy Algorithm-1 thresholds by
// coordinate descent: each layer's threshold is re-searched while
// evaluating accuracy through the *fully binarized* pipeline (the
// greedy pass evaluates through the float remainder, which mismatches
// the deployed network once deeper layers are also binarized). This is
// the same brute-force accuracy-driven search, applied at deployment
// semantics; it never changes weights.
//
// Candidate scoring runs on the candidate-lane sweep (engine.go): per
// layer, the prefix pipeline is evaluated once into cached entry maps,
// the layer's analog sums once per sample, and all candidate thresholds
// are scored together as lanes of the binarized remainder — results are
// bit-identical to evaluating every candidate through Predict.
func RefineThresholds(q *QuantizedNet, train *mnist.Dataset, cfg RefineConfig) (float64, error) {
	if cfg.Rounds <= 0 || cfg.Step <= 0 || cfg.Radius <= 0 {
		return 0, fmt.Errorf("quant: invalid refine config %+v", cfg)
	}
	if err := par.Validate(cfg.Workers); err != nil {
		return 0, fmt.Errorf("quant: refine config: %w", err)
	}
	data := train
	if cfg.Samples > 0 && cfg.Samples < train.Len() {
		data = train.Subset(cfg.Samples)
	}
	// Baseline accuracy through the full binarized pipeline.
	cfg.Obs.Counter(MetricRefineCandidates).Add(1)
	correct := par.CountRec(cfg.Obs, cfg.Workers, data.Len(), func(i int) bool {
		return q.Predict(data.Images[i]) == data.Labels[i]
	})
	best := float64(correct) / float64(data.Len())

	var stats SweepStats
	for round := 0; round < cfg.Rounds; round++ {
		improved := false
		// entries[i] is the 0/1 map entering the layer currently being
		// refined under the thresholds chosen so far this round.
		entries := make([]*tensor.Tensor, data.Len())
		copy(entries, data.Images)
		sums := make([]*tensor.Tensor, data.Len())
		for l := range q.Thresholds {
			// The layer's analog sums are threshold-independent: compute
			// them once per sample, sweep every candidate against them,
			// and re-binarize them once more to advance the entries.
			par.ForEachRec(cfg.Obs, cfg.Workers, data.Len(), func(i int) {
				sums[i] = stageSums(&q.Convs[l], entries[i])
			})
			orig := q.Thresholds[l]
			bestT := orig
			if ts := refineCandidates(orig, cfg.Step, cfg.Radius); len(ts) > 0 {
				cfg.Obs.Counter(MetricRefineCandidates).Add(int64(len(ts)))
				sweep := newRefineSweeper(q, l, sums)
				counts := sweep(ts, data.Labels, cfg, &stats)
				for c, t := range ts {
					if acc := float64(counts[c]) / float64(data.Len()); acc > best {
						best, bestT = acc, t
						improved = true
					}
				}
			}
			q.Thresholds[l] = bestT
			par.ForEachRec(cfg.Obs, cfg.Workers, data.Len(), func(i int) {
				entries[i] = q.advanceFromSums(l, sums[i], bestT)
			})
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// refineCandidates lists the coordinate-descent candidates around orig
// in ascending order: orig + k·step for k ∈ [-radius, radius] \ {0},
// negatives dropped (thresholds are ≥ 0).
func refineCandidates(orig, step float64, radius int) []float64 {
	var ts []float64
	for k := -radius; k <= radius; k++ {
		if k == 0 {
			continue
		}
		t := orig + float64(k)*step
		if t < 0 {
			continue
		}
		ts = append(ts, t)
	}
	return ts
}

// newRefineSweeper wires a crossSweep for refining conv stage l over
// precomputed analog sums through the binarized tail of the pipeline.
func newRefineSweeper(q *QuantizedNet, l int, sums []*tensor.Tensor) func(ts []float64, labels []int, cfg RefineConfig, stats *SweepStats) []int {
	s := newCrossSweep(q, l, sums[0].Shape(), true)
	values := make([][]float64, len(sums))
	for i, t := range sums {
		values[i] = t.Data()
	}
	return func(ts []float64, labels []int, cfg RefineConfig, stats *SweepStats) []int {
		return s.run(values, labels, ts, cfg.Workers, cfg.Obs, stats)
	}
}

// stageSums computes conv stage c's pre-threshold analog sums on in,
// accumulated in exactly digitalEval.EvalConv's skip-zero order, so
// `sum > t` reproduces the binarized pipeline's bit for any candidate
// t without re-running the convolution.
func stageSums(c *ConvSpec, in *tensor.Tensor) *tensor.Tensor {
	kh, kw := c.W.Dim(2), c.W.Dim(3)
	cols := tensor.Im2Col(in, kh, kw, c.Stride)
	positions, fan := cols.Dim(0), cols.Dim(1)
	h, w := in.Dim(1), in.Dim(2)
	outH := (h-kh)/c.Stride + 1
	outW := (w-kw)/c.Stride + 1
	f := c.Filters()
	out := tensor.New(f, outH, outW)
	od, cd, wd := out.Data(), cols.Data(), c.W.Data()
	for p := 0; p < positions; p++ {
		field := cd[p*fan : (p+1)*fan]
		for k := 0; k < f; k++ {
			row := wd[k*fan : (k+1)*fan]
			s := 0.0
			for j, x := range field {
				if x != 0 {
					s += row[j] * x
				}
			}
			od[k*positions+p] = s
		}
	}
	return out
}

// advanceFromSums binarizes precomputed stage-l analog sums at
// threshold t and applies the stage's OR pool, reproducing convStage's
// output — and its OR-pool hardware accounting — without redoing the
// convolution.
func (q *QuantizedNet) advanceFromSums(l int, sums *tensor.Tensor, t float64) *tensor.Tensor {
	bits := tensor.New(sums.Shape()...)
	bd := bits.Data()
	for i, v := range sums.Data() {
		if v > t {
			bd[i] = 1
		}
	}
	if pool := q.Convs[l].PoolSize; pool > 1 {
		pooled := tensor.New(bits.Dim(0), bits.Dim(1)/pool, bits.Dim(2)/pool)
		orPoolInto(pooled, bits, pool)
		if h := q.hw; h != nil {
			h.ORPool(int64(pooled.Len()))
		}
		return pooled
	}
	return bits
}
