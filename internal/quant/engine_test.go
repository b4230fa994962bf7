package quant

import (
	"bytes"
	"strings"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// runSearch extracts a fresh quantized net from `net` and runs the
// given search implementation, returning the net, the report, and the
// recorded counters.
func runSearch(t *testing.T, net *nn.Network, train *mnist.Dataset, cfg SearchConfig, workers int,
	search func(*QuantizedNet, *mnist.Dataset, SearchConfig) (*SearchReport, error)) (*QuantizedNet, *SearchReport, map[string]int64) {
	t.Helper()
	q, err := Extract(net, []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	q.Instrument(rec)
	cfg.Workers = workers
	cfg.Obs = rec
	report, err := search(q, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q, report, rec.CounterValues()
}

// comparableCounters drops the engine-shape counters whose totals
// legitimately differ between the incremental and naive sweeps: par_*
// scheduling counts (the engine runs one parallel region per candidate
// list instead of one per candidate) and the incremental-only
// skip/eval accounting. Everything else — candidate totals and every
// hardware counter — must match bit-for-bit.
func comparableCounters(all map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range all {
		if strings.HasPrefix(k, "par_") {
			continue
		}
		switch k {
		case MetricRemainderSkipped, MetricRemainderEvals, MetricFCDeltaUpdates:
			continue
		}
		out[k] = v
	}
	return out
}

// checkSearchMatchesReference is the lane sweep's bit-identity
// property: on fresh extractions of net, SearchThresholds at Workers ∈
// {1, 2, 8} must reproduce the naive reference's SearchReport —
// thresholds, max outputs, accuracies — the re-scaled weights, and the
// comparable counter totals exactly.
func checkSearchMatchesReference(t *testing.T, net *nn.Network, train *mnist.Dataset, cfg SearchConfig) {
	t.Helper()
	refQ, refR, refC := runSearch(t, net, train, cfg, 1, SearchThresholdsReference)
	if refR.Stats != (SweepStats{}) {
		t.Fatalf("reference recorded engine stats %+v, want zero", refR.Stats)
	}
	refCounters := comparableCounters(refC)
	for _, workers := range []int{1, 2, 8} {
		q, r, c := runSearch(t, net, train, cfg, workers, SearchThresholds)
		if len(r.Layers) != len(refR.Layers) {
			t.Fatalf("workers=%d: %d layers, reference %d", workers, len(r.Layers), len(refR.Layers))
		}
		for l, lr := range r.Layers {
			if want := refR.Layers[l]; lr != want {
				t.Fatalf("workers=%d layer %d: got %+v, reference %+v", workers, l, lr, want)
			}
			if q.Thresholds[l] != refQ.Thresholds[l] {
				t.Fatalf("workers=%d: threshold[%d] = %v, reference %v", workers, l, q.Thresholds[l], refQ.Thresholds[l])
			}
		}
		for l := range refQ.Convs {
			a, b := refQ.Convs[l].W.Data(), q.Convs[l].W.Data()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: conv %d re-scaled weight %d differs", workers, l, i)
				}
			}
		}
		got := comparableCounters(c)
		if len(got) != len(refCounters) {
			t.Fatalf("workers=%d: counter sets differ: %v vs %v", workers, got, refCounters)
		}
		for k, v := range refCounters {
			if got[k] != v {
				t.Fatalf("workers=%d: counter %s = %d, reference %d", workers, k, got[k], v)
			}
		}
		if r.Stats.Evaluations == 0 || r.Stats.RemainderSkipped == 0 {
			t.Fatalf("workers=%d: engine recorded no work (stats %+v)", workers, r.Stats)
		}
	}
}

// TestIncrementalSearchMatchesReference pins the lane sweep against the
// reference on both stock configs.
func TestIncrementalSearchMatchesReference(t *testing.T) {
	net := trainedNet2(t)
	train := mnist.Synthetic(400, 9)
	configs := map[string]SearchConfig{
		"default": DefaultSearchConfig(),
		"paper":   PaperSearchConfig(),
	}
	for name, cfg := range configs {
		cfg.Samples = 150
		t.Run(name, func(t *testing.T) {
			checkSearchMatchesReference(t, net, train, cfg)
		})
	}
}

// trainedDeepNet trains the three-conv-stage network once per test
// binary.
func trainedDeepNet(t *testing.T) *nn.Network {
	t.Helper()
	if n, ok := trainedCache["deep"]; ok {
		return n
	}
	net := nn.NewDeepNetwork(3)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	nn.Train(net, mnist.Synthetic(300, 11), tcfg)
	trainedCache["deep"] = net
	return net
}

// TestIncrementalSearchMatchesReferenceDeepNet covers the geometries
// the Network 2 fixture misses: three conv stages, one of them
// unpooled (pool ≤ 1 sweeps and a multi-stage float remainder, whose
// deeper stage runs on float lanes).
func TestIncrementalSearchMatchesReferenceDeepNet(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an extra network")
	}
	cfg := DefaultSearchConfig()
	cfg.Samples = 100
	checkSearchMatchesReference(t, trainedDeepNet(t), mnist.Synthetic(300, 11), cfg)
}

// TestLaneSearchMatchesReferenceManyCandidates sweeps more than 64
// candidates per list, so each sample is scored in several lane groups.
func TestLaneSearchMatchesReferenceManyCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("scores 121 coarse candidates through the naive reference")
	}
	cfg := DefaultSearchConfig()
	cfg.CoarseStep = 0.005
	cfg.FineStep = 0.001
	cfg.Samples = 60
	if n := len(thresholdCandidates(cfg.ThresMin, cfg.ThresMax, cfg.CoarseStep)); n <= lanes {
		t.Fatalf("%d coarse candidates fit one lane group", n)
	}
	checkSearchMatchesReference(t, trainedNet2(t), mnist.Synthetic(300, 9), cfg)
}

// TestLaneSearchMatchesReferenceNetwork1 covers the paper's Network 1
// geometry (12@5×5 → 64@5×5, fan-in 300, FC 1024→10): wide lane
// accumulators and a remainder input map far larger than one word.
func TestLaneSearchMatchesReferenceNetwork1(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Network 1")
	}
	train := mnist.Synthetic(300, 17)
	net := nn.NewTableNetwork(1, 5)
	tcfg := nn.DefaultTrainConfig()
	tcfg.Epochs = 1
	nn.Train(net, train, tcfg)
	cfg := DefaultSearchConfig()
	cfg.Samples = 40
	checkSearchMatchesReference(t, net, train, cfg)
}

// TestSweepStatsAccounting pins the engine's internal bookkeeping on a
// real sweep: every (sample, candidate) evaluation is either skipped
// or paid for, and the skip rate exposes the long-tail structure the
// engine exploits (the overwhelming majority of candidate steps cross
// nothing).
func TestSweepStatsAccounting(t *testing.T) {
	net := trainedNet2(t)
	train := mnist.Synthetic(300, 13)
	cfg := DefaultSearchConfig()
	cfg.Samples = 100
	rec := obs.New()
	q, err := Extract(net, []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = rec
	r, err := SearchThresholds(q, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Stats
	if s.Evaluations <= 0 {
		t.Fatalf("no evaluations recorded: %+v", s)
	}
	// Per sample, the first candidate plus every non-skipped candidate
	// are the only remainder evaluations for non-last stages; for the
	// last stage non-skipped candidates count as delta updates. So
	// skipped + evals can never exceed evaluations + first candidates.
	if s.RemainderSkipped+s.RemainderEvals > s.Evaluations+int64(len(r.Layers))*100 {
		t.Fatalf("inconsistent accounting: %+v", s)
	}
	// Synthetic-MNIST activations are denser than the paper's long
	// tail, so the skip rate is moderate here (~0.32 on this fixture;
	// much higher on the last stage, where pooled absorption helps).
	if rate := s.SkipRate(); rate < 0.15 {
		t.Fatalf("skip rate %.3f, expected the crossing test to skip a solid fraction of candidate steps (%+v)", rate, s)
	}
	counters := rec.CounterValues()
	for _, k := range []string{MetricRemainderSkipped, MetricRemainderEvals, MetricThresholdCandidates} {
		if counters[k] == 0 {
			t.Fatalf("counter %s not recorded: %v", k, counters)
		}
	}
	if counters[MetricRemainderSkipped] != s.RemainderSkipped || counters[MetricRemainderEvals] != s.RemainderEvals || counters[MetricFCDeltaUpdates] != s.FCDeltaUpdates {
		t.Fatalf("counters %v disagree with report stats %+v", counters, s)
	}
	if g := rec.Report("").Gauges[GaugeSearchSkipRate]; g != s.SkipRate() {
		t.Fatalf("gauge %v != skip rate %v", g, s.SkipRate())
	}
	// Literal accounting on this fixture, recorded from a sorted
	// crossing-schedule sweep: the lane sweep derives the same numbers
	// from crossing indices and must reproduce them exactly.
	want := SweepStats{Evaluations: 6800, RemainderSkipped: 2187, RemainderEvals: 3399, FCDeltaUpdates: 2389}
	if s != want {
		t.Fatalf("sweep stats %+v, want %+v", s, want)
	}
}

// TestBinarizeIntoReusesBuffer pins the satellite fix: the returned
// buffer is reused when shapes match and values equal binarize's.
func TestBinarizeIntoReusesBuffer(t *testing.T) {
	x := tensor.FromSlice([]float64{0.1, 0.5, 0.9, 0.3}, 1, 2, 2)
	a := binarizeInto(nil, x, 0.4)
	b := binarizeInto(a, x, 0.6)
	if a != b {
		t.Fatal("binarizeInto allocated a new buffer despite matching size")
	}
	want := binarize(x, 0.6)
	for i := range want.Data() {
		if a.Data()[i] != want.Data()[i] {
			t.Fatalf("binarizeInto value %d = %v, want %v", i, a.Data()[i], want.Data()[i])
		}
	}
}

// refineThresholdsReference replicates the pre-engine coordinate
// descent verbatim — every candidate threshold pays a full binarized
// Predict pass per sample — as the bit-identity baseline for the
// incremental refinement.
func refineThresholdsReference(q *QuantizedNet, train *mnist.Dataset, cfg RefineConfig) float64 {
	data := train
	if cfg.Samples > 0 && cfg.Samples < train.Len() {
		data = train.Subset(cfg.Samples)
	}
	accuracy := func() float64 {
		correct := 0
		for i := 0; i < data.Len(); i++ {
			if q.Predict(data.Images[i]) == data.Labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(data.Len())
	}
	best := accuracy()
	for round := 0; round < cfg.Rounds; round++ {
		improved := false
		for l := range q.Thresholds {
			orig := q.Thresholds[l]
			bestT := orig
			for k := -cfg.Radius; k <= cfg.Radius; k++ {
				if k == 0 {
					continue
				}
				t := orig + float64(k)*cfg.Step
				if t < 0 {
					continue
				}
				q.Thresholds[l] = t
				if acc := accuracy(); acc > best {
					best, bestT = acc, t
					improved = true
				}
			}
			q.Thresholds[l] = bestT
		}
		if !improved {
			break
		}
	}
	return best
}

// checkRefineMatchesReference pins the refinement against the naive
// coordinate descent: returned accuracy and final thresholds
// bit-identical at Workers ∈ {1, 2, 8}. fixture returns a fresh copy of
// the same quantized net on every call.
func checkRefineMatchesReference(t *testing.T, fixture func() *QuantizedNet, train *mnist.Dataset, cfg RefineConfig) {
	t.Helper()
	refQ := fixture()
	refBest := refineThresholdsReference(refQ, train, cfg)
	for _, workers := range []int{1, 2, 8} {
		q := fixture()
		c := cfg
		c.Workers = workers
		got, err := RefineThresholds(q, train, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != refBest {
			t.Fatalf("workers=%d: best accuracy %v, reference %v", workers, got, refBest)
		}
		for l := range q.Thresholds {
			if q.Thresholds[l] != refQ.Thresholds[l] {
				t.Fatalf("workers=%d: threshold[%d] = %v, reference %v", workers, l, q.Thresholds[l], refQ.Thresholds[l])
			}
		}
	}
}

// TestIncrementalRefineMatchesReference runs the refinement pin on the
// Network 2 fixture.
func TestIncrementalRefineMatchesReference(t *testing.T) {
	_, train, _ := quantizedFixture(t)
	cfg := DefaultRefineConfig()
	cfg.Samples = 150
	checkRefineMatchesReference(t, func() *QuantizedNet {
		q, _, _ := quantizedFixture(t)
		return q
	}, train, cfg)
}

// deepFixture returns a fresh copy of the three-stage network after
// Algorithm 1 (quantized once per test binary) and its training set.
func deepFixture(t *testing.T) (*QuantizedNet, *mnist.Dataset) {
	t.Helper()
	train := mnist.Synthetic(300, 11)
	if deepSnapshot == nil {
		cfg := DefaultSearchConfig()
		cfg.Samples = 100
		q, _, err := QuantizeNetwork(trainedDeepNet(t), train, []int{1, 28, 28}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := q.Save(&buf); err != nil {
			t.Fatal(err)
		}
		deepSnapshot = buf.Bytes()
	}
	q, err := Load(bytes.NewReader(deepSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	return q, train
}

var deepSnapshot []byte

// TestLaneRefineMatchesReferenceDeepNet runs the refinement pin on the
// three-stage network: two-stage binarized remainders, one of them
// unpooled.
func TestLaneRefineMatchesReferenceDeepNet(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an extra network")
	}
	_, train := deepFixture(t)
	cfg := DefaultRefineConfig()
	cfg.Samples = 100
	checkRefineMatchesReference(t, func() *QuantizedNet {
		q, _ := deepFixture(t)
		return q
	}, train, cfg)
}

// TestLaneSweepCountsMatchNaive checks every candidate's correct count,
// not only the optimum the search and refinement keep: for each stage
// and both remainder kinds, over 121 candidates (two lane groups), the
// lane sweep must count exactly what a fresh binarize + remainder pass
// per (sample, candidate) counts.
func TestLaneSweepCountsMatchNaive(t *testing.T) {
	q, train, _ := quantizedFixture(t)
	checkLaneCounts(t, q, train.Subset(40))
	if testing.Short() {
		return
	}
	dq, dtrain := deepFixture(t)
	checkLaneCounts(t, dq, dtrain.Subset(25))
}

func checkLaneCounts(t *testing.T, q *QuantizedNet, data *mnist.Dataset) {
	t.Helper()
	ts := thresholdCandidates(0, 0.6, 0.005)
	eval := q.Digital()
	for l := range q.Convs {
		pool := q.Convs[l].PoolSize
		for _, binary := range []bool{false, true} {
			values := make([]*tensor.Tensor, data.Len())
			for i, img := range data.Images {
				if in := stageInput(q, l, img); binary {
					values[i] = stageSums(&q.Convs[l], in)
				} else {
					values[i] = floatConv(&q.Convs[l], in)
				}
			}
			var got []int
			if binary {
				got = newRefineSweeper(q, l, values)(ts, data.Labels, RefineConfig{Workers: 2}, &SweepStats{})
			} else {
				got = newLaneSweeper(q, l, values, data.Labels, SearchConfig{Workers: 2}, &SweepStats{})(ts)
			}
			for c, th := range ts {
				want := 0
				for i, v := range values {
					var pred int
					if binary {
						x := q.advanceFromSums(l, v, th)
						for m := l + 1; m < len(q.Convs); m++ {
							x = q.convStage(eval, m, x)
						}
						pred = argmaxFirst(eval.EvalFC(x.Data()))
					} else {
						x := binarize(v, th)
						if pool > 1 {
							x = orPool(x, pool)
						}
						pred = floatRemainder(q, l+1, x)
					}
					if pred == data.Labels[i] {
						want++
					}
				}
				if got[c] != want {
					t.Fatalf("%s stage %d binary=%v candidate %d (t=%v): lane sweep counts %d, naive %d", q.Name, l, binary, c, th, got[c], want)
				}
			}
		}
	}
}

// TestLaneSweepAllocsPerSample is the steady-state allocation guard:
// scoring a sample allocates nothing, so run's allocations do not grow
// with the sample count, for both remainder kinds and for swept stages
// with and without a conv remainder.
func TestLaneSweepAllocsPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts are meaningless")
	}
	q, train, _ := quantizedFixture(t)
	data := train.Subset(160)
	ts := thresholdCandidates(0, 0.6, 0.03)
	for l := range q.Convs {
		values := make([][]float64, data.Len())
		var shape []int
		for i, img := range data.Images {
			out := floatConv(&q.Convs[l], stageInput(q, l, img))
			values[i], shape = out.Data(), out.Shape()
		}
		for _, binary := range []bool{false, true} {
			s := newCrossSweep(q, l, shape, binary)
			var stats SweepStats
			runN := func(n int) float64 {
				return testing.AllocsPerRun(20, func() { s.run(values[:n], data.Labels[:n], ts, 1, nil, &stats) })
			}
			if few, many := runN(16), runN(160); many != few {
				t.Fatalf("stage %d binary=%v: run allocates %v for 16 samples, %v for 160", l, binary, few, many)
			}
			a := s.getArena(len(ts))
			counts := make([]int64, len(ts))
			if avg := testing.AllocsPerRun(50, func() { s.sweepSample(a, values[1], data.Labels[1], ts, counts) }); avg != 0 {
				t.Fatalf("stage %d binary=%v: sweepSample allocates %v per sample", l, binary, avg)
			}
		}
	}
}
