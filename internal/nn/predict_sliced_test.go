package nn

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sei/internal/mnist"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
)

// stubSliced is a SlicedBatchPredictor whose sliced kernel delegates
// to a reference network, with injectable refusal and panic behaviour
// — the dispatch layer's contract is tested without a real bit-sliced
// implementation.
type stubSliced struct {
	base     Classifier
	eligible bool
	refuse   bool
	panicky  bool
	groups   atomic.Int64
}

func (s *stubSliced) Predict(img *tensor.Tensor) int { return s.base.Predict(img) }
func (s *stubSliced) SlicedBatchEligible() bool      { return s.eligible }
func (s *stubSliced) PredictBatchSliced(imgs []*tensor.Tensor, out []PredictResult) bool {
	if s.refuse {
		return false
	}
	if s.panicky {
		panic("injected sliced kernel failure")
	}
	s.groups.Add(1)
	for i, img := range imgs {
		out[i] = PredictResult{Label: s.base.Predict(img)}
	}
	return true
}

// referenceLabels is what any dispatch route must produce.
func referenceLabels(t *testing.T, c Classifier, imgs []*tensor.Tensor) []int {
	t.Helper()
	labels := make([]int, len(imgs))
	for i, img := range imgs {
		labels[i] = c.Predict(img)
	}
	return labels
}

func batchLabels(t *testing.T, res []PredictResult) []int {
	t.Helper()
	labels := make([]int, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("image %d: %v", i, r.Err)
		}
		labels[i] = r.Label
	}
	return labels
}

// TestSlicedDispatchGroupsAndTail pins the scheduling rule: full
// 64-image groups go through the sliced kernel, the ragged tail
// through the per-image engine, and sub-group batches never touch the
// kernel.
func TestSlicedDispatchGroupsAndTail(t *testing.T) {
	data := mnist.Synthetic(256, 3)
	net := NewTableNetwork(1, 2)
	cases := []struct {
		n, groups int
	}{
		{1, 0}, {63, 0}, {64, 1}, {65, 1}, {128, 2}, {256, 4},
	}
	for _, tc := range cases {
		s := &stubSliced{base: net, eligible: true}
		rec := obs.New()
		imgs := data.Images[:tc.n]
		res := PredictBatchObs(rec, s, imgs, 1)
		if got := batchLabels(t, res); !reflect.DeepEqual(got, referenceLabels(t, net, imgs)) {
			t.Fatalf("n=%d: labels diverge from reference", tc.n)
		}
		counters := rec.CounterValues()
		if got := s.groups.Load(); got != int64(tc.groups) {
			t.Errorf("n=%d: kernel ran %d groups, want %d", tc.n, got, tc.groups)
		}
		if got := counters[MetricSlicedGroups]; got != int64(tc.groups) {
			t.Errorf("n=%d: %s = %d, want %d", tc.n, MetricSlicedGroups, got, tc.groups)
		}
		if got := counters[MetricEvalImages]; got != int64(tc.n) {
			t.Errorf("n=%d: %s = %d, want %d", tc.n, MetricEvalImages, got, tc.n)
		}
	}
}

// TestSlicedDispatchSkipsIneligible pins that an ineligible predictor
// — or one whose kernel refuses the batch — still classifies every
// image through the per-image engine.
func TestSlicedDispatchSkipsIneligible(t *testing.T) {
	data := mnist.Synthetic(64, 4)
	net := NewTableNetwork(1, 2)
	want := referenceLabels(t, net, data.Images)

	ineligible := &stubSliced{base: net, eligible: false}
	rec := obs.New()
	got := batchLabels(t, PredictBatchObs(rec, ineligible, data.Images, 1))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ineligible predictor labels diverge")
	}
	if ineligible.groups.Load() != 0 || rec.CounterValues()[MetricSlicedGroups] != 0 {
		t.Error("ineligible predictor reached the sliced kernel")
	}

	refusing := &stubSliced{base: net, eligible: true, refuse: true}
	rec = obs.New()
	got = batchLabels(t, PredictBatchObs(rec, refusing, data.Images, 1))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("refused-batch labels diverge")
	}
	counters := rec.CounterValues()
	if counters[MetricSlicedFallbacks] != 1 || counters[MetricSlicedGroups] != 0 {
		t.Errorf("refusal accounting wrong: %v", counters)
	}
	if counters[MetricEvalImages] != 64 {
		t.Errorf("%s = %d, want 64", MetricEvalImages, counters[MetricEvalImages])
	}
}

// TestSlicedGroupFallbackIsolation pins the fallback semantics inside
// one group: an invalid image sends only its own group per-image
// (surfacing a per-image error, leaving neighbours intact) while other
// groups stay sliced; a panicking kernel is contained the same way.
func TestSlicedGroupFallbackIsolation(t *testing.T) {
	data := mnist.Synthetic(128, 5)
	net := NewTableNetwork(1, 2)
	imgs := append([]*tensor.Tensor(nil), data.Images...)
	imgs[7] = tensor.New(2, 2) // poisons group 0 only
	s := &stubSliced{base: net, eligible: true}
	rec := obs.New()
	res := PredictBatchObs(rec, s, imgs, 1)
	for i, r := range res {
		if i == 7 {
			if !errors.Is(r.Err, ErrBadInput) {
				t.Fatalf("bad image err = %v, want ErrBadInput", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("good image %d poisoned: %v", i, r.Err)
		}
		if r.Label != net.Predict(data.Images[i]) {
			t.Fatalf("good image %d label changed", i)
		}
	}
	counters := rec.CounterValues()
	if counters[MetricSlicedGroups] != 1 || counters[MetricSlicedFallbacks] != 1 {
		t.Errorf("group accounting wrong: %v", counters)
	}
	if counters[MetricEvalImages] != int64(len(imgs)) {
		t.Errorf("%s = %d, want %d", MetricEvalImages, counters[MetricEvalImages], len(imgs))
	}

	panicky := &stubSliced{base: net, eligible: true, panicky: true}
	rec = obs.New()
	got := batchLabels(t, PredictBatchObs(rec, panicky, data.Images[:64], 1))
	if !reflect.DeepEqual(got, referenceLabels(t, net, data.Images[:64])) {
		t.Fatal("panicking kernel corrupted results")
	}
	if rec.CounterValues()[MetricSlicedFallbacks] != 1 {
		t.Error("panicking kernel fallback not counted")
	}
}

// stubSeeded is a SeededBatchPredictor over a reference network that
// records the seeds its kernel and its chunk clones receive.
type stubSeeded struct {
	base   Classifier
	refuse bool
	mu     sync.Mutex
	kernel [][]int64 // seeds per accepted kernel call, in call order
	clones []int64   // CloneForEval seeds
}

func (s *stubSeeded) Predict(img *tensor.Tensor) int { return s.base.Predict(img) }
func (s *stubSeeded) SeededBatchEligible() bool      { return true }
func (s *stubSeeded) CloneForEval(seed int64) Classifier {
	s.mu.Lock()
	s.clones = append(s.clones, seed)
	s.mu.Unlock()
	return s.base
}
func (s *stubSeeded) PredictBatchSeeded(imgs []*tensor.Tensor, seeds []int64, out []PredictResult) bool {
	if s.refuse {
		return false
	}
	s.mu.Lock()
	s.kernel = append(s.kernel, append([]int64(nil), seeds...))
	s.mu.Unlock()
	for i, img := range imgs {
		out[i] = PredictResult{Label: s.base.Predict(img)}
	}
	return true
}

// TestSeededDispatchSeedsAndTail pins the seeds the seeded dispatch
// hands out: group g's kernel gets the CloneForEval seeds of engine
// chunks 4g..4g+3, a refused group's per-image fallback clones those
// same chunks, and the ragged tail's chunks continue the index after
// the last group — so every image sees the seed the chunked engine
// gives it.
func TestSeededDispatchSeedsAndTail(t *testing.T) {
	data := mnist.Synthetic(130, 6)
	net := NewTableNetwork(1, 2)
	want := referenceLabels(t, net, data.Images)
	seed := func(chunk int) int64 { return par.ChunkSeed(evalSeedBase, chunk) }

	s := &stubSeeded{base: net}
	rec := obs.New()
	if got := batchLabels(t, PredictBatchObs(rec, s, data.Images, 1)); !reflect.DeepEqual(got, want) {
		t.Fatal("seeded dispatch labels diverge from reference")
	}
	wantKernel := [][]int64{{seed(0), seed(1), seed(2), seed(3)}, {seed(4), seed(5), seed(6), seed(7)}}
	if !reflect.DeepEqual(s.kernel, wantKernel) {
		t.Errorf("kernel seeds = %v, want %v", s.kernel, wantKernel)
	}
	if !reflect.DeepEqual(s.clones, []int64{seed(8)}) {
		t.Errorf("tail clone seeds = %v, want [chunk 8's]", s.clones)
	}
	if c := rec.CounterValues(); c[MetricSlicedGroups] != 2 || c[MetricEvalImages] != 130 {
		t.Errorf("group accounting wrong: %v", c)
	}

	refusing := &stubSeeded{base: net, refuse: true}
	rec = obs.New()
	if got := batchLabels(t, PredictBatchObs(rec, refusing, data.Images, 1)); !reflect.DeepEqual(got, want) {
		t.Fatal("refused-group labels diverge from reference")
	}
	var all []int64
	for chunk := 0; chunk <= 8; chunk++ {
		all = append(all, seed(chunk))
	}
	if !reflect.DeepEqual(refusing.clones, all) {
		t.Errorf("fallback clone seeds = %v, want chunks 0..8's", refusing.clones)
	}
	if c := rec.CounterValues(); c[MetricSlicedFallbacks] != 2 || c[MetricSlicedGroups] != 0 {
		t.Errorf("refusal accounting wrong: %v", c)
	}
}
