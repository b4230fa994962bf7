package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// constClassifier answers every image with a fixed label — the
// cheapest way to tell generations apart.
type constClassifier int

func (c constClassifier) Predict(*tensor.Tensor) int { return int(c) }

// touchDesignFile creates an empty snapshot file so the registry's
// stat check passes; tests pair it with a swapped loadFn, so the file
// contents never matter.
func touchDesignFile(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name+DesignExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryColdLoadDoesNotSerializeOtherGets is the regression test
// for the registry lock held across gob decode: one slow cold load
// must block neither cache hits nor another design's cold load.
func TestRegistryColdLoadDoesNotSerializeOtherGets(t *testing.T) {
	dir := t.TempDir()
	touchDesignFile(t, dir, "slowload")
	touchDesignFile(t, dir, "otherdisk")
	reg := NewRegistry(dir, 0)
	gate := make(chan struct{})
	reg.loadFn = func(path string, _ int64) (nn.Classifier, error) {
		if filepath.Base(path) == "slowload"+DesignExt {
			<-gate // a gob decode that takes forever
		}
		return constClassifier(1), nil
	}
	reg.Register("cached", constClassifier(2))

	slowDone := make(chan error, 1)
	go func() {
		_, err := reg.Get("slowload")
		slowDone <- err
	}()
	// While the slow load is stuck, a cache hit and an unrelated cold
	// load must both complete promptly.
	fast := make(chan error, 2)
	go func() {
		_, err := reg.Get("cached")
		fast <- err
	}()
	go func() {
		_, err := reg.Get("otherdisk")
		fast <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-fast:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an unrelated Get serialized behind a slow cold load")
		}
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow load finished early: %v", err)
	default:
	}
	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestRegistryColdLoadSingleflight pins that concurrent Gets of one
// uncached design share a single decode.
func TestRegistryColdLoadSingleflight(t *testing.T) {
	dir := t.TempDir()
	touchDesignFile(t, dir, "shared")
	reg := NewRegistry(dir, 0)
	var loads atomic.Int64
	gate := make(chan struct{})
	reg.loadFn = func(string, int64) (nn.Classifier, error) {
		loads.Add(1)
		<-gate
		return constClassifier(5), nil
	}
	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := reg.Get("shared")
			if err == nil && c.Predict(nil) != 5 {
				err = fmt.Errorf("wrong classifier")
			}
			errs <- err
		}()
	}
	waitFor(t, func() bool { return loads.Load() == 1 })
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("loadFn called %d times for 8 concurrent Gets, want 1", got)
	}
	// Cached now: another Get must not load again.
	if _, err := reg.Get("shared"); err != nil {
		t.Fatal(err)
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("cache hit reloaded: %d loads", got)
	}
}

// TestPublishGenerationsAndCanaryRouting pins the generation
// lifecycle: full-swap publishes, pinned resolution, the exact
// deterministic canary split, promote and rollback.
func TestPublishGenerationsAndCanaryRouting(t *testing.T) {
	reg := NewRegistry("", 0)
	if gen := reg.Publish("d", constClassifier(3), 1); gen != 1 {
		t.Fatalf("first publish generation = %d, want 1", gen)
	}
	if gen := reg.Publish("d", constClassifier(7), 0.25); gen != 2 {
		t.Fatalf("canary publish generation = %d, want 2", gen)
	}
	d := reg.Lookup("d")
	if got := d.Generations(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("live generations = %v, want [1 2]", got)
	}
	// Pinned resolution addresses each generation exactly.
	for pin, want := range map[int]int{1: 3, 2: 7} {
		c, gen, err := reg.Resolve("d", pin)
		if err != nil || gen != pin || c.Predict(nil) != want {
			t.Fatalf("pin %d: label %v gen %d err %v, want label %d gen %d", pin, c, gen, err, want, pin)
		}
	}
	if _, _, err := reg.Resolve("d", 9); !errors.Is(err, ErrUnknownGeneration) {
		t.Fatalf("pin 9 err = %v, want ErrUnknownGeneration", err)
	}
	// The 0.25 split is deterministic and exact: every 4th unpinned
	// request routes to the new generation.
	newGen := 0
	for i := 0; i < 400; i++ {
		_, gen, err := reg.Resolve("d", 0)
		if err != nil {
			t.Fatal(err)
		}
		if gen == 2 {
			newGen++
		}
	}
	if newGen != 100 {
		t.Fatalf("canary 0.25 routed %d/400 to the new generation, want exactly 100", newGen)
	}
	// Promote: only the new generation stays live.
	if err := reg.SetCanary("d", 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Lookup("d").Generations(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after promote generations = %v, want [2]", got)
	}
	if _, gen, _ := reg.Resolve("d", 0); gen != 2 {
		t.Fatalf("after promote unpinned gen = %d, want 2", gen)
	}
	if err := reg.SetCanary("d", 0.5); !errors.Is(err, ErrNoCanary) {
		t.Fatalf("reweight without canary err = %v, want ErrNoCanary", err)
	}
	// Rollback path: publish a canary then roll it back.
	reg.Publish("d", constClassifier(9), 0.5)
	if err := reg.SetCanary("d", 0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Lookup("d").Generations(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after rollback generations = %v, want [2]", got)
	}
	c, _, _ := reg.Resolve("d", 0)
	if c.Predict(nil) != 7 {
		t.Fatalf("after rollback label = %d, want 7 (old generation)", c.Predict(nil))
	}
	if !reg.Unregister("d") {
		t.Fatal("unregister reported absent design")
	}
	if _, err := reg.Get("d"); !errors.Is(err, ErrUnknownDesign) {
		t.Fatalf("post-unregister err = %v, want ErrUnknownDesign", err)
	}
}

// TestGenerationSwapAtomicUnderConcurrentStream drives a predict
// stream through the HTTP surface while the design swaps generations:
// every response must be wholly one generation's labels — status 200,
// generation ∈ {1,2}, labels matching that generation — with zero
// requests dropped by the swap itself.
func TestGenerationSwapAtomicUnderConcurrentStream(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	reg.Register("swap", constClassifier(3))
	rec := obs.New()
	ts, _ := newTestServer(t, reg,
		BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond, QueueCap: 128, Workers: 2, Obs: rec},
		Options{Obs: rec})

	const clients, perClient = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	sawOld := new(atomic.Int64)
	sawNew := new(atomic.Int64)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				status, pr, err := doPredict(ts.URL, "swap", f.data.Images[:4])
				if err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("request dropped during swap: status %d", status)
					return
				}
				want := -1
				switch pr.Generation {
				case 1:
					want = 3
					sawOld.Add(1)
				case 2:
					want = 7
					sawNew.Add(1)
				default:
					errs <- fmt.Errorf("generation %d, want 1 or 2", pr.Generation)
					return
				}
				for k, r := range pr.Results {
					if r.Label != want {
						errs <- fmt.Errorf("torn response: generation %d image %d label %d, want %d",
							pr.Generation, k, r.Label, want)
						return
					}
				}
			}
		}()
	}
	// Swap mid-stream.
	time.Sleep(10 * time.Millisecond)
	reg.Register("swap", constClassifier(7))
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sawNew.Load() == 0 {
		t.Fatal("no request observed the new generation after the swap")
	}
}

// TestInFlightBatchDrainsOnOldGeneration pins that a batch already
// flushing against generation 1 completes on generation 1's
// classifier even though generation 2 replaced it mid-flight.
func TestInFlightBatchDrainsOnOldGeneration(t *testing.T) {
	f := getFastFixture(t)
	reg := NewRegistry("", 0)
	gate := &gatedClassifier{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	reg.Register("d", gate)
	rec := obs.New()
	b, err := NewBatcher(BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c1, gen1, err := reg.Resolve("d", 0)
	if err != nil || gen1 != 1 {
		t.Fatalf("resolve: gen %d err %v", gen1, err)
	}
	done := make(chan []nn.PredictResult, 1)
	go func() {
		res, err := b.Predict(context.Background(), c1, []*tensor.Tensor{f.data.Images[0]})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	<-gate.entered // flush in progress on generation 1

	// Generation 2 lands while the old batch is mid-flush.
	reg.Register("d", constClassifier(9))
	c2, gen2, err := reg.Resolve("d", 0)
	if err != nil || gen2 != 2 || c2.Predict(nil) != 9 {
		t.Fatalf("post-swap resolve: gen %d err %v", gen2, err)
	}
	close(gate.gate)
	res := <-done
	if len(res) != 1 || res[0].Err != nil || res[0].Label != 0 {
		t.Fatalf("in-flight batch result %+v, want old generation's label 0", res)
	}
	if got := rec.CounterValues()[MetricCanceled]; got != 0 {
		t.Fatalf("serve_canceled = %d, want 0 (swap dropped an in-flight request)", got)
	}
}

// TestRegistryRejectsOtherInputShape: a snapshot built for a 20×20
// input must fail to load — on cold load and on Reload — with an error
// naming the shape, instead of publishing a design whose every
// request would end in a recovered panic.
func TestRegistryRejectsOtherInputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data() {
			w.Data()[i] = rng.NormFloat64()
		}
		return w
	}
	q := &quant.QuantizedNet{
		Convs: []quant.ConvSpec{
			{W: random(2, 1, 5, 5), Stride: 1, PoolSize: 4}, // 20 → 16 → 4
			{W: random(3, 2, 3, 3), Stride: 1, PoolSize: 2}, // 4 → 2 → 1
		},
		FC:         quant.FCSpec{W: random(4, 3), B: make([]float64, 4)},
		Thresholds: []float64{0.5, 0.5},
		InShape:    []int{1, 20, 20},
	}
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.SaveFile(filepath.Join(dir, "small"+DesignExt)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, 1)
	if _, err := reg.Get("small"); err == nil || !strings.Contains(err.Error(), "[1 20 20]") {
		t.Fatalf("cold load error = %v, want one naming shape [1 20 20]", err)
	}
	if _, err := reg.Reload("small", 1); err == nil || !strings.Contains(err.Error(), "[1 20 20]") {
		t.Fatalf("reload error = %v, want one naming shape [1 20 20]", err)
	}
	rec := obs.New()
	ts, _ := newTestServer(t, reg, BatcherConfig{Workers: 1, Obs: rec}, Options{Obs: rec})
	status, _, err := doPredict(ts.URL, "small", []*tensor.Tensor{tensor.New(1, mnist.Side, mnist.Side)})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("predict on a refused design: status %d, want 500", status)
	}
	if got := rec.CounterValues()[nn.MetricPredictPanics]; got != 0 {
		t.Fatalf("predict_panics = %d, want 0", got)
	}
}
