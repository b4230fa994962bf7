package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/power"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

// slotTime is the length of one measuring slot. The timed part of a
// run alternates short slots of each phase (and, in a traced run,
// untraced and traced slots) so that every metric samples the whole
// run: a 2-vCPU VM's speed drifts by up to 30% over seconds, and
// phases run back to back would each catch a different part of the
// drift.
const slotTime = 250 * time.Millisecond

// minSlotCalls is the fewest Predict calls a latency slot makes, so
// that each slot's p99 rests on at least ten slower calls.
const minSlotCalls = 1000

// offlineSamples accumulates the measurements of one kind of slot.
type offlineSamples struct {
	rates    []float64          // images/s of each throughput round
	p50, p99 []float64          // ms, of each latency slot
	images   int64              // images classified by throughput rounds
	alloc    uint64             // bytes allocated during throughput slots (traced runs)
	res      []nn.PredictResult // the rounds' result buffer, reused
}

// slotTarget is what a slot runs on: the design itself, or (traced)
// its timedDesign with the tracers of each phase and a recorder for
// nn's counters.
type slotTarget struct {
	c      nn.Classifier
	td     *timedDesign
	tb, tp *tracer
	rec    *obs.Recorder
}

// use points the timedDesign (if any) at tr; nil stops recording.
func (t slotTarget) use(tr *tracer) {
	if t.td != nil {
		t.td.tr.Store(tr)
	}
}

// runOffline checks the design, measures its energy, then times
// alternating slots of throughput rounds (nn.PredictBatchInto over
// every test image) and closed-loop nn.Predict calls (latency).
func (b *bench) runOffline(d *seicore.SEIDesign, test *mnist.Dataset) error {
	imgs := test.Images
	if err := b.checkOffline(d, imgs[:min(checkImages, len(imgs))]); err != nil {
		return err
	}
	want, err := b.energyPass(d, test)
	if err != nil {
		return err
	}
	// Untimed warm-up: one pass of each phase's call.
	nn.PredictBatchInto(nil, d, imgs, 1, nil)
	for _, img := range imgs[:min(256, len(imgs))] {
		nn.Predict(d, img)
	}
	noisy := b.w.opt.noiseSigma > 0
	plainT := slotTarget{c: d}
	var tracedT slotTarget
	if b.traced {
		td := newTimedDesign(d)
		tracedT = slotTarget{c: td, td: td, tb: newTracer("batch"), tp: newTracer("predict"), rec: obs.New()}
		b.phases = append(b.phases, tracedT.tb, tracedT.tp)
	}
	var plain, traced offlineSamples
	cursor := 0
	runtime.GC()
	for deadline := time.Now().Add(b.phase(1)); len(plain.rates) == 0 || time.Now().Before(deadline); {
		if !b.offlineSlot(plainT, imgs, want, noisy, &plain, &cursor) ||
			b.traced && !b.offlineSlot(tracedT, imgs, want, noisy, &traced, &cursor) {
			break
		}
	}
	if !b.traced {
		b.set("images_per_s", median(plain.rates))
		b.set("latency_p50_ms", median(plain.p50))
		b.set("latency_p99_ms", median(plain.p99))
		fmt.Fprintf(b.log, "perfbench: %.0f images/s over %d rounds; Predict p50 %.4f ms, p99 %.4f ms over %d slots\n",
			median(plain.rates), len(plain.rates), median(plain.p50), median(plain.p99), len(plain.p99))
		return nil
	}

	tb, tp := tracedT.tb, tracedT.tp
	b.set("seibench.trace_overhead", median(plain.rates)/median(traced.rates)-1)
	b.set("runtime.alloc_bytes_per_image", float64(plain.alloc)/float64(plain.images))
	nnShare, engShare := offlineShares(tb)
	b.set("nn.self_share", nnShare)
	b.set("seicore.self_share", engShare)
	b.set("serve.self_share", 0)
	b.set("seibench.self_share", 0)
	engNS, engImages := tb.engineTotals()
	b.set("seicore.us_per_image", b.atRef(float64(engNS)/1e3/float64(max(engImages, 1))))
	c := tracedT.rec.CounterValues()
	b.set("nn.sliced_image_share", float64(c[nn.MetricSlicedGroups]*nn.SlicedGroupSize)/float64(max(c[nn.MetricEvalImages], 1)))
	b.set("nn.sliced_fallbacks", float64(c[nn.MetricSlicedFallbacks]))
	calls, ns, _ := tp.enginePredict.total()
	b.set("seicore.predict_us", b.atRef(float64(ns)/1e3/float64(max(calls, 1))))
	b.setServeLayerZero()
	fmt.Fprintf(b.log, "perfbench: traced rounds %.0f vs %.0f images/s untraced; self time nn %.1f%%, seicore %.1f%%\n",
		median(traced.rates), median(plain.rates), 100*nnShare, 100*engShare)
	return nil
}

// offlineSlot runs one throughput slot and one latency slot on t and
// adds their measurements, at reference host speed, to s. It reports
// false once a label was wrong (the run is then incorrect and stops
// measuring).
func (b *bench) offlineSlot(t slotTarget, imgs []*tensor.Tensor, want []int, noisy bool, s *offlineSamples, cursor *int) bool {
	h0 := hostSpeed()
	first := len(s.rates)
	var m0, m1 runtime.MemStats
	if b.traced {
		runtime.ReadMemStats(&m0)
	}
	t.use(t.tb)
	start := time.Now()
	ok := b.batchRounds(t, imgs, want, s)
	mid := time.Now()
	t.use(nil)
	if b.traced {
		runtime.ReadMemStats(&m1)
		s.alloc += m1.TotalAlloc - m0.TotalAlloc
	}
	if !ok {
		return false
	}
	t.use(t.tp)
	lat, ok := b.predictCalls(t, imgs, want, noisy, cursor)
	t.use(nil)
	if t.tb != nil {
		t.tb.wall += mid.Sub(start)
		t.tp.wall += time.Since(mid)
	}
	h := b.speed(h0, hostSpeed())
	for i := first; i < len(s.rates); i++ {
		s.rates[i] /= h
	}
	s.p50 = append(s.p50, h*quantile(lat, 0.50))
	s.p99 = append(s.p99, h*quantile(lat, 0.99))
	return ok
}

// setServeLayerZero reports the serve-only metrics of a workload that
// bypasses serve.
func (b *bench) setServeLayerZero() {
	for _, name := range []string{"serve.server_p50_share", "serve.server_p99_share", "serve.compute_busy_share",
		"serve.batch_size_mean", "serve.max_rps", "serve.rejected", "seibench.late_requests"} {
		b.set(name, 0)
	}
}

// batchRounds runs throughput rounds — one nn.PredictBatchInto over
// every image per round — for at least one slot, adding each round's
// images/s to s. Labels must equal want.
func (b *bench) batchRounds(t slotTarget, imgs []*tensor.Tensor, want []int, s *offlineSamples) bool {
	for end, first := time.Now().Add(slotTime), true; first || time.Now().Before(end); first = false {
		start := time.Now()
		s.res = nn.PredictBatchInto(t.rec, t.c, imgs, 1, s.res)
		el := time.Since(start)
		if t.tb != nil {
			t.tb.record(&t.tb.nnBatch, start, 0, int64(len(imgs)))
		}
		s.rates = append(s.rates, float64(len(imgs))/el.Seconds())
		s.images += int64(len(imgs))
		b.res.attempted += int64(len(s.res))
		for i, r := range s.res {
			switch {
			case r.Err != nil:
				b.res.failed++
			case r.Label != want[i]:
				b.res.fail(b.log, "round label of image %d is %d, want %d", i, r.Label, want[i])
				return false
			}
		}
	}
	return true
}

// predictCalls calls nn.Predict closed-loop, continuing from *cursor
// through the images, for at least one slot and minSlotCalls calls; it
// returns each call's latency in ms. Labels must equal want, except on
// noisy designs, whose shared noise stream advances with every call:
// there a label need only be a class.
func (b *bench) predictCalls(t slotTarget, imgs []*tensor.Tensor, want []int, noisy bool, cursor *int) ([]float64, bool) {
	lat := make([]float64, 0, 4*minSlotCalls)
	now := time.Now()
	end := now.Add(slotTime)
	for len(lat) < minSlotCalls || now.Before(end) {
		k := *cursor % len(imgs)
		*cursor++
		start := time.Now()
		label, err := nn.Predict(t.c, imgs[k])
		now = time.Now()
		if t.tp != nil {
			t.tp.nnPredict.add(span{start: t.tp.since(start), end: t.tp.since(now), images: 1})
		}
		lat = append(lat, float64(now.Sub(start))/1e6)
		b.res.attempted++
		switch {
		case err != nil:
			b.res.failed++
		case noisy && (label < 0 || label >= mnist.NumClasses), !noisy && label != want[k]:
			b.res.fail(b.log, "Predict label of image %d is %d, want %d", k, label, want[k])
			return lat, false
		}
	}
	return lat, true
}

// checkOffline runs the workload's exactness checks on a subset before
// anything is timed.
func (b *bench) checkOffline(d *seicore.SEIDesign, sub []*tensor.Tensor) error {
	switch {
	case b.w.opt.noiseSigma > 0:
		// The packed noisy kernel must replay the float evaluator: same
		// labels, same noise draws.
		packed, packedDraws, err := noisyLabels(d, sub)
		if err != nil {
			return err
		}
		d.SetFastPath(false)
		float, floatDraws, err := noisyLabels(d, sub)
		d.SetFastPath(true)
		if err != nil {
			return err
		}
		if i := firstMismatch(packed, float); i >= 0 {
			b.res.fail(b.log, "packed noisy label of image %d differs from the float path", i)
		}
		if packedDraws != floatDraws || packedDraws == 0 {
			b.res.fail(b.log, "noise draws: packed %d, float %d", packedDraws, floatDraws)
		}
	case b.w.opt.bounded:
		// Bounds may skip work, never change a label.
		batch, err := predictLabels(d, sub)
		if err != nil {
			return err
		}
		single := perImageLabels(d, sub)
		d.SetBounded(false)
		unbounded, err := predictLabels(d, sub)
		d.SetBounded(true)
		if err != nil {
			return err
		}
		if i := firstMismatch(batch, unbounded); i >= 0 {
			b.res.fail(b.log, "bounded batch label of image %d differs from unbounded", i)
		}
		if i := firstMismatch(single, unbounded); i >= 0 {
			b.res.fail(b.log, "bounded Predict label of image %d differs from unbounded", i)
		}
	default:
		// Sliced batch, per-image fast path and float path agree.
		batch, err := predictLabels(d, sub)
		if err != nil {
			return err
		}
		single := perImageLabels(d, sub)
		d.SetFastPath(false)
		float, err := predictLabels(d, sub)
		d.SetFastPath(true)
		if err != nil {
			return err
		}
		if i := firstMismatch(batch, single); i >= 0 {
			b.res.fail(b.log, "batch label of image %d differs from Predict", i)
		}
		if i := firstMismatch(single, float); i >= 0 {
			b.res.fail(b.log, "Predict label of image %d differs from the float path", i)
		}
	}
	return nil
}

// noisyLabels classifies on the chunked engine with a recorder and
// returns the labels and the noise draws consumed.
func noisyLabels(d *seicore.SEIDesign, imgs []*tensor.Tensor) ([]int, int64, error) {
	rec := obs.New()
	d.Instrument(rec)
	defer d.Instrument(nil)
	res := nn.PredictBatchObs(rec, d, imgs, 1)
	labels := make([]int, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, 0, fmt.Errorf("noisy image %d: %w", i, r.Err)
		}
		labels[i] = r.Label
	}
	return labels, rec.CounterValues()[obs.SEINoiseDraws], nil
}

// perImageLabels classifies one nn.Predict call per image (-1 on
// error, which never equals a label).
func perImageLabels(c nn.Classifier, imgs []*tensor.Tensor) []int {
	labels := make([]int, len(imgs))
	for i, img := range imgs {
		l, err := nn.Predict(c, img)
		if err != nil {
			l = -1
		}
		labels[i] = l
	}
	return labels
}

// energyPass classifies data once with hardware counters on and
// derives the simulated statistics: pJ per inference and its power
// components, work per image, error rate and the digest of labels and
// counter totals. It returns the labels every later pass must match.
func (b *bench) energyPass(d *seicore.SEIDesign, data *mnist.Dataset) ([]int, error) {
	rec := obs.New()
	d.Instrument(rec)
	res := nn.PredictBatchObs(rec, d, data.Images, 1)
	d.Instrument(nil)
	rec.PublishSkipRates()
	rep := rec.Report(b.w.name)
	labels := make([]int, len(res))
	wrong := 0
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("energy pass image %d: %w", i, r.Err)
		}
		labels[i] = r.Label
		if r.Label != data.Labels[i] {
			wrong++
		}
	}
	n := rep.Counters[nn.MetricEvalImages]
	if n != int64(len(res)) {
		return nil, fmt.Errorf("energy pass counted %d images, classified %d", n, len(res))
	}
	lib := power.DefaultLibrary()
	e, err := power.EnergyFromCounters(rep, lib)
	if err != nil {
		return nil, err
	}
	pj, err := power.EnergyPerInferencePJ(rep, lib, n)
	if err != nil {
		return nil, err
	}
	// The components this join produces must add up to the total the
	// per-inference figure divides, bit for bit.
	if sum := e.RRAM + e.SA + e.Digital + e.Driver; sum != e.Total() || pj != sum/float64(n) {
		b.res.fail(b.log, "power components sum to %v pJ, total %v pJ, per inference %v", sum, e.Total(), pj)
	}
	per := func(v float64) float64 { return v / float64(n) }
	b.set("pj_per_inference", pj)
	b.set("power.sa_pj", per(e.SA))
	b.set("power.rram_pj", per(e.RRAM))
	b.set("power.driver_pj", per(e.Driver))
	b.set("power.digital_pj", per(e.Digital))
	b.set("nn.error_rate", float64(wrong)/float64(n))
	ctr := rep.Counters
	perCount := func(name string) float64 { return per(float64(ctr[name])) }
	b.set("seicore.mvm_ops", perCount(obs.HWMVMOps))
	b.set("seicore.sa_compares", perCount(obs.HWSAComparisons))
	b.set("seicore.column_activations", perCount(obs.HWColumnActivations))
	b.set("seicore.active_inputs", perCount(obs.HWActiveInputs))
	b.set("quant.orpool_reductions", perCount(obs.HWORPoolReductions))
	b.set("seicore.rows_driven.stage0", perCount(obs.SEIRowsDriven+"_stage0"))
	b.set("seicore.rows_driven.stage1", perCount(obs.SEIRowsDriven+"_stage1"))
	b.set("seicore.rows_skipped.stage1", perCount(obs.SEIRowsSkipped+"_stage1"))
	b.set("seicore.cols_early_exit.stage1", perCount(obs.SEIColsEarlyExit+"_stage1"))
	b.set("seicore.bound_evals", perCount(obs.SEIBoundEvals))
	b.set("seicore.skip_rate", rep.Gauges[obs.SEISkipRate])
	b.set("seicore.noise_draws", perCount(obs.SEINoiseDraws))
	b.res.digest = digest(labels, ctr)
	fmt.Fprintf(b.log, "perfbench: %.1f pJ/inference, error %.4f over %d images\n", pj, float64(wrong)/float64(n), n)
	return labels, nil
}

// digest hashes labels and every hw_/sei_ counter total, so two runs
// of one seed on two commits can show that no simulated statistic
// moved.
func digest(labels []int, counters map[string]int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	var names []string
	for name := range counters {
		if strings.HasPrefix(name, "hw_") || strings.HasPrefix(name, "sei_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, counters[name])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
