package nn

import (
	"errors"
	"fmt"
	"math"

	"sei/internal/mnist"
	"sei/internal/obs"
	"sei/internal/par"
	"sei/internal/tensor"
)

// ErrBadInput marks a prediction rejected because of a malformed image:
// wrong shape, non-finite pixels, or input-dependent evaluator state
// the layers cannot digest (surfaced as a recovered panic). Callers
// match it with errors.Is and map it to a client error, never a crash.
var ErrBadInput = errors.New("nn: bad input")

// MetricPredictPanics counts evaluator panics contained by the batch
// predict path — each one is a would-have-been process death.
const MetricPredictPanics = "predict_panics"

// SlicedGroupSize is the lane width of the bit-sliced batch path: one
// machine word holds the same activation bit for this many images, so
// full groups of this size go through one packed forward pass.
const SlicedGroupSize = 64

// MetricSlicedGroups counts full 64-image groups classified by one
// bit-sliced pass; MetricSlicedFallbacks counts groups that dropped
// back to per-image prediction (an invalid image in the group, a
// refused kernel, or a contained panic).
const (
	MetricSlicedGroups    = "predict_sliced_groups"
	MetricSlicedFallbacks = "predict_sliced_fallbacks"
)

// SlicedBatchPredictor is a Classifier with a bit-sliced batch kernel:
// PredictBatchSliced classifies up to SlicedGroupSize images in one
// lane-parallel pass, bit-identical to per-image Predict calls, or
// reports false to make the caller fall back per-image. The kernel
// must be safe for concurrent use — eligibility implies a
// deterministic, noise-free evaluator.
type SlicedBatchPredictor interface {
	Classifier
	SlicedBatchEligible() bool
	PredictBatchSliced(imgs []*tensor.Tensor, out []PredictResult) bool
}

// PredictResult is one image's outcome in a batch: a label, or an error
// (in which case Label is -1).
type PredictResult struct {
	Label int
	Err   error
}

// ValidateImage checks that an image is structurally evaluable by the
// paper's networks: non-nil, single-channel Side×Side, with finite
// pixels. Violations return an ErrBadInput-wrapped error. This is the
// gate the serving path applies before an image reaches layer code
// whose shape checks panic.
func ValidateImage(img *tensor.Tensor) error {
	if img == nil {
		return fmt.Errorf("%w: nil image", ErrBadInput)
	}
	// Dimension checks go through Dims/Dim, not Shape(): Shape copies its
	// slice, and this validator runs per image on allocation-free paths.
	if img.Dims() != 3 || img.Dim(0) != 1 || img.Dim(1) != mnist.Side || img.Dim(2) != mnist.Side {
		return fmt.Errorf("%w: image shape %v, want [1 %d %d]", ErrBadInput, img.Shape(), mnist.Side, mnist.Side)
	}
	for i, v := range img.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite pixel %v at index %d", ErrBadInput, v, i)
		}
	}
	return nil
}

// safePredict evaluates one image with panic containment: a malformed
// input is rejected up front, and any panic escaping the layer stack
// (shape checks, index arithmetic on unexpected geometry) comes back as
// an ErrBadInput-wrapped error instead of killing the process.
func safePredict(c Classifier, img *tensor.Tensor, rec *obs.Recorder) (res PredictResult) {
	defer func() {
		if r := recover(); r != nil {
			rec.Counter(MetricPredictPanics).Add(1)
			res = PredictResult{Label: -1, Err: fmt.Errorf("%w: evaluator panic: %v", ErrBadInput, r)}
		}
	}()
	if err := ValidateImage(img); err != nil {
		return PredictResult{Label: -1, Err: err}
	}
	return PredictResult{Label: c.Predict(img)}
}

// Predict classifies one image with validation and panic containment
// (see PredictBatch for the batch form and its determinism contract).
func Predict(c Classifier, img *tensor.Tensor) (int, error) {
	res := safePredict(c, img, nil)
	return res.Label, res.Err
}

// PredictBatch classifies a batch of images on the parallel engine and
// returns one PredictResult per image. It uses the exact chunking and
// per-chunk noise seeding of the error-rate paths, so when imgs is a
// dataset's image slice in dataset order, the labels are bit-identical
// to what ClassifierErrorRate counted — for every worker count and
// batch size. Malformed images and recovered evaluator panics produce
// per-image ErrBadInput errors; valid neighbours in the same batch are
// unaffected.
func PredictBatch(c Classifier, imgs []*tensor.Tensor, workers int) []PredictResult {
	return PredictBatchObs(nil, c, imgs, workers)
}

// PredictBatchObs is PredictBatch with instrumentation: engine
// scheduling counters, the eval_images sharded counter, and
// predict_panics on rec. A nil rec records nothing.
func PredictBatchObs(rec *obs.Recorder, c Classifier, imgs []*tensor.Tensor, workers int) []PredictResult {
	return PredictBatchInto(rec, c, imgs, workers, nil)
}

// PredictBatchInto is PredictBatchObs writing its results into dst,
// which is grown only when its capacity is insufficient — a serving
// loop can reuse one result buffer across flushes instead of
// allocating per batch. Every slot in the returned slice is
// overwritten. Returns dst resliced to len(imgs).
func PredictBatchInto(rec *obs.Recorder, c Classifier, imgs []*tensor.Tensor, workers int, dst []PredictResult) []PredictResult {
	w := evalWorkers(c, workers)
	n := len(imgs)
	if cap(dst) < n {
		dst = make([]PredictResult, n)
	}
	out := dst[:n]
	if sp, ok := c.(SlicedBatchPredictor); ok && n >= SlicedGroupSize && sp.SlicedBatchEligible() {
		predictBatchSliced(rec, sp, imgs, w, out)
		return out
	}
	predictBatchChunked(rec, c, imgs, w, out)
	return out
}

// predictBatchChunked is the per-image engine: fixed-size chunks,
// per-chunk evaluator clones with seeded noise streams — the only
// path noisy designs ever take. Whether a noisy clone then evaluates
// on the float path or the packed walker (seicore fast.go) is the
// design's own dispatch decision; the chunk
// boundaries and per-chunk seeds here are what make the two paths
// consume identical noise-stream prefixes at every worker count.
func predictBatchChunked(rec *obs.Recorder, c Classifier, imgs []*tensor.Tensor, workers int, out []PredictResult) {
	n := len(imgs)
	sc := rec.Sharded(MetricEvalImages, par.NumChunks(n, par.DefaultChunkSize))
	par.ForEachChunkRec(rec, workers, n, par.DefaultChunkSize, func(ch par.Chunk) {
		sc.Add(ch.Index, int64(ch.Hi-ch.Lo))
		eval := chunkEvaluator(c, ch)
		for i := ch.Lo; i < ch.Hi; i++ {
			out[i] = safePredict(eval, imgs[i], rec)
		}
	})
	sc.Merge()
}

// predictBatchSliced schedules full SlicedGroupSize-image groups, one
// bit-sliced pass each, and sends the ragged tail through the
// per-image engine. Group boundaries depend only on len(imgs), so
// results are bit-identical for every worker count; eligibility
// implies a noise-free evaluator, so no per-chunk seeding is needed.
func predictBatchSliced(rec *obs.Recorder, sp SlicedBatchPredictor, imgs []*tensor.Tensor, workers int, out []PredictResult) {
	n := len(imgs)
	groups := n / SlicedGroupSize
	if par.Resolve(workers) == 1 || groups == 1 {
		// The serial shape runs inline without the chunk closure — it
		// would heap-escape through ForEachChunk and be the only
		// steady-state allocation of a warm sliced batch.
		par.RecordRegion(rec, groups, 1)
		for g := 0; g < groups; g++ {
			lo := g * SlicedGroupSize
			slicedGroup(rec, sp, imgs[lo:lo+SlicedGroupSize], out[lo:lo+SlicedGroupSize])
		}
	} else {
		par.ForEachChunkRec(rec, workers, groups, 1, func(ch par.Chunk) {
			for g := ch.Lo; g < ch.Hi; g++ {
				lo := g * SlicedGroupSize
				slicedGroup(rec, sp, imgs[lo:lo+SlicedGroupSize], out[lo:lo+SlicedGroupSize])
			}
		})
	}
	if lo := groups * SlicedGroupSize; lo < n {
		predictBatchChunked(rec, sp, imgs[lo:], workers, out[lo:])
	}
}

// slicedGroup classifies one full group with the sliced kernel,
// falling back to per-image prediction — which isolates per-image
// errors exactly like any other batch — when the group contains an
// invalid image or the kernel refuses or panics.
func slicedGroup(rec *obs.Recorder, sp SlicedBatchPredictor, imgs []*tensor.Tensor, out []PredictResult) {
	valid := true
	for _, img := range imgs {
		if ValidateImage(img) != nil {
			valid = false
			break
		}
	}
	if valid && runSlicedGroup(sp, imgs, out) {
		rec.Counter(MetricEvalImages).Add(int64(len(imgs)))
		rec.Counter(MetricSlicedGroups).Add(1)
		return
	}
	rec.Counter(MetricSlicedFallbacks).Add(1)
	rec.Counter(MetricEvalImages).Add(int64(len(imgs)))
	for i, img := range imgs {
		out[i] = safePredict(sp, img, rec)
	}
}

// runSlicedGroup invokes the kernel with panic containment: a panic
// mid-pass reports false (the per-image fallback then overwrites every
// slot and surfaces per-image errors).
func runSlicedGroup(sp SlicedBatchPredictor, imgs []*tensor.Tensor, out []PredictResult) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return sp.PredictBatchSliced(imgs, out)
}
