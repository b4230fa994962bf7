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

// MetricEvalImages counts images classified by the batch predict path.
// It is added once per chunked batch and once per sliced group, so the
// total — like the labels themselves — is identical for every worker
// count.
const MetricEvalImages = "eval_images"

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
// deterministic, noise-free evaluator. Noisy evaluators reach the same
// kernel through SeededBatchPredictor.
type SlicedBatchPredictor interface {
	Classifier
	SlicedBatchEligible() bool
	PredictBatchSliced(imgs []*tensor.Tensor, out []PredictResult) bool
}

// SeededBatchPredictor is a ParallelClassifier whose noisy evaluation
// also has a bit-sliced batch kernel. PredictBatchSeeded classifies up
// to SlicedGroupSize images in one lane-parallel pass. The group's
// images are chunk-aligned: image i belongs to the
// par.DefaultChunkSize-image chunk i/par.DefaultChunkSize, and
// seeds[j] is the seed CloneForEval would get for chunk j. Each lane
// replays the noise its chunk's clone draws, so labels, counters and
// draw totals equal the chunked engine's bit for bit. The kernel
// reports false, leaving out untouched, to make the caller fall back
// to the chunked engine, and must be safe for concurrent use.
type SeededBatchPredictor interface {
	ParallelClassifier
	SeededBatchEligible() bool
	PredictBatchSeeded(imgs []*tensor.Tensor, seeds []int64, out []PredictResult) bool
}

// chunksPerGroup is how many engine chunks one sliced group spans: the
// groups of a batch start on chunk boundaries, so a group's fallback
// and a seeded group replay the chunked engine's per-chunk clones.
const chunksPerGroup = SlicedGroupSize / par.DefaultChunkSize

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
// (see PredictBatchObs for the batch form and its determinism
// contract).
func Predict(c Classifier, img *tensor.Tensor) (int, error) {
	res := safePredict(c, img, nil)
	return res.Label, res.Err
}

// PredictBatchObs classifies a batch of images on the parallel engine
// and returns one PredictResult per image. Chunk boundaries, per-chunk
// noise seeds and sliced groups depend only on len(imgs), so labels
// are bit-identical for every worker count — the contract ErrorRate
// and the serving path share. Malformed images and
// recovered evaluator panics produce per-image ErrBadInput errors;
// valid neighbours in the same batch are unaffected. rec gets engine
// scheduling counters, eval_images and predict_panics; a nil rec
// records nothing.
func PredictBatchObs(rec *obs.Recorder, c Classifier, imgs []*tensor.Tensor, workers int) []PredictResult {
	return PredictBatchInto(rec, c, imgs, workers, nil)
}

// ErrorRate returns the fraction of data's images c misclassifies: a
// fold over PredictBatchObs's labels, so every error rate takes the
// served path and is bit-identical for every worker count (0 = all
// cores, 1 = the serial path). An image that fails validation or
// panics the evaluator counts as wrong.
func ErrorRate(rec *obs.Recorder, c Classifier, data *mnist.Dataset, workers int) float64 {
	wrong := 0
	for i, r := range PredictBatchObs(rec, c, data.Images, workers) {
		if r.Label != data.Labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(data.Len())
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
	if n >= SlicedGroupSize {
		if sp, ok := c.(SlicedBatchPredictor); ok && sp.SlicedBatchEligible() {
			predictBatchSliced(rec, c, groupKernel{sliced: sp}, imgs, w, out)
			return out
		}
		if sp, ok := c.(SeededBatchPredictor); ok && sp.SeededBatchEligible() {
			seeds := make([]int64, n/SlicedGroupSize*chunksPerGroup)
			for j := range seeds {
				seeds[j] = par.ChunkSeed(evalSeedBase, j)
			}
			predictBatchSliced(rec, c, groupKernel{seeded: sp, seeds: seeds}, imgs, w, out)
			return out
		}
	}
	predictBatchChunked(rec, c, imgs, w, out, 0)
	return out
}

// predictBatchChunked is the per-image engine: fixed-size chunks,
// per-chunk evaluator clones with seeded noise streams. first is the
// engine chunk index of imgs[0], so a batch's tail keeps the seeds its
// chunks have in the whole batch. Whether a noisy clone then evaluates
// on the float path or the packed walker (seicore fast.go) is the
// design's own dispatch decision; the chunk boundaries and per-chunk
// seeds here are what make the paths consume identical noise-stream
// prefixes at every worker count.
func predictBatchChunked(rec *obs.Recorder, c Classifier, imgs []*tensor.Tensor, workers int, out []PredictResult, first int) {
	n := len(imgs)
	par.ForEachChunkRec(rec, workers, n, par.DefaultChunkSize, func(ch par.Chunk) {
		eval := chunkEvaluator(c, first+ch.Index)
		for i := ch.Lo; i < ch.Hi; i++ {
			out[i] = safePredict(eval, imgs[i], rec)
		}
	})
	rec.Counter(MetricEvalImages).Add(int64(n))
}

// groupKernel is the 64-lane kernel one batch runs: the noise-free
// sliced kernel, or the seeded one with the seeds of every chunk the
// batch's full groups cover.
type groupKernel struct {
	sliced SlicedBatchPredictor
	seeded SeededBatchPredictor
	seeds  []int64
}

// run classifies group g of the batch, imgs and out being its slices.
func (k groupKernel) run(g int, imgs []*tensor.Tensor, out []PredictResult) bool {
	if k.seeded != nil {
		return k.seeded.PredictBatchSeeded(imgs, k.seeds[g*chunksPerGroup:(g+1)*chunksPerGroup], out)
	}
	return k.sliced.PredictBatchSliced(imgs, out)
}

// predictBatchSliced schedules full SlicedGroupSize-image groups, one
// bit-sliced pass each, and sends the ragged tail through the
// per-image engine at the chunk index after the last group. Group
// boundaries depend only on len(imgs) and fall on chunk boundaries, so
// results are bit-identical for every worker count and equal the
// chunked engine's, noisy designs included.
func predictBatchSliced(rec *obs.Recorder, c Classifier, k groupKernel, imgs []*tensor.Tensor, workers int, out []PredictResult) {
	n := len(imgs)
	groups := n / SlicedGroupSize
	if par.Resolve(workers) == 1 || groups == 1 {
		// The serial shape runs inline without the chunk closure — it
		// would heap-escape through ForEachChunk and be the only
		// steady-state allocation of a warm sliced batch.
		par.RecordRegion(rec, groups, 1)
		for g := 0; g < groups; g++ {
			slicedGroup(rec, c, k, g, imgs, out)
		}
	} else {
		par.ForEachChunkRec(rec, workers, groups, 1, func(ch par.Chunk) {
			for g := ch.Lo; g < ch.Hi; g++ {
				slicedGroup(rec, c, k, g, imgs, out)
			}
		})
	}
	if lo := groups * SlicedGroupSize; lo < n {
		predictBatchChunked(rec, c, imgs[lo:], workers, out[lo:], groups*chunksPerGroup)
	}
}

// slicedGroup classifies group g of the batch with the group kernel,
// falling back to the chunked engine's per-image prediction — which
// isolates per-image errors exactly like any other batch, and replays
// the group's per-chunk clones — when the group contains an invalid
// image or the kernel refuses or panics.
func slicedGroup(rec *obs.Recorder, c Classifier, k groupKernel, g int, imgs []*tensor.Tensor, out []PredictResult) {
	lo := g * SlicedGroupSize
	imgs, out = imgs[lo:lo+SlicedGroupSize], out[lo:lo+SlicedGroupSize]
	valid := true
	for _, img := range imgs {
		if ValidateImage(img) != nil {
			valid = false
			break
		}
	}
	if valid && runSlicedGroup(k, g, imgs, out) {
		rec.Counter(MetricEvalImages).Add(int64(len(imgs)))
		rec.Counter(MetricSlicedGroups).Add(1)
		return
	}
	rec.Counter(MetricSlicedFallbacks).Add(1)
	rec.Counter(MetricEvalImages).Add(int64(len(imgs)))
	for j := 0; j < chunksPerGroup; j++ {
		eval := chunkEvaluator(c, g*chunksPerGroup+j)
		for i := j * par.DefaultChunkSize; i < (j+1)*par.DefaultChunkSize; i++ {
			out[i] = safePredict(eval, imgs[i], rec)
		}
	}
}

// runSlicedGroup invokes the kernel with panic containment: a panic
// mid-pass reports false (the per-image fallback then overwrites every
// slot and surfaces per-image errors).
func runSlicedGroup(k groupKernel, g int, imgs []*tensor.Tensor, out []PredictResult) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return k.run(g, imgs, out)
}
