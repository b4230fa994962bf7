package nn

import "sei/internal/par"

// ParallelClassifier is a Classifier whose evaluation can be spread
// across goroutines: CloneForEval hands out a classifier for
// exclusive use by one goroutine. seed re-seeds any internal
// stochastic state (e.g. RRAM read noise) from the engine's per-chunk
// seeding scheme; noise-free evaluators ignore it and may return the
// receiver when Predict is already read-only.
type ParallelClassifier interface {
	Classifier
	CloneForEval(seed int64) Classifier
}

// evalSeedBase anchors the per-chunk noise streams of dataset
// evaluation. It is a fixed constant so evaluation results are
// reproducible run to run and independent of the worker count (the
// chunk grid depends only on the dataset size).
const evalSeedBase int64 = 0x5E1C0DE

// chunkEvaluator returns the classifier engine chunk index should
// use: a goroutine-exclusive clone when the classifier supports it,
// the shared classifier itself otherwise (in which case the caller
// must have forced the serial path).
func chunkEvaluator(c Classifier, index int) Classifier {
	if pc, ok := c.(ParallelClassifier); ok {
		return pc.CloneForEval(par.ChunkSeed(evalSeedBase, index))
	}
	return c
}

// evalWorkers resolves the worker count for a classifier: classifiers
// that cannot hand out clones are evaluated serially regardless of
// the requested parallelism.
func evalWorkers(c Classifier, workers int) int {
	if _, ok := c.(ParallelClassifier); !ok {
		return 1
	}
	return par.Resolve(workers)
}
