package seicore

import (
	"sei/internal/nn"
	"sei/internal/par"
)

// The SEI simulators carry mutable state only in their read-outs'
// noise sources (readout.go); everything else an Eval touches is
// read-only. Noise-free designs (the default device model) are
// therefore safe to share across goroutines as-is, and noisy designs
// hand out value clones whose noise sources are re-seeded per chunk
// (evalClone) so results stay bit-identical for every worker count.
//
// The bit-packed fast path adds per-goroutine mutable scratch, but it
// never lives on the shared design: Predict borrows an arena from the
// design's sync.Pool (fast.go), so the chunked engine's workers each
// reuse their own scratch across the images of a chunk — per-position
// allocations are gone and CloneForEval can keep returning the shared
// receiver for noise-free designs.

// layerSeed derives layer idx's noise-source seed for one evaluation
// clone. The per-column RNG built on it (rand.New(rand.NewSource)) is
// exactly the stream the pre-per-cell code derived, so existing noisy
// evaluations reproduce bit for bit. Layers are indexed in stage
// order: the input stage 0, then the conv stages, then the FC stage.
func layerSeed(seed int64, idx int) int64 {
	return par.ChunkSeed(seed, idx)
}

// CloneForEval implements nn.ParallelClassifier. Noise-free designs
// are read-only under Predict and return the receiver; noisy designs
// return a clone whose per-layer noise sources are re-seeded from
// seed, so evaluation is deterministic for every worker count.
func (d *SEIDesign) CloneForEval(seed int64) nn.Classifier {
	if !d.anyReadout((*readout).noisy) {
		return d
	}
	clone := *d
	clone.Input = evalClone(d.Input, layerSeed(seed, 0))
	clone.Convs = make([]*SEIConvLayer, len(d.Convs))
	for i, l := range d.Convs {
		clone.Convs[i] = evalClone(l, layerSeed(seed, 1+i))
	}
	clone.FC = evalClone(d.FC, layerSeed(seed, 1+len(d.Convs)))
	return &clone
}

// cloneStages re-seeds an all-merged design's stages and FC stage for
// one evaluation chunk; noisy is false, and nothing is copied, when no
// stage draws noise.
func cloneStages(stages []*MergedLayer, fc *MergedLayer, seed int64) (_ []*MergedLayer, _ *MergedLayer, noisy bool) {
	noisy = fc.noisy()
	for _, l := range stages {
		noisy = noisy || l.noisy()
	}
	if !noisy {
		return stages, fc, false
	}
	clones := make([]*MergedLayer, len(stages))
	for i, l := range stages {
		clones[i] = evalClone(l, layerSeed(seed, i))
	}
	return clones, evalClone(fc, layerSeed(seed, len(stages))), true
}

// CloneForEval implements nn.ParallelClassifier (see SEIDesign).
func (d *MergedDesign) CloneForEval(seed int64) nn.Classifier {
	stages, fc, noisy := cloneStages(d.Stages, d.FC, seed)
	if !noisy {
		return d
	}
	clone := *d
	clone.Stages, clone.FC = stages, fc
	return &clone
}

// CloneForEval implements nn.ParallelClassifier (see SEIDesign).
func (d *FloatDesign) CloneForEval(seed int64) nn.Classifier {
	conv, fc, noisy := cloneStages(d.conv, d.fc, seed)
	if !noisy {
		return d
	}
	clone := *d
	clone.conv, clone.fc = conv, fc
	return &clone
}

var (
	_ nn.ParallelClassifier = (*SEIDesign)(nil)
	_ nn.ParallelClassifier = (*MergedDesign)(nil)
	_ nn.ParallelClassifier = (*FloatDesign)(nil)
)
