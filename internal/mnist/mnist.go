// Package mnist provides the handwritten-digit workload the paper
// evaluates on (LeCun's MNIST database, 28×28 grayscale, 10 classes).
//
// The offline build environment has no MNIST files, so the package
// ships a deterministic procedural generator (see generator.go) that
// renders stroke-based digit glyphs with random affine distortion,
// stroke jitter and pixel noise. The resulting task has the properties
// the paper's methods depend on: 10-way classification of 28×28
// images whose trained-CNN activations show the long-tail,
// mostly-zero distribution of Table 1. An IDX-format reader
// (idx.go) loads the real database when its files are present, so the
// same pipelines run unchanged on true MNIST.
package mnist

import (
	"fmt"
	"math/rand"

	"sei/internal/tensor"
)

// Side is the image edge length in pixels; images are Side×Side.
const Side = 28

// NumClasses is the number of digit classes.
const NumClasses = 10

// Dataset is a labelled set of single-channel images. Images[i] has
// shape [1, Side, Side] with pixel values in [0, 1].
type Dataset struct {
	Images []*tensor.Tensor
	Labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Images) }

// Subset returns a view of the first n samples. n is clamped to the
// dataset length.
func (d *Dataset) Subset(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	return &Dataset{Images: d.Images[:n], Labels: d.Labels[:n]}
}

// Shuffle permutes the samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(d.Len(), func(i, j int) {
		d.Images[i], d.Images[j] = d.Images[j], d.Images[i]
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	})
}

// ClassCounts returns how many samples each label has.
func (d *Dataset) ClassCounts() [NumClasses]int {
	var c [NumClasses]int
	for _, l := range d.Labels {
		c[l]++
	}
	return c
}

// Validate checks the structural invariants of the dataset: matching
// image/label counts, correct image shapes, labels in range, and pixel
// values in [0, 1]. It returns the first violation found.
func (d *Dataset) Validate() error {
	if len(d.Images) != len(d.Labels) {
		return fmt.Errorf("mnist: %d images but %d labels", len(d.Images), len(d.Labels))
	}
	for i, img := range d.Images {
		s := img.Shape()
		if len(s) != 3 || s[0] != 1 || s[1] != Side || s[2] != Side {
			return fmt.Errorf("mnist: image %d has shape %v, want [1 %d %d]", i, s, Side, Side)
		}
		if d.Labels[i] < 0 || d.Labels[i] >= NumClasses {
			return fmt.Errorf("mnist: label %d out of range: %d", i, d.Labels[i])
		}
		if img.Min() < 0 || img.Max() > 1 {
			return fmt.Errorf("mnist: image %d pixels outside [0,1]: min=%g max=%g", i, img.Min(), img.Max())
		}
	}
	return nil
}
