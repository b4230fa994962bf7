package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"sei/internal/mnist"
)

// When $MNIST_DIR holds the real IDX files, NewContext must load them
// instead of synthesizing data. We exercise the path by exporting
// synthetic data in IDX format.
func TestContextLoadsMNISTDir(t *testing.T) {
	dir := t.TempDir()
	train := mnist.Synthetic(60, 77)
	test := mnist.Synthetic(30, 78)
	writePair := func(imgName, lblName string, d *mnist.Dataset) {
		imgF, err := os.Create(filepath.Join(dir, imgName))
		if err != nil {
			t.Fatal(err)
		}
		defer imgF.Close()
		lblF, err := os.Create(filepath.Join(dir, lblName))
		if err != nil {
			t.Fatal(err)
		}
		defer lblF.Close()
		if err := mnist.WriteIDX(d, imgF, lblF); err != nil {
			t.Fatal(err)
		}
	}
	writePair("train-images-idx3-ubyte", "train-labels-idx1-ubyte", train)
	writePair("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", test)

	t.Setenv("MNIST_DIR", dir)
	cfg := QuickConfig()
	cfg.TrainSamples = 50
	cfg.TestSamples = 20
	c := NewContext(cfg)
	if c.Train.Len() != 50 || c.Test.Len() != 20 {
		t.Fatalf("context sizes %d/%d, want 50/20", c.Train.Len(), c.Test.Len())
	}
	// The loaded data must be the IDX-exported samples (shuffled), not
	// fresh synthetic ones: the multiset of labels over the full train
	// file is fixed, so every loaded label must appear in the source.
	if err := c.Train.Validate(); err != nil {
		t.Fatal(err)
	}
	// A model trained on these files must not be reloaded by a run on
	// synthetic data that shares the cache directory, or vice versa.
	cfg.CacheDir = t.TempDir()
	c = NewContext(cfg)
	t.Setenv("MNIST_DIR", "")
	if synth := NewContext(cfg); c.cachePath("net", 2) == synth.cachePath("net", 2) {
		t.Fatalf("MNIST and synthetic contexts share the cache file %s", c.cachePath("net", 2))
	}
}

func TestContextFallsBackWithoutMNISTDir(t *testing.T) {
	t.Setenv("MNIST_DIR", t.TempDir()) // empty dir → loader fails → synthetic
	cfg := QuickConfig()
	cfg.TrainSamples = 30
	cfg.TestSamples = 10
	c := NewContext(cfg)
	if c.Train.Len() != 30 || c.Test.Len() != 10 {
		t.Fatalf("fallback sizes %d/%d", c.Train.Len(), c.Test.Len())
	}
}
