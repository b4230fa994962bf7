package experiments

import (
	"testing"

	"sei/internal/homog"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

func TestSplitConvStagesDetection(t *testing.T) {
	c := ctx(t)
	q := c.Quantized(2)
	splits := func(size int, mode seicore.SignedMode) []homog.SplitStage {
		t.Helper()
		opt := seicore.DefaultLayerOptions()
		opt.MaxCrossbar, opt.Mode = size, mode
		got, err := homog.SplitStages(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// At 512, Network 2's conv2 (36 weights × 4 cells = 144 rows) fits.
	if got := splits(512, seicore.ModeBipolar); len(got) != 0 {
		t.Fatalf("unexpected splits at 512: %v", got)
	}
	// At 64, it splits into ceil(36/16) = 3 blocks.
	got := splits(64, seicore.ModeBipolar)
	if len(got) != 1 || got[0] != (homog.SplitStage{Stage: 1, K: 3}) {
		t.Fatalf("splits at 64: %v, want [{1 3}]", got)
	}
	// Unipolar mode halves the rows: ceil(36/32) = 2 blocks.
	got = splits(64, seicore.ModeUnipolarDynamic)
	if len(got) != 1 || got[0] != (homog.SplitStage{Stage: 1, K: 2}) {
		t.Fatalf("unipolar splits at 64: %v, want [{1 2}]", got)
	}
}

func TestSortedOrderClusters(t *testing.T) {
	w := tensor.FromSlice([]float64{
		1, 1, // row 0, sum 2
		5, 5, // row 1, sum 10
		-3, 0, // row 2, sum -3
		2, 2, // row 3, sum 4
	}, 4, 2)
	order := sortedOrder(w)
	want := []int{1, 3, 0, 2}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("sortedOrder = %v, want %v", order, want)
		}
	}
}
