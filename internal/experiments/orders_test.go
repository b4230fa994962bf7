package experiments

import (
	"testing"

	"sei/internal/homog"
	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/seicore"
	"sei/internal/tensor"
)

func TestSplitConvStagesDetection(t *testing.T) {
	c := ctx(t)
	q := c.Quantized(2)
	// At 512, Network 2's conv2 (36 weights × 4 cells = 144 rows) fits.
	if got := splitConvStages(q, 512, seicore.ModeBipolar); len(got) != 0 {
		t.Fatalf("unexpected splits at 512: %v", got)
	}
	// At 64, it splits into ceil(36/16) = 3 blocks.
	got := splitConvStages(q, 64, seicore.ModeBipolar)
	if len(got) != 1 || got[0] != (SplitStage{1, 3}) {
		t.Fatalf("splits at 64: %v, want [{1 3}]", got)
	}
	// Unipolar mode halves the rows: ceil(36/32) = 2 blocks.
	got = splitConvStages(q, 64, seicore.ModeUnipolarDynamic)
	if len(got) != 1 || got[0] != (SplitStage{1, 2}) {
		t.Fatalf("unipolar splits at 64: %v, want [{1 2}]", got)
	}
}

func TestHomogenizedOrdersForShape(t *testing.T) {
	c := ctx(t)
	q := c.Quantized(2)
	orders := HomogenizedOrdersFor(q, 64, 1)
	if len(orders) != len(q.Convs) {
		t.Fatalf("orders length %d, want %d", len(orders), len(q.Convs))
	}
	if orders[0] != nil {
		t.Fatal("non-split stage got an order")
	}
	if len(orders[1]) != 36 {
		t.Fatalf("split stage order length %d, want 36", len(orders[1]))
	}
	seen := make([]bool, 36)
	for _, idx := range orders[1] {
		if seen[idx] {
			t.Fatal("order is not a permutation")
		}
		seen[idx] = true
	}
	// The homogenized order must beat natural on the Equ.-10 distance.
	w := q.ConvMatrix(1)
	if homog.Distance(w, orders[1], 3) > homog.Distance(w, seicore.NaturalOrder(36), 3) {
		t.Fatal("homogenized order worse than natural")
	}
}

func TestRandomOrdersForDeterministic(t *testing.T) {
	c := ctx(t)
	q := c.Quantized(2)
	a := RandomOrdersFor(q, 64, 7)
	b := RandomOrdersFor(q, 64, 7)
	for i := range a[1] {
		if a[1][i] != b[1][i] {
			t.Fatal("random orders not reproducible for a fixed seed")
		}
	}
	cOrd := RandomOrdersFor(q, 64, 8)
	same := true
	for i := range a[1] {
		if a[1][i] != cOrd[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical random orders")
	}
}

// TestRandomOrdersForStableWithTwoSplitStages pins the stage order
// of the shared RNG stream: the deep net splits two conv stages at 64
// (5 and 9 blocks), so drawing their permutations in map order would
// hand each stage the other's draws on some calls.
func TestRandomOrdersForStableWithTwoSplitStages(t *testing.T) {
	q, err := quant.Extract(nn.NewDeepNetwork(1), []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	if got := splitConvStages(q, 64, seicore.ModeBipolar); len(got) != 2 {
		t.Fatalf("deep net splits %v at 64, want two stages", got)
	}
	want := RandomOrdersFor(q, 64, 7)
	for call := 0; call < 200; call++ {
		got := RandomOrdersFor(q, 64, 7)
		for l := range want {
			for i := range want[l] {
				if got[l][i] != want[l][i] {
					t.Fatalf("call %d: stage %d order differs from the first call", call, l)
				}
			}
		}
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
