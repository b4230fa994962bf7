package homog

import (
	"math/rand"
	"slices"
	"testing"

	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/seicore"
)

// net2 returns an untrained Network 2, extracted: its conv2 has 36
// logical rows, which split into 3 blocks at crossbar size 64.
func net2(t *testing.T) *quant.QuantizedNet {
	t.Helper()
	q, err := quant.Extract(nn.NewTableNetwork(2, 1), []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSplitOrdersShape(t *testing.T) {
	q := net2(t)
	split, err := SplitOrders(q, 64, seicore.ModeBipolar, 1)
	if err != nil {
		t.Fatal(err)
	}
	orders := split.Orders(len(q.Convs))
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
	if Distance(w, orders[1], 3) > Distance(w, seicore.NaturalOrder(36), 3) {
		t.Fatal("homogenized order worse than natural")
	}
}

func TestRandomSplitOrdersDeterministic(t *testing.T) {
	q := net2(t)
	draw := func(seed int64) [][]int {
		return RandomSplitOrders(q, 64, seicore.ModeBipolar, rand.New(rand.NewSource(seed)))
	}
	a := draw(7)
	b := draw(7)
	for i := range a[1] {
		if a[1][i] != b[1][i] {
			t.Fatal("random orders not reproducible for a fixed seed")
		}
	}
	cOrd := draw(8)
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

// TestRandomSplitOrdersStableWithTwoSplitStages pins the stage order
// of the shared RNG stream: the deep net splits two conv stages at 64
// (5 and 9 blocks), so drawing their permutations in map order would
// hand each stage the other's draws on some calls.
func TestRandomSplitOrdersStableWithTwoSplitStages(t *testing.T) {
	q, err := quant.Extract(nn.NewDeepNetwork(1), []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	if got := SplitStages(q, 64, seicore.ModeBipolar); len(got) != 2 {
		t.Fatalf("deep net splits %v at 64, want two stages", got)
	}
	draw := func() [][]int { return RandomSplitOrders(q, 64, seicore.ModeBipolar, rand.New(rand.NewSource(7))) }
	want := draw()
	for call := 0; call < 200; call++ {
		got := draw()
		for l := range want {
			for i := range want[l] {
				if got[l][i] != want[l][i] {
					t.Fatalf("call %d: stage %d order differs from the first call", call, l)
				}
			}
		}
	}
}

// TestSplitOrdersFollowMode: Network 2's 36-row conv2 splits into 3
// bipolar blocks at crossbar 64 but 2 unipolar ones (2 cells per
// weight instead of 4), so the GA must homogenize for the mode's own
// K. The bipolar orders stay those of a direct GA run at K = 3 seeded
// at seed+stage, and the random draws size their permutations the same
// way under either mode.
func TestSplitOrdersFollowMode(t *testing.T) {
	q := net2(t)
	for _, tc := range []struct {
		mode seicore.SignedMode
		k    int
	}{{seicore.ModeBipolar, 3}, {seicore.ModeUnipolarDynamic, 2}} {
		split, err := SplitOrders(q, 64, tc.mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(split) != 1 || split[0].Stage != 1 || split[0].K != tc.k {
			t.Fatalf("%v: split %+v, want stage 1 in %d blocks", tc.mode, split, tc.k)
		}
		cfg := DefaultGAConfig()
		cfg.Seed = 2
		want, err := Homogenize(q.ConvMatrix(1), tc.k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(split[0].Order, want.Order) || split[0].Distance != want.Distance {
			t.Fatalf("%v: order %v (distance %v), direct GA at K=%d gives %v (%v)",
				tc.mode, split[0].Order, split[0].Distance, tc.k, want.Order, want.Distance)
		}
		if got := RandomSplitOrders(q, 64, tc.mode, rand.New(rand.NewSource(7))); len(got[1]) != 36 || got[0] != nil {
			t.Fatalf("%v: random orders %v, want one 36-row permutation for stage 1", tc.mode, got)
		}
	}
}
