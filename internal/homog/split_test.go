package homog

import (
	"math/rand"
	"slices"
	"testing"

	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// layerOpts is the paper's bipolar 4-bit mapping at crossbar size.
func layerOpts(size int) seicore.LayerOptions {
	opt := seicore.DefaultLayerOptions()
	opt.MaxCrossbar = size
	return opt
}

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
	split, err := SplitOrders(q, layerOpts(64), 1)
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
		orders, err := RandomSplitOrders(q, layerOpts(64), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return orders
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
	if got, err := SplitStages(q, layerOpts(64)); err != nil || len(got) != 2 {
		t.Fatalf("deep net splits %v at 64 (%v), want two stages", got, err)
	}
	draw := func() [][]int {
		orders, err := RandomSplitOrders(q, layerOpts(64), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return orders
	}
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
// weight instead of 4), and into 2 bipolar blocks at crossbar 512 on a
// 1-bit device (16 cells per weight), so the GA must homogenize for
// the mapping's own K. The orders stay those of a direct GA run at
// that K seeded at seed+stage, and the random draws size their
// permutations the same way under every mapping.
func TestSplitOrdersFollowMode(t *testing.T) {
	q := net2(t)
	oneBit := layerOpts(512)
	oneBit.Model = rram.IdealDeviceModel(1)
	unipolar := layerOpts(64)
	unipolar.Mode = seicore.ModeUnipolarDynamic
	for _, tc := range []struct {
		name string
		opt  seicore.LayerOptions
		k    int
	}{{"bipolar@64", layerOpts(64), 3}, {"unipolar@64", unipolar, 2}, {"1-bit@512", oneBit, 2}} {
		split, err := SplitOrders(q, tc.opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(split) != 1 || split[0].Stage != 1 || split[0].K != tc.k {
			t.Fatalf("%s: split %+v, want stage 1 in %d blocks", tc.name, split, tc.k)
		}
		cfg := DefaultGAConfig()
		cfg.Seed = 2
		want, err := Homogenize(q.ConvMatrix(1), tc.k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(split[0].Order, want.Order) || split[0].Distance != want.Distance {
			t.Fatalf("%s: order %v (distance %v), direct GA at K=%d gives %v (%v)",
				tc.name, split[0].Order, split[0].Distance, tc.k, want.Order, want.Distance)
		}
		if got, err := RandomSplitOrders(q, tc.opt, rand.New(rand.NewSource(7))); err != nil || len(got[1]) != 36 || got[0] != nil {
			t.Fatalf("%s: random orders %v (%v), want one 36-row permutation for stage 1", tc.name, got, err)
		}
	}
	bad := layerOpts(512)
	bad.Model.Bits = 0
	if _, err := SplitOrders(q, bad, 1); err == nil {
		t.Fatal("SplitOrders accepted an invalid device")
	}
	if _, err := RandomSplitOrders(q, bad, rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("RandomSplitOrders accepted an invalid device")
	}
}
