package sei

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sei/internal/homog"
	"sei/internal/seicore"
)

var designFixture struct {
	train, test *Dataset
	net         *Network
	q           *QuantizedNet
}

func designFix(t *testing.T) (*QuantizedNet, *Dataset, *Dataset) {
	t.Helper()
	if designFixture.q == nil {
		designFixture.train, designFixture.test = SyntheticSplit(1200, 200, 21)
		designFixture.net = TrainTableNetwork(2, designFixture.train, 3, 5)
		q, err := Quantize(designFixture.net, designFixture.train)
		if err != nil {
			t.Fatal(err)
		}
		designFixture.q = q
	}
	return designFixture.q, designFixture.train, designFixture.test
}

func TestBuildDesignDefaults(t *testing.T) {
	q, train, test := designFix(t)
	d, err := BuildDesign(q, train, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := EvaluateDesign(d, test)
	digital := EvaluateQuantized(q, test)
	t.Logf("digital %.4f sei %.4f", digital, e)
	if e > digital+0.08 {
		t.Fatalf("SEI error %.4f far above digital %.4f", e, digital)
	}
}

func TestBuildDesignZeroValuesFilled(t *testing.T) {
	q, train, _ := designFix(t)
	opt := BuildOptions{DynamicThreshold: true, Order: OrderHomogenized, Seed: 1}
	if _, err := BuildDesign(q, train, opt); err != nil {
		t.Fatalf("zero-value device/crossbar not defaulted: %v", err)
	}
}

func TestBuildDesignValidation(t *testing.T) {
	q, _, _ := designFix(t)
	opt := DefaultBuildOptions()
	opt.DynamicThreshold = true
	if _, err := BuildDesign(q, nil, opt); err == nil {
		t.Fatal("dynamic threshold without training set accepted")
	}
	opt = DefaultBuildOptions()
	opt.Order = OrderStrategy(9)
	opt.DynamicThreshold = false
	if _, err := BuildDesign(q, nil, opt); err == nil {
		t.Fatal("unknown order strategy accepted")
	}
}

func TestBuildDesignUnipolar(t *testing.T) {
	q, train, test := designFix(t)
	opt := DefaultBuildOptions()
	opt.Unipolar = true
	d, err := BuildDesign(q, train, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := EvaluateDesign(d, test)
	digital := EvaluateQuantized(q, test)
	if e > digital+0.10 {
		t.Fatalf("unipolar SEI error %.4f far above digital %.4f", e, digital)
	}
}

func TestBuildDesignOrderStrategiesDiffer(t *testing.T) {
	q, _, test := designFix(t)
	opt := DefaultBuildOptions()
	opt.MaxCrossbar = 64 // force conv splitting so order matters
	opt.DynamicThreshold = false
	build := func(o OrderStrategy) int {
		opt.Order = o
		d, err := BuildDesign(q, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return d.Convs[0].K
	}
	if build(OrderNatural) < 2 {
		t.Fatal("crossbar 64 did not force a split")
	}
	// All strategies must build; functional differences are covered by
	// the experiments tests.
	for _, o := range []OrderStrategy{OrderNatural, OrderRandom, OrderHomogenized} {
		opt.Order = o
		d, err := BuildDesign(q, nil, opt)
		if err != nil {
			t.Fatalf("order %d failed: %v", o, err)
		}
		if e := EvaluateDesign(d, test.Subset(50)); e > 0.9 {
			t.Fatalf("order %d produced degenerate design (err %.2f)", o, e)
		}
	}
}

// TestBuildDesignSplitOrdersFollowMapping: at crossbar 64 Network 2's
// conv2 splits into 2 unipolar blocks but 3 bipolar ones, and
// BuildDesign programs the homogenized orders the GA found for the
// design's own mapping. Each design is byte-identical to
// seicore.BuildSEI given homog's orders for that mode, and the unipolar
// design differs from one programmed with the K = 3 bipolar orders.
func TestBuildDesignSplitOrdersFollowMapping(t *testing.T) {
	q, _, _ := designFix(t)
	save := func(d *SEIDesign) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	opt := DefaultBuildOptions()
	opt.MaxCrossbar = 64
	opt.DynamicThreshold = false
	buildWith := func(mode seicore.SignedMode, ordersMode seicore.SignedMode) []byte {
		t.Helper()
		cfg := seicore.DefaultSEIBuildConfig()
		cfg.Layer.Model = opt.Device
		cfg.Layer.MaxCrossbar = opt.MaxCrossbar
		cfg.Layer.Mode = ordersMode
		split, err := homog.SplitOrders(q, cfg.Layer, opt.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Layer.Mode = mode
		cfg.DynamicThreshold = false
		cfg.Orders = split.Orders(len(q.Convs))
		d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(opt.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		return save(d)
	}
	for _, tc := range []struct {
		unipolar bool
		mode     seicore.SignedMode
		k        int
	}{{false, seicore.ModeBipolar, 3}, {true, seicore.ModeUnipolarDynamic, 2}} {
		opt.Unipolar = tc.unipolar
		d, err := BuildDesign(q, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if k := d.Convs[0].K; k != tc.k { // Convs[0] maps conv stage 1
			t.Fatalf("%v design splits conv2 into %d blocks, want %d", tc.mode, k, tc.k)
		}
		if !bytes.Equal(save(d), buildWith(tc.mode, tc.mode)) {
			t.Fatalf("%v design is not programmed with the %v split orders", tc.mode, tc.mode)
		}
	}
	opt.Unipolar = true
	d, err := BuildDesign(q, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(save(d), buildWith(seicore.ModeUnipolarDynamic, seicore.ModeBipolar)) {
		t.Fatal("unipolar design equals one programmed with the bipolar orders; the check cannot tell the mappings apart")
	}
}

// TestBuildDesignSplitOrdersFollowDevice: on a 1-bit device a weight
// takes 16 cells, so at the default crossbar 512 Network 2's 36-input
// conv2 splits into 2 blocks. homog.SplitStages must report the
// design's own K for every stage, and BuildDesign must program conv2
// with the GA's homogenized order, not the natural one.
func TestBuildDesignSplitOrdersFollowDevice(t *testing.T) {
	q, _, _ := designFix(t)
	opt := DefaultBuildOptions()
	opt.Device = IdealDeviceModel(1)
	opt.DynamicThreshold = false
	d, err := BuildDesign(q, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.Layer.Model = opt.Device
	cfg.DynamicThreshold = false
	stages, err := homog.SplitStages(q, cfg.Layer)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(q.Convs))
	for l := range want {
		want[l] = 1
	}
	for _, s := range stages {
		want[s.Stage] = s.K
	}
	for l, c := range d.Convs { // Convs[l] maps conv stage l+1
		if c.K != want[l+1] {
			t.Errorf("conv stage %d: design has K = %d, SplitStages says %d", l+1, c.K, want[l+1])
		}
	}
	if d.Convs[0].K != 2 {
		t.Fatalf("1-bit design splits conv2 into %d blocks, want 2", d.Convs[0].K)
	}
	build := func(orders [][]int) []byte {
		t.Helper()
		cfg.Orders = orders
		b, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(opt.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var got bytes.Buffer
	if err := d.Save(&got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), build(nil)) {
		t.Fatal("1-bit design programs conv2 in the natural order")
	}
	split, err := homog.SplitOrders(q, cfg.Layer, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), build(split.Orders(len(q.Convs)))) {
		t.Fatal("1-bit design is not programmed with the homogenized split orders")
	}
}

func TestMapCostsShape(t *testing.T) {
	q, _, _ := designFix(t)
	costs, err := MapCosts(q, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("got %d cost rows", len(costs))
	}
	base, sein := costs[0], costs[2]
	if base.Structure != StructDACADC || sein.Structure != StructSEI {
		t.Fatal("cost row order wrong")
	}
	if sein.EnergyUJ >= base.EnergyUJ*0.1 {
		t.Fatalf("SEI energy %.3f not ≪ baseline %.3f", sein.EnergyUJ, base.EnergyUJ)
	}
	if base.InterfaceEnergyFraction < 0.98 {
		t.Fatalf("baseline interface fraction %.4f", base.InterfaceEnergyFraction)
	}
	if base.EnergySaving != 0 || base.AreaSaving != 0 {
		t.Fatal("the DAC+ADC row must carry no saving against itself")
	}
	if want := 1 - sein.EnergyUJ/base.EnergyUJ; math.Abs(sein.EnergySaving-want) > 1e-12 {
		t.Fatalf("SEI energy saving %v, want %v", sein.EnergySaving, want)
	}
	if want := 1 - sein.AreaMM2/base.AreaMM2; math.Abs(sein.AreaSaving-want) > 1e-12 {
		t.Fatalf("SEI area saving %v, want %v", sein.AreaSaving, want)
	}
}

func TestDeploymentCost(t *testing.T) {
	q, _, _ := designFix(t)
	// Network 2: (9·4 + 36·8 + 200·10) weights × 4 cells at 4 bits.
	weights := int64(9*4 + 36*8 + 200*10)
	wantCells := 4 * weights
	ideal := IdealDeviceModel(4)
	uj, pulses, cells := DeploymentCost(q, ideal)
	if cells != wantCells {
		t.Fatalf("cells %d, want %d", cells, wantCells)
	}
	if pulses != 1 {
		t.Fatalf("ideal pulses %v, want 1", pulses)
	}
	if uj <= 0 {
		t.Fatal("no deployment energy")
	}
	noisy := ideal
	noisy.ProgramSigma = 0.1
	uj2, pulses2, _ := DeploymentCost(q, noisy)
	if pulses2 <= pulses || uj2 <= uj {
		t.Fatal("variation did not raise the write cost")
	}
	// Cells per weight follow the device precision: pos/neg ×
	// ceil(8/bits) slices, 8 on a 2-bit device and 2 on an 8-bit one.
	for _, c := range []struct {
		bits           int
		cellsPerWeight int64
	}{{2, 8}, {8, 2}} {
		_, _, got := DeploymentCost(q, IdealDeviceModel(c.bits))
		if want := weights * c.cellsPerWeight; got != want {
			t.Errorf("%d-bit device: cells %d, want %d", c.bits, got, want)
		}
	}
}

func TestDeviceModelHelpers(t *testing.T) {
	if DefaultDeviceModel().Bits != 4 {
		t.Fatal("default device not 4-bit")
	}
	m := IdealDeviceModel(6)
	if m.Bits != 6 || m.ProgramSigma != 0 {
		t.Fatal("ideal device wrong")
	}
}
