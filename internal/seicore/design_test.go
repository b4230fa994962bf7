package seicore

import (
	"math/rand"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/rram"
)

// testFixture trains and quantizes Network 2 once per test binary.
type fixture struct {
	net   *nn.Network
	q     *quant.QuantizedNet
	train *mnist.Dataset
	test  *mnist.Dataset
}

var sharedFixture *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if sharedFixture != nil {
		return sharedFixture
	}
	train, test := mnist.SyntheticSplit(1500, 300, 5)
	net := nn.NewTableNetwork(2, 7)
	nn.Train(net, train, nn.DefaultTrainConfig())
	cfg := quant.DefaultSearchConfig()
	cfg.Samples = 300
	q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := quant.RecalibrateFC(q, train, quant.DefaultRecalibrateConfig()); err != nil {
		t.Fatal(err)
	}
	sharedFixture = &fixture{net: net, q: q, train: train, test: test}
	return sharedFixture
}

func TestBuildSEIIdealMatchesDigital(t *testing.T) {
	// With ideal devices and no splitting needed beyond the FC (whose
	// block merge is exact), SEI classification must be extremely close
	// to the digital quantized network (the only difference is 8-bit
	// weight quantization).
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.Model = rram.IdealDeviceModel(4)
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(120)
	digitalErr := nn.ErrorRate(nil, f.q, sub, 0)
	seiErr := nn.ErrorRate(nil, design, sub, 0)
	t.Logf("digital %.4f sei %.4f", digitalErr, seiErr)
	if diff := seiErr - digitalErr; diff > 0.05 || diff < -0.05 {
		t.Fatalf("ideal SEI error %.4f diverges from digital %.4f", seiErr, digitalErr)
	}
}

func TestBuildSEILayerShapes(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Network 2: conv1 (input stage) 9×4 merged; conv2 SEI 36×8; FC SEI
	// 200×10 → 800 rows → 2 blocks at 512.
	if design.Input.N != 9 || design.Input.M != 4 {
		t.Fatalf("input stage %dx%d, want 9x4", design.Input.N, design.Input.M)
	}
	if len(design.Convs) != 1 || design.Convs[0].N != 36 || design.Convs[0].K != 1 {
		t.Fatalf("conv stages wrong: %+v", design.Convs)
	}
	if design.FC.N != 200 || design.FC.K != 2 {
		t.Fatalf("FC N=%d K=%d, want 200/2", design.FC.N, design.FC.K)
	}
}

func TestBuildOneBitADCMatchesDigital(t *testing.T) {
	f := getFixture(t)
	design, err := BuildOneBitADC(f.q, rram.IdealDeviceModel(4), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(120)
	digitalErr := nn.ErrorRate(nil, f.q, sub, 0)
	hwErr := nn.ErrorRate(nil, design, sub, 0)
	if diff := hwErr - digitalErr; diff > 0.05 || diff < -0.05 {
		t.Fatalf("1-bit+ADC error %.4f diverges from digital %.4f", hwErr, digitalErr)
	}
}

func TestBuildDACADCMatchesFloat(t *testing.T) {
	f := getFixture(t)
	design, err := BuildDACADC(f.net, []int{1, 28, 28}, rram.IdealDeviceModel(4), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(120)
	floatErr := nn.ErrorRate(nil, f.net, sub, 0)
	hwErr := nn.ErrorRate(nil, design, sub, 0)
	t.Logf("float %.4f dacadc %.4f", floatErr, hwErr)
	if diff := hwErr - floatErr; diff > 0.05 || diff < -0.05 {
		t.Fatalf("DAC+ADC error %.4f diverges from float %.4f", hwErr, floatErr)
	}
}

func TestDeviceVariationDegradesGracefully(t *testing.T) {
	f := getFixture(t)
	model := rram.DefaultDeviceModel() // σ = 0.02
	design, err := BuildOneBitADC(f.q, model, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(120)
	digitalErr := nn.ErrorRate(nil, f.q, sub, 0)
	hwErr := nn.ErrorRate(nil, design, sub, 0)
	if hwErr > digitalErr+0.10 {
		t.Fatalf("mild variation exploded error: %.4f vs %.4f", hwErr, digitalErr)
	}
}

func TestBuildSEIWithDynamicThresholdEndToEnd(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.Model = rram.DefaultDeviceModel()
	cfg.Layer.MaxCrossbar = 128 // forces conv2 (36×4=144) and FC (800) to split
	cfg.CalibImages = 40
	design, err := BuildSEI(f.q, f.train, cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if design.Convs[0].K < 2 {
		t.Fatalf("conv2 did not split: K=%d", design.Convs[0].K)
	}
	if len(design.CalibResults) == 0 {
		t.Fatal("no calibration results recorded")
	}
	// Splitting a conv layer in natural order is lossy — that is the
	// paper's Section-4.3 observation, and why homogenization exists
	// (Table 4). Here we verify only that the dynamic-threshold
	// calibration does not make things worse than the static split.
	cfgStatic := cfg
	cfgStatic.DynamicThreshold = false
	static, err := BuildSEI(f.q, nil, cfgStatic, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	sub := f.test.Subset(120)
	digitalErr := nn.ErrorRate(nil, f.q, sub, 0)
	staticErr := nn.ErrorRate(nil, static, sub, 0)
	dynErr := nn.ErrorRate(nil, design, sub, 0)
	t.Logf("digital %.4f static-split %.4f dynamic-split %.4f", digitalErr, staticErr, dynErr)
	if dynErr > staticErr+0.03 {
		t.Fatalf("dynamic threshold made splitting worse: %.4f vs static %.4f", dynErr, staticErr)
	}
}

func TestSEIDesignPredictInterface(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var c nn.Classifier = design
	if got := c.Predict(f.test.Images[0]); got < 0 || got > 9 {
		t.Fatalf("Predict returned %d", got)
	}
}
