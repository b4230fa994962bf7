package experiments

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/seicore"
)

// sharedCtx is built once per test binary with the quick sizing and
// exercises only Network 2 (the smallest Table-2 network).
var sharedCtx *Context

func ctx(t *testing.T) *Context {
	t.Helper()
	if sharedCtx == nil {
		sharedCtx = NewContext(QuickConfig())
	}
	return sharedCtx
}

func TestContextDeterministicDatasets(t *testing.T) {
	a := NewContext(QuickConfig())
	b := NewContext(QuickConfig())
	if a.Train.Len() != b.Train.Len() || a.Test.Len() != b.Test.Len() {
		t.Fatal("dataset sizes differ between identical contexts")
	}
	for i := range a.Train.Labels {
		if a.Train.Labels[i] != b.Train.Labels[i] {
			t.Fatal("training labels differ between identical contexts")
		}
	}
}

func TestContextTrainsAndCaches(t *testing.T) {
	c := ctx(t)
	net1 := c.Network(2)
	net2 := c.Network(2)
	if net1 != net2 {
		t.Fatal("Network(2) not cached in memory")
	}
	if e := c.FloatError(2); e > 0.30 {
		t.Fatalf("trained network error %.3f too high", e)
	}
}

func TestContextDiskCache(t *testing.T) {
	cfg := QuickConfig()
	cfg.TrainSamples = 300
	cfg.Epochs = 1
	cfg.CacheDir = t.TempDir()
	a := NewContext(cfg)
	netA := a.Network(2)
	// A fresh context must load the identical model from disk.
	b := NewContext(cfg)
	netB := b.Network(2)
	if netA.NumParams() != netB.NumParams() {
		t.Fatal("cached model differs")
	}
	img := a.Test.Images[0]
	if netA.Predict(img) != netB.Predict(img) {
		t.Fatal("cached model predicts differently")
	}
}

// TestContextCacheKeysSearchSamples: the quantized artifacts depend on
// the threshold-search workload, so two contexts that share a cache
// directory and differ only in SearchSamples share the trained network
// but neither the plain nor the calibrated quantized net.
func TestContextCacheKeysSearchSamples(t *testing.T) {
	cfg := QuickConfig()
	cfg.TrainSamples = 300
	cfg.Epochs = 1
	cfg.SearchSamples = 50
	cfg.CacheDir = t.TempDir()
	a := NewContext(cfg)
	a.QuantizedCalibrated(2)

	cfg.SearchSamples = 100
	var log bytes.Buffer
	cfg.Log = &log
	b := NewContext(cfg)
	b.QuantizedCalibrated(2)
	if !strings.Contains(log.String(), "from cache") {
		t.Fatalf("the trained network was not reused from the cache:\n%s", log.String())
	}
	if strings.Contains(log.String(), "loaded quantized net") {
		t.Fatalf("a 100-sample context loaded the 50-sample quantization:\n%s", log.String())
	}
	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range entries {
		kinds[strings.SplitN(e.Name(), "_", 2)[0]]++
	}
	if kinds["net"] != 1 || kinds["quant"] != 2 || kinds["quantcal"] != 2 {
		t.Fatalf("cache holds %v, want 1 net, 2 quant and 2 quantcal files", kinds)
	}
}

func TestQuantizedPipeline(t *testing.T) {
	c := ctx(t)
	q := c.Quantized(2)
	if len(q.Thresholds) != 2 {
		t.Fatalf("quantized net has %d thresholds", len(q.Thresholds))
	}
	qe := c.QuantError(2)
	ce := c.QuantCalibratedError(2)
	fe := c.FloatError(2)
	t.Logf("float %.4f quant %.4f calibrated %.4f", fe, qe, ce)
	if ce > qe+0.02 {
		t.Fatalf("calibration made things worse: %.4f vs %.4f", ce, qe)
	}
	if qe > fe+0.20 {
		t.Fatalf("quantization cost too much: %.4f vs %.4f", qe, fe)
	}
	// The plain quantized model must not be mutated by calibration.
	if got := nn.ErrorRate(nil, c.Quantized(2), c.Test, 0); got != qe {
		t.Fatalf("plain quantized model was mutated: %.4f vs %.4f", got, qe)
	}
}

func TestFigure1Shape(t *testing.T) {
	c := ctx(t)
	res, err := Figure1(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterfacePowerFraction < 0.98 {
		t.Fatalf("interface power fraction %.4f < 0.98", res.InterfacePowerFraction)
	}
	if res.InterfaceAreaFraction < 0.95 {
		t.Fatalf("interface area fraction %.4f < 0.95", res.InterfaceAreaFraction)
	}
	if res.InputDACFraction <= 0 || res.InputDACFraction > 0.15 {
		t.Fatalf("input DAC fraction %.4f outside (0,0.15]", res.InputDACFraction)
	}
	if len(res.Power) != 4 || len(res.Area) != 4 { // conv1, conv2, FC, total
		t.Fatalf("row counts %d/%d, want 4/4", len(res.Power), len(res.Area))
	}
	for _, row := range res.Power {
		sum := row.DAC + row.ADC + row.RRAM + row.Other
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("power row %s fractions sum to %v", row.Layer, sum)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("Print output missing header")
	}
}

func TestTable1LongTail(t *testing.T) {
	c := ctx(t)
	res := Table1(c, 2)
	rows := res.Networks[2]
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, d := range rows {
		if d.Fractions[0] < 0.5 {
			t.Fatalf("%s lowest bin %.3f; long tail missing", d.LayerName, d.Fractions[0])
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Network 2") {
		t.Fatal("Print output missing network")
	}
}

func TestTable2MatchesPaperConfigs(t *testing.T) {
	c := ctx(t)
	rows := Table2(c)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Complexity ordering: Network1 > Network3 > Network2 (paper:
	// 0.006 / 0.0003 / 0.00016 GOPs).
	if !(rows[0].Ops > rows[2].Ops && rows[2].Ops > rows[1].Ops) {
		t.Fatalf("ops ordering wrong: %d/%d/%d", rows[0].Ops, rows[1].Ops, rows[2].Ops)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Network 1") {
		t.Fatal("Print output missing rows")
	}
}

func TestTable3Shape(t *testing.T) {
	c := ctx(t)
	rows := Table3(c, 2)
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.BeforeQuantization > r.AfterQuantization {
		t.Logf("note: quantized beat float (%.4f vs %.4f) — possible on small test sets", r.AfterQuantization, r.BeforeQuantization)
	}
	if r.AfterQuantization > r.BeforeQuantization+0.20 {
		t.Fatalf("quantization delta too large: %.4f -> %.4f", r.BeforeQuantization, r.AfterQuantization)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "After Quantization") {
		t.Fatal("Print output missing rows")
	}
}

func TestTable4SplittingStudy(t *testing.T) {
	c := ctx(t)
	// Force conv2 of Network 2 to split with a small crossbar.
	res := Table4(c, 2, []int{64})
	if len(res.Columns) != 1 {
		t.Fatalf("got %d columns", len(res.Columns))
	}
	col := res.Columns[0]
	if len(col.SplitStages) == 0 {
		t.Fatal("no conv stage split at crossbar size 64")
	}
	if col.RandomMax < col.RandomMin {
		t.Fatalf("random range inverted: %.4f-%.4f", col.RandomMin, col.RandomMax)
	}
	// The paper's qualitative claims: random splitting can be much
	// worse than homogenized; dynamic threshold does not hurt.
	if col.Homogenized > col.RandomMax+0.01 {
		t.Fatalf("homogenized (%.4f) worse than worst random (%.4f)", col.Homogenized, col.RandomMax)
	}
	if col.DynamicThreshold > col.Homogenized+0.03 {
		t.Fatalf("dynamic threshold (%.4f) worse than static homogenized (%.4f)", col.DynamicThreshold, col.Homogenized)
	}
	if col.HomogReduction < 0.3 {
		t.Fatalf("homogenization distance reduction %.2f too small", col.HomogReduction)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Random Order Splitting") {
		t.Fatal("Print output missing rows")
	}
}

func TestTable5Shape(t *testing.T) {
	c := ctx(t)
	res, err := Table5(c, []Table5Point{{NetworkID: 2, MaxCrossbar: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	base, onebit, sei := res.Rows[0], res.Rows[1], res.Rows[2]
	if base.Structure != seicore.StructDACADC || sei.Structure != seicore.StructSEI {
		t.Fatal("row order wrong")
	}
	if base.DataBits != 8 || onebit.DataBits != 1 {
		t.Fatal("data bits wrong")
	}
	if sei.EnergySaving < 0.90 {
		t.Fatalf("SEI energy saving %.4f < 0.90", sei.EnergySaving)
	}
	if sei.AreaSaving < 0.70 {
		t.Fatalf("SEI area saving %.4f < 0.70", sei.AreaSaving)
	}
	if onebit.EnergySaving <= 0 || onebit.EnergySaving > 0.5 {
		t.Fatalf("1-bit saving %.4f out of band", onebit.EnergySaving)
	}
	if sei.GOPsPerJ < 10*base.GOPsPerJ {
		t.Fatalf("SEI efficiency %.1f not ≫ base %.1f", sei.GOPsPerJ, base.GOPsPerJ)
	}
	// Functional error rates through hardware must stay in the
	// neighbourhood of the software results.
	if base.ErrorRate > c.FloatError(2)+0.05 {
		t.Fatalf("DAC+ADC error %.4f far from float %.4f", base.ErrorRate, c.FloatError(2))
	}
	if onebit.ErrorRate > c.QuantCalibratedError(2)+0.05 {
		t.Fatalf("1-bit error %.4f far from quant %.4f", onebit.ErrorRate, c.QuantCalibratedError(2))
	}
	if sei.ErrorRate > c.QuantCalibratedError(2)+0.10 {
		t.Fatalf("SEI error %.4f far from quant %.4f", sei.ErrorRate, c.QuantCalibratedError(2))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Table 5") {
		t.Fatal("Print output missing header")
	}
}

func TestHomogenizationStudy(t *testing.T) {
	c := ctx(t)
	rows := HomogenizationStudy(c, 2, 64)
	if len(rows) == 0 {
		t.Fatal("no split stages in study")
	}
	for _, r := range rows {
		if r.GADist > r.NaturalDist {
			t.Fatalf("stage %d: GA (%.4f) worse than natural (%.4f)", r.Stage, r.GADist, r.NaturalDist)
		}
		if r.GADist > r.GreedyDist+1e-9 {
			t.Fatalf("stage %d: GA (%.4f) worse than greedy (%.4f)", r.Stage, r.GADist, r.GreedyDist)
		}
	}
	var buf bytes.Buffer
	PrintHomogStudy(&buf, 2, rows)
	if !strings.Contains(buf.String(), "GA") {
		t.Fatal("Print output missing columns")
	}
}

// TestSplitOrdersShareOneGARun: Table 4 and the homogenization study
// read the context's memoized split orders, so Table 4's distance
// reduction is the mean of the study's per-stage GA reductions, and a
// second lookup hands back the same orders rather than a rerun's.
func TestSplitOrdersShareOneGARun(t *testing.T) {
	cfg := QuickConfig()
	cfg.TrainSamples = 100
	cfg.TestSamples = 20
	cfg.Epochs = 1
	cfg.SearchSamples = 50
	cfg.RandomOrders = 1
	cfg.CalibImages = 5
	c := NewContext(cfg)
	col := Table4(c, 1, []int{512}).Columns[0]
	rows := HomogenizationStudy(c, 1, 512)
	if len(rows) == 0 {
		t.Fatal("Network 1 splits no conv stage at 512")
	}
	mean := 0.0
	for _, r := range rows {
		mean += r.GAReduction
	}
	mean /= float64(len(rows))
	if col.HomogReduction != mean {
		t.Fatalf("Table 4 reduction %v, study mean %v", col.HomogReduction, mean)
	}
	first, second := c.splitOrders(1, 512), c.splitOrders(1, 512)
	for i := range first {
		if &first[i].Order[0] != &second[i].Order[0] {
			t.Fatalf("stage %d: the second lookup returned a different order slice", first[i].Stage)
		}
	}
}

func TestTimingStudy(t *testing.T) {
	c := ctx(t)
	rows, err := TimingStudy(c, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 structures × {1, 8} replicas
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		one, eight := rows[i], rows[i+1]
		if eight.LatencyUS >= one.LatencyUS {
			t.Fatalf("%s: 8 replicas latency %.2f not below 1 replica %.2f",
				one.Structure, eight.LatencyUS, one.LatencyUS)
		}
		if eight.AreaMM2 <= one.AreaMM2 {
			t.Fatalf("%s: 8 replicas area %.4f not above 1 replica %.4f",
				one.Structure, eight.AreaMM2, one.AreaMM2)
		}
	}
	var buf bytes.Buffer
	PrintTiming(&buf, 2, rows)
	if !strings.Contains(buf.String(), "replicas") {
		t.Fatal("Print output missing columns")
	}
}

func TestEfficiencyComparison(t *testing.T) {
	c := ctx(t)
	rows := EfficiencyComparison(c, 2)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	sei := rows[2]
	if sei.VsFPGA < 8 {
		t.Fatalf("SEI vs FPGA %.1fx, want ≥ 8x", sei.VsFPGA)
	}
	var buf bytes.Buffer
	PrintEfficiency(&buf, rows)
	if !strings.Contains(buf.String(), "FPGA") {
		t.Fatal("Print output missing baselines")
	}
}

// TestDynamicThresholdGainOnForcedSplit pins the one setting where the
// Section-4.3 dynamic threshold engages: Network 2 force-split at
// crossbar 64, calibrated on 25 training images, build seed 1, scored
// on 100 test images. The γ/D search must pick a compensation that
// cuts the static split's error by at least minGain.
func TestDynamicThresholdGainOnForcedSplit(t *testing.T) {
	const minGain = 0.10
	c := ctx(t)
	q := c.QuantizedCalibrated(2)
	test := c.Test.Subset(100)
	build := func(dynamic bool) (*seicore.SEIDesign, float64) {
		cfg := seicore.DefaultSEIBuildConfig()
		cfg.Layer.MaxCrossbar = 64
		cfg.DynamicThreshold = dynamic
		cfg.CalibImages = 25
		var train *mnist.Dataset
		if dynamic {
			train = c.Train
		}
		d, err := seicore.BuildSEI(q, train, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return d, nn.ErrorRate(nil, d, test, 0)
	}
	_, static := build(false)
	d, dynamic := build(true)
	t.Logf("static %.2f%%, dynamic %.2f%%, calibration %+v", 100*static, 100*dynamic, d.CalibResults)
	if gain := static - dynamic; gain < minGain {
		t.Fatalf("dynamic threshold gains %.1f pp over static (%.2f%% vs %.2f%%), want ≥ %.0f pp",
			100*gain, 100*dynamic, 100*static, 100*minGain)
	}
}
