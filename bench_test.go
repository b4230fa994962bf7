package sei

// One benchmark per table and figure of the paper (see DESIGN.md §4)
// plus ablation benches for the design choices DESIGN.md calls out.
// `go test -bench=. -benchmem` regenerates every experiment at the
// quick sizing and reports the headline quantities as custom metrics,
// so the bench log doubles as a compact reproduction record.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"sei/internal/arch"
	"sei/internal/experiments"
	"sei/internal/hdl"
	"sei/internal/homog"
	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/seicore"
	"sei/internal/snn"
	"sei/internal/tensor"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext shares one trained/quantized Network 2 across benches
// (and the allocation-guard tests that ride along with them).
func benchContext(b testing.TB) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.QuickConfig())
	})
	return benchCtx
}

// BenchmarkFigure1 regenerates the power/area breakdown of Fig. 1.
func BenchmarkFigure1(b *testing.B) {
	c := benchContext(b)
	var iface float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(c, 2)
		if err != nil {
			b.Fatal(err)
		}
		iface = res.InterfacePowerFraction
	}
	b.ReportMetric(100*iface, "interface_%")
}

// BenchmarkTable1 regenerates the intermediate-data distribution.
func BenchmarkTable1(b *testing.B) {
	c := benchContext(b)
	var lowest float64
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(c, 2)
		rows := res.Networks[2]
		lowest = rows[len(rows)-1].Fractions[0]
	}
	b.ReportMetric(100*lowest, "near_zero_%")
}

// BenchmarkTable2 regenerates the setup/complexity table.
func BenchmarkTable2(b *testing.B) {
	c := benchContext(b)
	var gops float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(c)
		gops = rows[0].OpsGOPs
	}
	b.ReportMetric(gops*1000, "net1_MOPs")
}

// BenchmarkTable3 regenerates the quantization error table.
func BenchmarkTable3(b *testing.B) {
	c := benchContext(b)
	var after float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(c, 2)
		after = rows[0].AfterQuantization
	}
	b.ReportMetric(100*after, "quant_err_%")
}

// BenchmarkTable4 regenerates the splitting study (random vs
// homogenized vs dynamic threshold) on Network 2 with a small crossbar
// that forces the conv stage to split.
func BenchmarkTable4(b *testing.B) {
	c := benchContext(b)
	var dyn float64
	for i := 0; i < b.N; i++ {
		res := experiments.Table4(c, 2, []int{64})
		dyn = res.Columns[0].DynamicThreshold
	}
	b.ReportMetric(100*dyn, "dyn_err_%")
}

// BenchmarkTable5 regenerates the energy/area comparison of the three
// structures.
func BenchmarkTable5(b *testing.B) {
	c := benchContext(b)
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(c, []experiments.Table5Point{{NetworkID: 2, MaxCrossbar: 512}})
		if err != nil {
			b.Fatal(err)
		}
		saving = res.Rows[2].EnergySaving
	}
	b.ReportMetric(100*saving, "sei_saving_%")
}

// BenchmarkHomogenization regenerates the Section-4.3 distance study.
func BenchmarkHomogenization(b *testing.B) {
	c := benchContext(b)
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows := experiments.HomogenizationStudy(c, 2, 64)
		reduction = rows[0].GAReduction
	}
	b.ReportMetric(100*reduction, "distance_reduction_%")
}

// BenchmarkEfficiency regenerates the Section-5.3 GOPs/J comparison.
func BenchmarkEfficiency(b *testing.B) {
	c := benchContext(b)
	var vsFPGA float64
	for i := 0; i < b.N; i++ {
		rows := experiments.EfficiencyComparison(c, 2)
		vsFPGA = rows[2].VsFPGA
	}
	b.ReportMetric(vsFPGA, "vs_fpga_x")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationDeviceBits sweeps RRAM precision 2–6 bits and
// reports the 4-bit (paper default) hardware error.
func BenchmarkAblationDeviceBits(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	test := c.Test.Subset(100)
	var err4 float64
	for i := 0; i < b.N; i++ {
		for bits := 2; bits <= 6; bits++ {
			model := rram.IdealDeviceModel(bits)
			model.ProgramSigma = 0.02
			design, err := seicore.BuildOneBitADC(q, model, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			e := nn.ErrorRate(nil, design, test, 0)
			if bits == 4 {
				err4 = e
			}
		}
	}
	b.ReportMetric(100*err4, "err4bit_%")
}

// BenchmarkAblationVariationSigma sweeps programming variation and
// reports the error at the default σ = 0.02.
func BenchmarkAblationVariationSigma(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	test := c.Test.Subset(100)
	var errDefault float64
	for i := 0; i < b.N; i++ {
		for _, sigma := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
			model := rram.DefaultDeviceModel()
			model.ProgramSigma = sigma
			design, err := seicore.BuildOneBitADC(q, model, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			e := nn.ErrorRate(nil, design, test, 0)
			if sigma == 0.02 {
				errDefault = e
			}
		}
	}
	b.ReportMetric(100*errDefault, "err_sigma02_%")
}

// BenchmarkAblationCrossbarSize sweeps the crossbar limit and reports
// the SEI energy ratio 256-vs-512 (Table 5's Network-1 pattern).
func BenchmarkAblationCrossbarSize(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		var e512, e256 float64
		for _, size := range []int{512, 256, 128, 64} {
			costs, err := arch.Compare(geoms, size)
			if err != nil {
				b.Fatal(err)
			}
			e := costs[2].Energy // SEI
			switch size {
			case 512:
				e512 = e.Total()
			case 256:
				e256 = e.Total()
			}
		}
		ratio = e256 / e512
	}
	b.ReportMetric(ratio, "energy_256v512_x")
}

// BenchmarkAblationHomogMethod compares GA vs greedy vs random
// ordering quality on one split matrix.
func BenchmarkAblationHomogMethod(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	w := q.ConvMatrix(1)
	var gaOverGreedy float64
	for i := 0; i < b.N; i++ {
		const k = 3
		greedy := homog.Distance(w, homog.GreedySerpentine(w, k), k)
		cfg := homog.DefaultGAConfig()
		cfg.Generations = 120
		res, err := homog.Homogenize(w, k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if greedy > 0 {
			gaOverGreedy = res.Distance / greedy
		}
	}
	b.ReportMetric(gaOverGreedy, "ga_over_greedy_x")
}

// BenchmarkAblationDynamicThreshold measures the error delta of the
// dynamic threshold vs the static split on a forced split.
func BenchmarkAblationDynamicThreshold(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	test := c.Test.Subset(100)
	var deltaPP float64
	for i := 0; i < b.N; i++ {
		build := func(dynamic bool) float64 {
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
				b.Fatal(err)
			}
			return nn.ErrorRate(nil, d, test, 0)
		}
		deltaPP = 100 * (build(false) - build(true))
	}
	b.ReportMetric(deltaPP, "dyn_gain_pp")
}

// BenchmarkAblationUnipolarMode compares the Section-4.2 unipolar
// linear-transform realization against the bipolar default.
func BenchmarkAblationUnipolarMode(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	test := c.Test.Subset(100)
	var uniErr float64
	for i := 0; i < b.N; i++ {
		cfg := seicore.DefaultSEIBuildConfig()
		cfg.Layer.Mode = seicore.ModeUnipolarDynamic
		cfg.DynamicThreshold = false
		d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		uniErr = nn.ErrorRate(nil, d, test, 0)
	}
	b.ReportMetric(100*uniErr, "unipolar_err_%")
}

// BenchmarkVGGScale regenerates the Section-2.3 VGG-19 motivation
// numbers and the cost model at that scale.
func BenchmarkVGGScale(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.VGGAnalysis()
		if err != nil {
			b.Fatal(err)
		}
		saving = res.Saving
	}
	b.ReportMetric(100*saving, "vgg_saving_%")
}

// BenchmarkTimingStudy regenerates the Section-5.3 buffer/time
// trade-off rows.
func BenchmarkTimingStudy(b *testing.B) {
	c := benchContext(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TimingStudy(c, 2, 8)
		if err != nil {
			b.Fatal(err)
		}
		// SEI: latency at 1 replica over latency at 8.
		speedup = rows[4].LatencyUS / rows[5].LatencyUS
	}
	b.ReportMetric(speedup, "replica8_speedup_x")
}

// BenchmarkProgramVerify measures the one-time program-and-verify
// write cost of a 128×128 array under default variation.
func BenchmarkProgramVerify(b *testing.B) {
	model := rram.DefaultDeviceModel()
	target := make([]float64, 128*128)
	rng := rand.New(rand.NewSource(1))
	for i := range target {
		target[i] = rng.Float64()
	}
	var pulses float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := rram.ProgramVerify(model, target, rram.DefaultWriteConfig(), rng)
		if err != nil {
			b.Fatal(err)
		}
		pulses = stats.MeanPulses()
	}
	b.ReportMetric(pulses, "pulses/cell")
}

// BenchmarkHDLExport measures golden-RTL generation for Network 2.
func BenchmarkHDLExport(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	var bytesOut int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := hdl.Export(q, &buf); err != nil {
			b.Fatal(err)
		}
		bytesOut = buf.Len()
	}
	b.ReportMetric(float64(bytesOut), "rtl_bytes")
}

// BenchmarkSpikingInference measures one 8-timestep rate-coded
// classification on the digital evaluator.
func BenchmarkSpikingInference(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	img := c.Test.Images[0]
	enc := snn.NewEncoder(1)
	cfg := snn.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snn.Classify(q, q.Digital(), img, cfg, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot kernels ---

// BenchmarkConvForward measures one Network-2 forward pass.
func BenchmarkConvForward(b *testing.B) {
	net := nn.NewTableNetwork(2, 1)
	img := mnist.Synthetic(1, 1).Images[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(img)
	}
}

// BenchmarkQuantizedForward measures one binarized forward pass.
func BenchmarkQuantizedForward(b *testing.B) {
	net := nn.NewTableNetwork(2, 1)
	q, err := quant.Extract(net, []int{1, 28, 28})
	if err != nil {
		b.Fatal(err)
	}
	q.Thresholds = []float64{0.02, 0.02}
	img := mnist.Synthetic(1, 1).Images[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(img)
	}
}

// BenchmarkSEIPredict measures one SEI hardware classification on the
// default dispatch (the bit-packed fast path for the ideal-analog
// default device). allocs/op must be 0 — the zero-allocation contract
// of the fast path; BenchmarkSEIPredictFloat in bench_predict_test.go
// is the float-path baseline it is compared against in bench-reports/history/BENCH_PR4.json.
func BenchmarkSEIPredict(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	img := c.Test.Images[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkSEIPredictInstrumented is BenchmarkSEIPredict with a live
// recorder attached: the delta between the two is the enabled-recorder
// cost per classification. BenchmarkSEIPredict itself (nil recorder)
// doubles as the disabled-overhead guard — the hot path pays one nil
// check per hardware event.
func BenchmarkSEIPredictInstrumented(b *testing.B) {
	c := benchContext(b)
	q := c.QuantizedCalibrated(2)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	d, err := seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	d.Instrument(rec)
	img := c.Test.Images[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(img)
	}
	b.StopTimer()
	if rec.CounterValues()[obs.HWMVMOps] == 0 {
		b.Fatal("instrumented run recorded no MVM ops")
	}
}

// BenchmarkGADistance measures one Equ.-10 evaluation on a
// Network-1-sized FC matrix.
func BenchmarkGADistance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.New(1024, 10)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	order := homog.RandomOrder(1024, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		homog.Distance(w, order, 8)
	}
}

// BenchmarkTrainingEpoch measures one epoch of Network-2 SGD on 100
// samples.
func BenchmarkTrainingEpoch(b *testing.B) {
	data := mnist.Synthetic(100, 1)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := nn.NewTableNetwork(2, 1)
		b.StartTimer()
		nn.Train(net, data, cfg)
	}
}

// TestBenchWorkloadSizing documents the quick-config workload the
// bench suite runs at.
func TestBenchWorkloadSizing(t *testing.T) {
	cfg := experiments.QuickConfig()
	if cfg.TrainSamples != 800 || cfg.TestSamples != 200 {
		t.Fatalf("quick workload changed: %d/%d — update bench docs", cfg.TrainSamples, cfg.TestSamples)
	}
}
