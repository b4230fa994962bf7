package sei

import (
	"bytes"
	"strings"
	"testing"
)

func TestSyntheticSplitSizes(t *testing.T) {
	train, test := SyntheticSplit(50, 20, 1)
	if train.Len() != 50 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestLoadMNISTMissingDir(t *testing.T) {
	if _, _, err := LoadMNIST(t.TempDir()); err == nil {
		t.Fatal("LoadMNIST succeeded on empty dir")
	}
}

func TestRunPipelineEndToEnd(t *testing.T) {
	cfg := DefaultPipelineConfig()
	cfg.TrainSamples = 1200
	cfg.TestSamples = 250
	cfg.Epochs = 3
	res, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pipeline: float %.4f quant %.4f sei %.4f, energy %.3f→%.3f uJ (%.1f%% saving), area %.4f→%.4f mm2 (%.1f%%), %.0f GOPs/J",
		res.FloatError, res.QuantError, res.SEIError,
		res.BaseEnergyUJ, res.EnergyUJ, 100*res.EnergySaving,
		res.BaseAreaMM2, res.AreaMM2, 100*res.AreaSaving, res.GOPsPerJ)
	if res.FloatError > 0.25 {
		t.Fatalf("float error %.4f too high", res.FloatError)
	}
	if res.SEIError > res.QuantError+0.10 {
		t.Fatalf("SEI hardware error %.4f far above quantized %.4f", res.SEIError, res.QuantError)
	}
	if res.EnergySaving < 0.90 {
		t.Fatalf("energy saving %.4f < 0.90", res.EnergySaving)
	}
	if res.AreaSaving < 0.70 {
		t.Fatalf("area saving %.4f < 0.70", res.AreaSaving)
	}
	if res.GOPsPerJ <= 0 {
		t.Fatal("no efficiency computed")
	}
}

func TestRunPipelineValidation(t *testing.T) {
	cfg := DefaultPipelineConfig()
	cfg.NetworkID = 9
	if _, err := RunPipeline(cfg); err == nil {
		t.Fatal("accepted invalid network id")
	}
}

func TestStageAPIs(t *testing.T) {
	train, test := SyntheticSplit(800, 150, 3)
	net := TrainTableNetwork(2, train, 3, 7)
	floatErr := EvaluateNetwork(net, test)
	q, err := Quantize(net, train)
	if err != nil {
		t.Fatal(err)
	}
	quantErr := EvaluateQuantized(q, test)
	design, err := BuildDesign(q, train, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	seiErr := EvaluateDesign(design, test)
	t.Logf("float %.4f quant %.4f sei %.4f", floatErr, quantErr, seiErr)
	if seiErr > quantErr+0.10 {
		t.Fatalf("SEI error %.4f far above quantized %.4f", seiErr, quantErr)
	}
	// Facade classifiers are interchangeable.
	var c Classifier = design
	if EvaluateDesign(c, test) != seiErr {
		t.Fatal("Classifier alias broken")
	}
}

func TestRunAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is slow")
	}
	// A drastically reduced configuration that still walks every
	// harness, including Network 1.
	cfg := ExperimentConfig{
		TrainSamples:  400,
		TestSamples:   80,
		Epochs:        1,
		Seed:          1,
		SearchSamples: 80,
		RandomOrders:  2,
		CalibImages:   10,
	}
	var buf bytes.Buffer
	if err := RunAllExperiments(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 1", "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Homogenization study", "Efficiency comparison"} {
		if !strings.Contains(out, want) {
			t.Fatalf("experiment output missing %q", want)
		}
	}
}
