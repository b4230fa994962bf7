package snn

import (
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/tensor"
)

var fixture struct {
	q    *quant.QuantizedNet
	test *mnist.Dataset
}

func getFixture(t *testing.T) (*quant.QuantizedNet, *mnist.Dataset) {
	t.Helper()
	if fixture.q == nil {
		train := mnist.Synthetic(1500, 5)
		net := nn.NewTableNetwork(2, 7)
		nn.Train(net, train, nn.DefaultTrainConfig())
		cfg := quant.DefaultSearchConfig()
		cfg.Samples = 250
		q, _, err := quant.QuantizeNetwork(net, train, []int{1, 28, 28}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := quant.RecalibrateFC(q, train, quant.DefaultRecalibrateConfig()); err != nil {
			t.Fatal(err)
		}
		fixture.q = q
		fixture.test = mnist.Synthetic(150, 99)
	}
	return fixture.q, fixture.test
}

func TestEncoderRatesConverge(t *testing.T) {
	img := tensor.New(1, 28, 28)
	img.Data()[0] = 0.8
	img.Data()[1] = 0.2
	img.Data()[2] = 1.0
	enc := NewEncoder(1)
	const frames = 3000
	sum := tensor.New(1, 28, 28)
	for i := 0; i < frames; i++ {
		sum.AddInPlace(enc.Frame(img))
	}
	sum.Scale(1.0 / frames)
	if r := sum.Data()[0]; r < 0.76 || r > 0.84 {
		t.Fatalf("rate for 0.8 pixel: %v", r)
	}
	if r := sum.Data()[1]; r < 0.16 || r > 0.24 {
		t.Fatalf("rate for 0.2 pixel: %v", r)
	}
	if sum.Data()[2] != 1 {
		t.Fatalf("rate for saturated pixel: %v", sum.Data()[2])
	}
	if sum.Data()[3] != 0 {
		t.Fatalf("rate for zero pixel: %v", sum.Data()[3])
	}
}

func TestEncoderFramesAreBinary(t *testing.T) {
	img := mnist.Synthetic(1, 3).Images[0]
	enc := NewEncoder(2)
	for i := 0; i < 5; i++ {
		f := enc.Frame(img)
		for _, v := range f.Data() {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary spike %v", v)
			}
		}
	}
}

func TestEncoderPanicsOnBadPixels(t *testing.T) {
	img := tensor.New(1, 28, 28)
	img.Data()[5] = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("accepted pixel > 1")
		}
	}()
	NewEncoder(1).Frame(img)
}

func TestErrorRateDeterministic(t *testing.T) {
	q, test := getFixture(t)
	sub := test.Subset(40)
	cfg := Config{Timesteps: 2, Seed: 9}
	a, err := ErrorRate(q, q.Digital(), sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErrorRate(q, q.Digital(), sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("spiking evaluation not deterministic: %v vs %v", a, b)
	}
}

func TestMoreTimestepsHelp(t *testing.T) {
	q, test := getFixture(t)
	sub := test.Subset(100)
	var curve [2]float64
	for i, steps := range []int{1, 16} {
		e, err := ErrorRate(q, q.Digital(), sub, Config{Timesteps: steps, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		curve[i] = e
	}
	analog := nn.ErrorRate(nil, q, sub, 0)
	t.Logf("analog %.4f, 1 step %.4f, 16 steps %.4f", analog, curve[0], curve[1])
	if curve[1] > curve[0]+0.02 {
		t.Fatalf("16 timesteps (%.4f) worse than 1 (%.4f)", curve[1], curve[0])
	}
	if curve[1] > analog+0.10 {
		t.Fatalf("16-step spiking error %.4f far above analog %.4f", curve[1], analog)
	}
}

func TestClassifyValidation(t *testing.T) {
	q, test := getFixture(t)
	enc := NewEncoder(1)
	if _, err := Classify(q, q.Digital(), test.Images[0], Config{Timesteps: 0}, enc); err == nil {
		t.Fatal("accepted zero timesteps")
	}
}
