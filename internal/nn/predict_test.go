package nn

import (
	"errors"
	"math"
	"testing"

	"sei/internal/mnist"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// panicClassifier simulates an evaluator whose internals blow up on
// structurally valid input — the injected-panic serving case.
type panicClassifier struct{}

func (panicClassifier) Predict(*tensor.Tensor) int { panic("injected evaluator failure") }

func TestValidateImage(t *testing.T) {
	good := tensor.New(1, mnist.Side, mnist.Side)
	if err := ValidateImage(good); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	bad := tensor.New(1, mnist.Side, mnist.Side)
	bad.Data()[5] = math.NaN()
	cases := map[string]*tensor.Tensor{
		"nil":         nil,
		"wrong dims":  tensor.New(mnist.Side, mnist.Side),
		"wrong size":  tensor.New(1, 27, 28),
		"NaN pixel":   bad,
		"extra chans": tensor.New(3, mnist.Side, mnist.Side),
	}
	for name, img := range cases {
		err := ValidateImage(img)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: error %v is not ErrBadInput", name, err)
		}
	}
}

func TestPredictContainsPanics(t *testing.T) {
	img := tensor.New(1, mnist.Side, mnist.Side)
	label, err := Predict(panicClassifier{}, img)
	if err == nil {
		t.Fatal("panic escaped or was swallowed without error")
	}
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("recovered panic error %v is not ErrBadInput", err)
	}
	if label != -1 {
		t.Fatalf("failed prediction label = %d, want -1", label)
	}
}

func TestPredictBatchMatchesErrorRatePredictions(t *testing.T) {
	data := mnist.Synthetic(120, 3)
	net := NewTableNetwork(1, 2)
	for _, workers := range []int{1, 2, 8} {
		res := PredictBatchObs(nil, net, data.Images, workers)
		if len(res) != data.Len() {
			t.Fatalf("got %d results for %d images", len(res), data.Len())
		}
		wrong := 0
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("image %d failed: %v", i, r.Err)
			}
			if r.Label != net.Predict(data.Images[i]) {
				t.Fatalf("workers=%d image %d: batch label %d != serial Predict", workers, i, r.Label)
			}
			if r.Label != data.Labels[i] {
				wrong++
			}
		}
		if got := float64(wrong) / float64(data.Len()); got != ErrorRate(nil, net, data, workers) {
			t.Fatalf("workers=%d: batch error rate %v disagrees with offline evaluation", workers, got)
		}
	}
}

// TestErrorRateCountsBadImageWrong: an image the predict path rejects
// (here a NaN pixel) counts as a misclassification instead of
// panicking the evaluation.
func TestErrorRateCountsBadImageWrong(t *testing.T) {
	data := mnist.Synthetic(40, 4)
	net := NewTableNetwork(2, 2)
	bad := data.Images[9].Clone()
	bad.Data()[100] = math.NaN()
	data.Images[9] = bad
	wrong := 1
	for i, img := range data.Images {
		if i != 9 && net.Predict(img) != data.Labels[i] {
			wrong++
		}
	}
	for _, workers := range []int{1, 2} {
		if got, want := ErrorRate(nil, net, data, workers), float64(wrong)/float64(data.Len()); got != want {
			t.Fatalf("workers=%d: ErrorRate %v, want %v (NaN image counted wrong)", workers, got, want)
		}
	}
}

func TestPredictBatchIsolatesBadImages(t *testing.T) {
	data := mnist.Synthetic(40, 4)
	net := NewTableNetwork(1, 2)
	imgs := append([]*tensor.Tensor(nil), data.Images...)
	imgs[7] = nil
	imgs[23] = tensor.New(2, 2) // provokes the shape path
	rec := obs.New()
	res := PredictBatchObs(rec, net, imgs, 2)
	for i, r := range res {
		switch i {
		case 7, 23:
			if !errors.Is(r.Err, ErrBadInput) {
				t.Fatalf("bad image %d: err = %v, want ErrBadInput", i, r.Err)
			}
		default:
			if r.Err != nil {
				t.Fatalf("good image %d poisoned by bad neighbours: %v", i, r.Err)
			}
			if r.Label != net.Predict(data.Images[i]) {
				t.Fatalf("good image %d label changed", i)
			}
		}
	}
	if got := rec.CounterValues()[MetricEvalImages]; got != int64(len(imgs)) {
		t.Fatalf("eval_images = %d, want %d", got, len(imgs))
	}
}

func TestPredictBatchCountsContainedPanics(t *testing.T) {
	rec := obs.New()
	imgs := []*tensor.Tensor{tensor.New(1, mnist.Side, mnist.Side)}
	res := PredictBatchObs(rec, panicClassifier{}, imgs, 1)
	if !errors.Is(res[0].Err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", res[0].Err)
	}
	if got := rec.CounterValues()[MetricPredictPanics]; got != 1 {
		t.Fatalf("predict_panics = %d, want 1", got)
	}
}
