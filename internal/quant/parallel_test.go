package quant

import (
	"testing"

	"sei/internal/mnist"
	"sei/internal/nn"
)

// searchedNet returns a freshly extracted+searched quantized net for
// the given worker count, from identical starting weights.
func searchedNet(t *testing.T, train *mnist.Dataset, workers int) (*QuantizedNet, *SearchReport) {
	t.Helper()
	net := trainedNet2(t)
	q, err := Extract(net, []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSearchConfig()
	cfg.Samples = 200
	cfg.Workers = workers
	report, err := SearchThresholds(q, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q, report
}

func TestSearchThresholdsWorkerCountInvariant(t *testing.T) {
	train := mnist.Synthetic(300, 5)
	refQ, refR := searchedNet(t, train, 1)
	for _, workers := range []int{2, 8, 0} {
		q, r := searchedNet(t, train, workers)
		for l := range refQ.Thresholds {
			if q.Thresholds[l] != refQ.Thresholds[l] {
				t.Fatalf("workers=%d: threshold[%d] = %v, serial %v",
					workers, l, q.Thresholds[l], refQ.Thresholds[l])
			}
			if r.Layers[l].MaxOutput != refR.Layers[l].MaxOutput {
				t.Fatalf("workers=%d: maxOut[%d] = %v, serial %v",
					workers, l, r.Layers[l].MaxOutput, refR.Layers[l].MaxOutput)
			}
			if r.Layers[l].Accuracy != refR.Layers[l].Accuracy {
				t.Fatalf("workers=%d: accuracy[%d] = %v, serial %v",
					workers, l, r.Layers[l].Accuracy, refR.Layers[l].Accuracy)
			}
		}
		// The re-scaled weights must be bit-identical too.
		for l := range refQ.Convs {
			a, b := refQ.Convs[l].W.Data(), q.Convs[l].W.Data()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: conv %d weight %d differs", workers, l, i)
				}
			}
		}
	}
}

func TestErrorRateWorkersInvariant(t *testing.T) {
	train := mnist.Synthetic(300, 5)
	test := mnist.Synthetic(200, 6)
	q, _ := searchedNet(t, train, 0)
	ref := nn.ErrorRate(nil, q, test, 1)
	for _, workers := range []int{2, 8, 0} {
		if got := nn.ErrorRate(nil, q, test, workers); got != ref {
			t.Fatalf("workers=%d: error %.6f != serial %.6f", workers, got, ref)
		}
	}
}

func TestSearchRejectsNegativeWorkers(t *testing.T) {
	net := trainedNet2(t)
	q, err := Extract(net, []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSearchConfig()
	cfg.Workers = -2
	if _, err := SearchThresholds(q, mnist.Synthetic(10, 1), cfg); err == nil {
		t.Fatal("SearchThresholds accepted negative Workers")
	}
	rcfg := DefaultRefineConfig()
	rcfg.Workers = -1
	if _, err := RefineThresholds(q, mnist.Synthetic(10, 1), rcfg); err == nil {
		t.Fatal("RefineThresholds accepted negative Workers")
	}
	ccfg := DefaultRecalibrateConfig()
	ccfg.Workers = -1
	if err := RecalibrateFC(q, mnist.Synthetic(10, 1), ccfg); err == nil {
		t.Fatal("RecalibrateFC accepted negative Workers")
	}
}
