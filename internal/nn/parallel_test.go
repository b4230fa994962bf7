package nn

import (
	"bytes"
	"strings"
	"testing"

	"sei/internal/mnist"
)

func trainedNet(t *testing.T) (*Network, *mnist.Dataset) {
	t.Helper()
	data := mnist.Synthetic(160, 11)
	net := NewTableNetwork(2, 4)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	Train(net, data, cfg)
	return net, data
}

func TestErrorRateWorkersDeterministic(t *testing.T) {
	net, data := trainedNet(t)
	ref := ErrorRate(nil, net, data, 1)
	for _, workers := range []int{2, 8, 0} {
		if got := ErrorRate(nil, net, data, workers); got != ref {
			t.Fatalf("workers=%d: error %.6f != serial %.6f", workers, got, ref)
		}
	}
}

func TestEvalCloneSharesParamsOwnsScratch(t *testing.T) {
	net, data := trainedNet(t)
	clone := net.EvalClone()
	for i := range data.Images {
		if clone.Predict(data.Images[i]) != net.Predict(data.Images[i]) {
			t.Fatalf("clone disagrees with original on sample %d", i)
		}
	}
	// Parameters are shared, not copied.
	po := net.Params()
	pc := clone.Params()
	if len(po) != len(pc) {
		t.Fatalf("clone has %d params, original %d", len(pc), len(po))
	}
	for i := range po {
		if po[i] != pc[i] {
			t.Fatalf("param %d is copied, want shared", i)
		}
	}
}

func TestTrainRejectsNegativeWorkers(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Train with Workers=-1 did not panic")
		}
		if !strings.Contains(r.(string), "negative") {
			t.Fatalf("panic message %q does not explain the error", r)
		}
	}()
	cfg := DefaultTrainConfig()
	cfg.Workers = -1
	Train(NewTableNetwork(2, 1), mnist.Synthetic(4, 1), cfg)
}

func TestTrainLogsValidation(t *testing.T) {
	train, val := mnist.SyntheticSplit(60, 30, 4)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	var buf bytes.Buffer
	cfg.Log = &buf
	cfg.Val = val
	cfg.Workers = 2
	Train(NewTableNetwork(2, 3), train, cfg)
	if !strings.Contains(buf.String(), "val error") {
		t.Fatalf("per-epoch validation not logged:\n%s", buf.String())
	}
}
