package nn

import (
	"fmt"
	"io"
	"math/rand"

	"sei/internal/mnist"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	LRDecay   float64   // multiplicative LR decay applied per epoch
	Seed      int64     // shuffling seed
	Log       io.Writer // optional progress sink; nil silences logging

	// Val, when set, is evaluated after every epoch and its error
	// rate logged. Validation runs on the parallel engine with
	// Workers goroutines (0 = all cores, 1 = serial); the gradient
	// loop itself stays serial because SGD is order-dependent.
	Val     *mnist.Dataset
	Workers int

	// Obs, when set, receives training counters (train_images,
	// train_batches) and per-epoch progress; nil disables recording.
	Obs *obs.Recorder
}

// DefaultTrainConfig returns settings that train the Table-2 networks
// to low error on the synthetic MNIST task.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:    3,
		BatchSize: 16,
		LR:        0.05,
		Momentum:  0.9,
		LRDecay:   0.7,
		Seed:      1,
	}
}

// Train runs minibatch SGD with momentum over the dataset and returns
// the average loss of the final epoch.
func Train(net *Network, data *mnist.Dataset, cfg TrainConfig) float64 {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		panic(fmt.Sprintf("nn: invalid train config %+v", cfg))
	}
	if cfg.Workers < 0 {
		panic(fmt.Sprintf("nn: train config Workers %d is negative (0 means all cores, 1 the serial path)", cfg.Workers))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := net.Params()
	vel := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vel[i] = tensor.New(p.Value.Shape()...)
	}

	// Work on a shuffled copy of the sample order, not the caller's
	// dataset.
	idx := make([]int, data.Len())
	for i := range idx {
		idx[i] = i
	}

	lr := cfg.LR
	lastEpochLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		seen := 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			net.ZeroGrads()
			batchLoss := 0.0
			for _, s := range idx[start:end] {
				logits := net.Forward(data.Images[s])
				loss, grad := CrossEntropyLoss(logits, data.Labels[s])
				batchLoss += loss
				net.Backward(grad)
			}
			bs := float64(end - start)
			for i, p := range params {
				v := vel[i]
				v.Scale(cfg.Momentum)
				v.AXPY(-lr/bs, p.Grad)
				p.Value.AddInPlace(v)
			}
			epochLoss += batchLoss
			seen += end - start
			cfg.Obs.Counter("train_images").Add(int64(end - start))
			cfg.Obs.Counter("train_batches").Add(1)
		}
		lastEpochLoss = epochLoss / float64(seen)
		cfg.Obs.Progress("train/"+net.Name, epoch+1, cfg.Epochs)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "nn: %s epoch %d/%d loss %.4f lr %.4f\n",
				net.Name, epoch+1, cfg.Epochs, lastEpochLoss, lr)
		}
		if cfg.Val != nil && cfg.Val.Len() > 0 {
			valErr := ErrorRate(cfg.Obs, net, cfg.Val, cfg.Workers)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "nn: %s epoch %d/%d val error %.2f%%\n",
					net.Name, epoch+1, cfg.Epochs, 100*valErr)
			}
		}
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return lastEpochLoss
}

// Classifier is anything that maps an image to a class. The quantized
// and hardware-mapped networks implement it alongside *Network.
type Classifier interface {
	Predict(in *tensor.Tensor) int
}
