// Package snn implements the paper's Section-6 outlook: using the SEI
// structure "to support other applications using 1-bit data like
// RRAM-based Spiking Neural Networks". It rate-codes analog inputs
// into Bernoulli spike trains so that even the input layer sees 1-bit
// data — removing the last DACs of the SEI design — and sums the
// classifier's scores over timesteps.
package snn

import (
	"fmt"
	"math/rand"

	"sei/internal/mnist"
	"sei/internal/quant"
	"sei/internal/tensor"
)

// Encoder converts an analog image into binary spike frames.
type Encoder struct {
	rng *rand.Rand
}

// NewEncoder returns a deterministic rate encoder seeded with seed.
func NewEncoder(seed int64) *Encoder {
	return &Encoder{rng: rand.New(rand.NewSource(seed))}
}

// Frame draws one Bernoulli spike frame: pixel p spikes with
// probability equal to its intensity, so the spike rate over many
// frames converges to the analog value.
func (e *Encoder) Frame(img *tensor.Tensor) *tensor.Tensor {
	spikes := tensor.New(img.Shape()...)
	for p, v := range img.Data() {
		if v < 0 || v > 1 {
			panic(fmt.Sprintf("snn: pixel %d = %v outside [0,1]", p, v))
		}
		if e.rng.Float64() < v {
			spikes.Data()[p] = 1
		}
	}
	return spikes
}

// Config controls spiking classification.
type Config struct {
	Timesteps int
	Seed      int64
}

// DefaultConfig uses 8 timesteps.
func DefaultConfig() Config {
	return Config{Timesteps: 8, Seed: 1}
}

// Classify runs the quantized network (under the given hardware
// evaluator — pass q.Digital() for the software path or an SEI design)
// on rate-coded spike frames of img and returns the class whose scores
// summed over the timesteps are highest (population-rate readout).
func Classify(q *quant.QuantizedNet, eval quant.StageEval, img *tensor.Tensor, cfg Config, enc *Encoder) (int, error) {
	if cfg.Timesteps < 1 {
		return 0, fmt.Errorf("snn: timesteps %d < 1", cfg.Timesteps)
	}
	numClasses := q.FC.W.Dim(0)
	scores := make([]float64, numClasses)
	for step := 0; step < cfg.Timesteps; step++ {
		out := q.ForwardWith(eval, enc.Frame(img))
		for c, v := range out {
			scores[c] += v
		}
	}
	return tensor.FromSlice(scores, numClasses).ArgMax(), nil
}

// ErrorRate evaluates spiking classification over a dataset. One
// encoder drives the whole evaluation so results are reproducible for
// a fixed cfg.Seed.
func ErrorRate(q *quant.QuantizedNet, eval quant.StageEval, data *mnist.Dataset, cfg Config) (float64, error) {
	enc := NewEncoder(cfg.Seed)
	wrong := 0
	for i, img := range data.Images {
		got, err := Classify(q, eval, img, cfg, enc)
		if err != nil {
			return 0, err
		}
		if got != data.Labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(data.Len()), nil
}
