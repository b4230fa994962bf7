package quant

import (
	"sei/internal/mnist"
	"sei/internal/nn"
)

// QuantizeNetwork is the end-to-end Section-3 pipeline: extract the
// stages of a trained network and run Algorithm 1 on the training set.
// The input network is not mutated (weights are deep-copied by
// Extract before re-scaling).
func QuantizeNetwork(net *nn.Network, train *mnist.Dataset, inShape []int, cfg SearchConfig) (*QuantizedNet, *SearchReport, error) {
	q, err := Extract(net, inShape)
	if err != nil {
		return nil, nil, err
	}
	q.Instrument(cfg.Obs)
	report, err := SearchThresholds(q, train, cfg)
	if err != nil {
		return nil, nil, err
	}
	return q, report, nil
}
