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

// Calibrate runs the calibration passes that follow Algorithm 1
// (DESIGN.md §2) in place: FC recalibration, threshold refinement
// under cfg, then FC recalibration again on the refined features. Both
// recalibrations take DefaultRecalibrateConfig with cfg's Workers and
// Obs. Every caller that deploys a quantized network calibrates it
// through here.
func Calibrate(q *QuantizedNet, train *mnist.Dataset, cfg RefineConfig) error {
	rcfg := DefaultRecalibrateConfig()
	rcfg.Workers = cfg.Workers
	rcfg.Obs = cfg.Obs
	if err := RecalibrateFC(q, train, rcfg); err != nil {
		return err
	}
	if _, err := RefineThresholds(q, train, cfg); err != nil {
		return err
	}
	return RecalibrateFC(q, train, rcfg)
}
