package seicore

// CalibrationConfig controls the dynamic-threshold optimization of
// Section 4.3 ("we use the Training Set to optimize the interval of
// dynamic threshold").
type CalibrationConfig struct {
	// GammaFactors are multiples of the auto-derived per-active-input
	// unit tried for the dynamic slope. 0 must be included so static
	// thresholds remain reachable.
	GammaFactors []float64
	// SearchDigital also searches the digital count threshold D over
	// 1..K instead of keeping the majority default.
	SearchDigital bool
}

// DefaultCalibrationConfig tries a small positive grid (the paper's
// compensation always lowers the threshold of blocks with fewer active
// inputs, i.e. γ ≥ 0) and searches D.
func DefaultCalibrationConfig() CalibrationConfig {
	return CalibrationConfig{
		GammaFactors:  []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2},
		SearchDigital: true,
	}
}

// CalibrationResult reports the calibration outcome.
type CalibrationResult struct {
	Gamma            float64
	DigitalThreshold int
	OnesMean         []float64
	// AgreementBefore/After are the calibration images' classification
	// accuracies with static majority settings vs the chosen settings.
	AgreementBefore, AgreementAfter float64
}
