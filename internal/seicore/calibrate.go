package seicore

// gammaFactors are the multiples of the auto-derived per-active-input
// unit the dynamic-threshold optimization of Section 4.3 ("we use the
// Training Set to optimize the interval of dynamic threshold") tries
// for the slope γ, each against every digital count threshold D in
// 1..K. The grid is positive because the paper's compensation always
// lowers the threshold of blocks with fewer active inputs (γ ≥ 0); 0
// keeps static thresholds reachable.
var gammaFactors = []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2}

// CalibrationResult reports the calibration outcome.
type CalibrationResult struct {
	Gamma            float64
	DigitalThreshold int
	OnesMean         []float64
	// AgreementBefore/After are the calibration images' classification
	// accuracies with static majority settings vs the chosen settings.
	AgreementBefore, AgreementAfter float64
}
