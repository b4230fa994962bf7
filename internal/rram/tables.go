package rram

// Device-model parameters in table form. The behavioural model's
// methods recompute level conductances and re-read individual model
// fields on every call; the hot paths — programming a large matrix,
// and the packed inference walker (seicore/fast.go) —
// want the same information resolved once: a nominal conductance per
// level, and the read-out coefficients that decide which inference
// path a device model is eligible for.

// ReadoutParams is a device model's read-time behaviour, resolved into
// the coefficients the inference paths consume directly.
type ReadoutParams struct {
	// NoiseSigma is the relative read-noise sigma; zero = noiseless.
	NoiseSigma float64
	// PerCell selects the per-selected-cell noise model (one Gaussian
	// per active cell) over the default per-column model (one Gaussian
	// per column current).
	PerCell bool
	// IRAlpha is the first-order IR-drop coefficient on the column
	// current; zero = no wire loss.
	IRAlpha float64
	// IVUnits is the read voltage in sinh-conduction units V₀; zero =
	// linear conduction.
	IVUnits float64
}

// Readout resolves the model's read-time parameters.
func (m DeviceModel) Readout() ReadoutParams {
	return ReadoutParams{
		NoiseSigma: m.ReadNoiseSigma,
		PerCell:    m.ReadNoisePerCell && m.ReadNoiseSigma > 0,
		IRAlpha:    m.IRDropAlpha,
		IVUnits:    m.IVNonlinearity,
	}
}

// Ideal reports a fully exact read-out: no noise, no IR drop, no I-V
// nonlinearity. Programming-time effects (variation, stuck faults,
// level quantization) are not read-out effects — they are baked into
// effective weights at programming time and never disqualify an exact
// path.
func (p ReadoutParams) Ideal() bool {
	return p.NoiseSigma == 0 && p.IRAlpha == 0 && p.IVUnits == 0
}

// Linear reports whether the device conducts linearly at the read
// voltage. The packed non-ideal paths require it: noise and IR drop
// commute with the packed column sums, the sinh transfer on analog
// inputs does not.
func (p ReadoutParams) Linear() bool { return p.IVUnits == 0 }

// LevelTable returns the nominal conductance of every programmable
// level, levels 0..MaxLevel — LevelConductance in table form, for
// programming loops that touch each of a matrix's cells.
func (m DeviceModel) LevelTable() []float64 {
	t := make([]float64, m.Levels())
	for lvl := range t {
		t[lvl] = m.LevelConductance(lvl)
	}
	return t
}
