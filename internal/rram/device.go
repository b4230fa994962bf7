// Package rram is a behavioural model of metal-oxide RRAM devices: the
// cells of the analog matrix-vector-multiplication substrate the paper
// maps CNN layers onto. It holds the device model, the bit slicing of
// weights onto device-precision cells, and the program-and-verify
// write model. The crossbar read-out itself — column sums of
// programmed cells, perturbed by the device — lives in package seicore
// (readout.go), shared by every inference path.
//
// It replaces the paper's SPICE-level Verilog-A device model [21] with
// the behaviour that actually drives the accuracy results: discrete
// conductance levels (the paper uses 4-bit devices), finite on/off
// ratio, lognormal programming variation, optional read noise,
// stuck-at faults, a first-order IR-drop degradation factor and sinh
// I-V nonlinearity. MNSIM and NeuroSim take the same behavioural
// approach.
package rram

import (
	"fmt"
	"math"
	"math/rand"
)

// DeviceModel describes one RRAM cell's programmable behaviour.
type DeviceModel struct {
	// Bits is the programming precision; the device supports 2^Bits
	// conductance levels. The paper's devices are 4-bit ("state-of-the-
	// art RRAM devices can only support 4 to 6 bit of resistance
	// levels" [13]).
	Bits int
	// GOn and GOff are the maximum and minimum conductances in siemens.
	// Defaults follow the HfOx/AlOx literature the paper cites:
	// R_on ≈ 10 kΩ, R_off ≈ 1 MΩ.
	GOn, GOff float64
	// ProgramSigma is the lognormal sigma of programming variation:
	// a programmed conductance g becomes g·exp(σ·N(0,1)), the standard
	// device-variation model [21].
	ProgramSigma float64
	// ReadNoiseSigma is the relative Gaussian noise applied at read
	// time: to each column current (the default), or — with
	// ReadNoisePerCell — to each selected cell's current individually.
	ReadNoiseSigma float64
	// ReadNoisePerCell selects the finer-grained read-noise model: one
	// independent N(0, ReadNoiseSigma²) draw per selected cell, so a
	// column's perturbation is Σ σ·w·g over its active cells instead of
	// one multiplicative σ·g on the summed current. Column sums then
	// concentrate as active-cell counts grow (variance Σw² rather than
	// (Σw)²), matching per-device noise characterization; the default
	// per-column model remains the pessimistic envelope the Table 5
	// experiments use. Ignored when ReadNoiseSigma is zero.
	ReadNoisePerCell bool
	// StuckOnRate and StuckOffRate are the probabilities that a cell is
	// faulty and reads as GOn or GOff regardless of programming.
	StuckOnRate, StuckOffRate float64
	// IRDropAlpha is a first-order IR-drop degradation coefficient: the
	// column current is scaled by 1 − α·(activeRows/512), modelling the
	// wire-resistance loss that limits crossbars to 512×512 [15].
	// Zero disables the effect.
	IRDropAlpha float64
	// IVNonlinearity is the read voltage expressed in units of the
	// device's sinh-conduction scale V₀ (see iv.go). Zero selects ideal
	// linear conduction.
	IVNonlinearity float64
}

// DefaultDeviceModel returns the paper's experimental device: 4-bit
// precision with mild programming variation and no injected faults.
func DefaultDeviceModel() DeviceModel {
	return DeviceModel{
		Bits:           4,
		GOn:            100e-6, // 10 kΩ
		GOff:           1e-6,   // 1 MΩ
		ProgramSigma:   0.02,
		ReadNoiseSigma: 0,
		IRDropAlpha:    0,
	}
}

// IdealDeviceModel returns a noiseless, fault-free device, used by
// equivalence tests between hardware and digital paths.
func IdealDeviceModel(bits int) DeviceModel {
	return DeviceModel{Bits: bits, GOn: 100e-6, GOff: 1e-6}
}

// Validate checks the model's physical consistency.
func (m DeviceModel) Validate() error {
	if m.Bits < 1 || m.Bits > 8 {
		return fmt.Errorf("rram: device bits %d outside [1,8]", m.Bits)
	}
	if m.GOn <= m.GOff || m.GOff < 0 {
		return fmt.Errorf("rram: conductance range [%g,%g] invalid", m.GOff, m.GOn)
	}
	if m.ProgramSigma < 0 || m.ReadNoiseSigma < 0 {
		return fmt.Errorf("rram: negative noise sigma")
	}
	if m.StuckOnRate < 0 || m.StuckOffRate < 0 || m.StuckOnRate+m.StuckOffRate > 1 {
		return fmt.Errorf("rram: stuck rates %g/%g invalid", m.StuckOnRate, m.StuckOffRate)
	}
	if m.IRDropAlpha < 0 || m.IRDropAlpha >= 1 {
		return fmt.Errorf("rram: IR-drop alpha %g outside [0,1)", m.IRDropAlpha)
	}
	if m.IVNonlinearity < 0 {
		return fmt.Errorf("rram: IV nonlinearity %g negative", m.IVNonlinearity)
	}
	return nil
}

// Levels returns the number of programmable conductance levels.
func (m DeviceModel) Levels() int { return 1 << m.Bits }

// MaxLevel returns the highest programmable level index.
func (m DeviceModel) MaxLevel() int { return m.Levels() - 1 }

// LevelConductance returns the nominal conductance of a level, spacing
// levels linearly between GOff and GOn (linear-G tuning, as in the
// paper's reference [13]).
func (m DeviceModel) LevelConductance(level int) float64 {
	if level < 0 || level > m.MaxLevel() {
		panic(fmt.Sprintf("rram: level %d outside [0,%d]", level, m.MaxLevel()))
	}
	return m.GOff + float64(level)/float64(m.MaxLevel())*(m.GOn-m.GOff)
}

// QuantizeToLevel maps a normalized weight in [0,1] to the nearest
// level index. Out-of-range values clamp to the nearest level; NaN
// (which compares false against both clamp bounds and would otherwise
// flow through math.Round into an out-of-range level) programs the
// lowest level, the same cell state an unprogrammed device holds.
func (m DeviceModel) QuantizeToLevel(v float64) int {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return int(math.Round(v * float64(m.MaxLevel())))
}

// ProgramConductance returns the conductance a cell actually holds
// after programming the given level: the nominal value perturbed by
// lognormal variation and possibly replaced by a stuck fault.
func (m DeviceModel) ProgramConductance(level int, rng *rand.Rand) float64 {
	if m.StuckOnRate > 0 || m.StuckOffRate > 0 {
		r := rng.Float64()
		if r < m.StuckOnRate {
			return m.GOn
		}
		if r < m.StuckOnRate+m.StuckOffRate {
			return m.GOff
		}
	}
	g := m.LevelConductance(level)
	if m.ProgramSigma > 0 {
		g *= math.Exp(m.ProgramSigma * rng.NormFloat64())
	}
	// A device cannot hold conductance outside its physical range.
	if g > m.GOn*1.5 {
		g = m.GOn * 1.5
	}
	if g < m.GOff*0.5 {
		g = m.GOff * 0.5
	}
	return g
}
