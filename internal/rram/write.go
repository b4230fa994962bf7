package rram

import (
	"fmt"
	"math"
	"math/rand"
)

// Iterative program-and-verify, the "adaptable variation-tolerant
// algorithm" of the paper's reference [13] (Alibart et al.): each cell
// is pulsed, read back, and re-pulsed until its conductance lands
// within tolerance of the target level, bounding the effect of
// programming variation at the cost of write pulses. This is the
// one-time cost of deploying weights that the per-picture energy
// metric (Table 5) excludes; ProgramVerify quantifies it.

// WriteConfig controls the program-and-verify loop.
type WriteConfig struct {
	// Tolerance is the relative conductance error that passes
	// verification.
	Tolerance float64
	// MaxPulses bounds the attempts per cell; a cell that never
	// verifies (e.g. a stuck fault) is counted as a failure and left at
	// its last state.
	MaxPulses int
	// PulseEnergyPJ is the energy of one SET/RESET pulse plus its
	// verify read.
	PulseEnergyPJ float64
}

// DefaultWriteConfig verifies to 2 % with up to 50 pulses at 10 pJ per
// pulse (nanosecond-scale switching at ~1 V).
func DefaultWriteConfig() WriteConfig {
	return WriteConfig{Tolerance: 0.02, MaxPulses: 50, PulseEnergyPJ: 10}
}

// Validate rejects non-physical write configs.
func (c WriteConfig) Validate() error {
	if c.Tolerance <= 0 || c.MaxPulses < 1 || c.PulseEnergyPJ <= 0 {
		return fmt.Errorf("rram: invalid write config %+v", c)
	}
	return nil
}

// WriteStats reports one programming pass.
type WriteStats struct {
	Cells       int64
	TotalPulses int64
	// FailedCells never verified within MaxPulses.
	FailedCells int64
	// EnergyPJ is TotalPulses · PulseEnergyPJ.
	EnergyPJ float64
	// MaxRelError is the worst relative conductance error among
	// verified cells.
	MaxRelError float64
}

// MeanPulses returns the average pulses per cell.
func (s WriteStats) MeanPulses() float64 {
	if s.Cells == 0 {
		return 0
	}
	return float64(s.TotalPulses) / float64(s.Cells)
}

// ExpectedPulses returns the closed-form mean program-and-verify pulse
// count per cell: a pulse verifies when its lognormal conductance
// error stays within tolerance, so with per-pulse acceptance
// probability p = Φ(ln(1+tol)/σ) − Φ(ln(1−tol)/σ) the attempt count is
// geometric with mean 1/p (capped by MaxPulses). Ideal devices need
// exactly one pulse.
func ExpectedPulses(m DeviceModel, cfg WriteConfig) float64 {
	if m.ProgramSigma == 0 {
		return 1
	}
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	p := phi(math.Log(1+cfg.Tolerance)/m.ProgramSigma) - phi(math.Log(1-cfg.Tolerance)/m.ProgramSigma)
	if p <= 0 {
		return float64(cfg.MaxPulses)
	}
	mean := 1 / p
	if mean > float64(cfg.MaxPulses) {
		return float64(cfg.MaxPulses)
	}
	return mean
}

// DeploymentEnergyPJ estimates the one-time cost of programming
// `cells` devices under the model and write config — the counterpart
// to the per-picture energy of Table 5 that the paper's metric
// excludes. The break-even picture count is this divided by the
// per-picture saving.
func DeploymentEnergyPJ(cells int64, m DeviceModel, cfg WriteConfig) float64 {
	return float64(cells) * ExpectedPulses(m, cfg) * cfg.PulseEnergyPJ
}

// ProgramVerify programs normalized weights in [0,1] — one per cell —
// with iterative program-and-verify: each cell is pulsed until its
// read-back conductance is within cfg.Tolerance of its target level's
// nominal conductance, or until MaxPulses. It returns the final
// conductances, in target's order. Against plain ProgramConductance
// this trades write energy for tighter effective precision. rng may be
// nil only when the model programs deterministically.
func ProgramVerify(m DeviceModel, target []float64, cfg WriteConfig, rng *rand.Rand) ([]float64, WriteStats, error) {
	if err := m.Validate(); err != nil {
		return nil, WriteStats{}, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, WriteStats{}, err
	}
	g := make([]float64, len(target))
	stats := WriteStats{Cells: int64(len(target))}
	for i, v := range target {
		lvl := m.QuantizeToLevel(v)
		nominal := m.LevelConductance(lvl)
		verified := false
		for p := 0; p < cfg.MaxPulses; p++ {
			stats.TotalPulses++
			g[i] = m.ProgramConductance(lvl, rng)
			if rel := math.Abs(g[i]-nominal) / nominal; rel <= cfg.Tolerance {
				verified = true
				if rel > stats.MaxRelError {
					stats.MaxRelError = rel
				}
				break
			}
		}
		if !verified {
			stats.FailedCells++
		}
	}
	stats.EnergyPJ = float64(stats.TotalPulses) * cfg.PulseEnergyPJ
	return g, stats, nil
}
