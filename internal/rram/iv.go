package rram

import "math"

// Nonlinear conduction. Metal-oxide RRAM cells conduct as
// I ∝ sinh(V/V₀) rather than linearly (the Al/AlOx/WOx/W devices of
// the paper's reference [16]); at read voltages well below V₀ the
// linear approximation I = G·V holds, and crossbar designs choose
// VRead accordingly. The model here expresses the read voltage in
// units of V₀ through DeviceModel.IVNonlinearity:
//
//	0      — ideal linear conduction (default)
//	VRead/V₀ > 0 — sinh conduction; larger means more distortion
//
// A row driven at x·VRead, x ∈ [0,1], then carries a cell current
// G·VRead·sinh(x·r)/r with r = VRead/V₀. A 1-bit input drives a row at
// either 0 or VRead, so nonlinearity only rescales every contribution
// by the same factor sinh(r)/r, which one-point calibration removes —
// why the quantized/SEI designs are inherently immune to it — whereas
// an analog (DAC-driven) input spreads across the curve and distorts
// the multiply.

// TransferCalibrated returns the transfer normalized at full swing,
// f̂(x) = sinh(x·r)/sinh(r), so f̂(1) = 1. This is what a deployed
// design sees after one-point calibration: full-swing (1-bit) inputs
// are exact and only *intermediate* voltages — analog DAC-driven
// inputs — are distorted (f̂(x) < x for 0 < x < 1).
func (m DeviceModel) TransferCalibrated() func(float64) float64 {
	r := m.IVNonlinearity
	if r <= 0 {
		return func(x float64) float64 { return x }
	}
	denom := math.Sinh(r)
	return func(x float64) float64 { return math.Sinh(x*r) / denom }
}
