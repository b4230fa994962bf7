package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"sei/internal/arch"
	"sei/internal/nn"
	"sei/internal/par"
	"sei/internal/power"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// ParetoPoint is one device design point: precision and variation
// against accuracy and energy.
type ParetoPoint struct {
	DeviceBits int
	Sigma      float64
	ErrorRate  float64
	EnergyUJ   float64
	// Dominated marks points that another point beats on both axes.
	Dominated bool
}

// ParetoStudy sweeps device precision × programming variation for the
// SEI design of one network and marks the accuracy/energy Pareto
// frontier. It quantifies the paper's device-choice argument: 4-bit
// cells (two per weight slice) sit on the frontier because fewer bits
// multiply the cell count while more bits exceed what state-of-the-art
// devices can hold [13].
func ParetoStudy(c *Context, networkID int, bitsList []int, sigmas []float64) ([]ParetoPoint, error) {
	q := c.QuantizedCalibrated(networkID)
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return nil, err
	}
	costs, err := arch.Compare(geoms, rram.MaxCrossbarSize)
	if err != nil {
		return nil, err
	}
	test := c.Test.Subset(200)

	// Energy per precision. The mapper's accounting assumes 4-bit
	// devices (2 slices); scale the data-dependent portion of the SEI
	// entry by the slice ratio.
	e := costs[2].Energy
	energyFor := make([]float64, len(bitsList))
	for bi, bits := range bitsList {
		sliceRatio := float64(rram.SliceCount(rram.WeightBits, bits)) / float64(rram.SliceCount(rram.WeightBits, 4))
		energyFor[bi] = power.MicroJoules(power.Breakdown{
			DAC: e.DAC, ADC: e.ADC, SA: e.SA, Digital: e.Digital,
			Buffer: e.Buffer, DRAM: e.DRAM,
			RRAM:   e.RRAM * sliceRatio,
			Driver: e.Driver * sliceRatio,
		})
	}

	// The grid points are independent designs: build and evaluate each
	// in its own slot, evaluation on the serial inner path. Each point
	// seeds its own RNG, so results match the serial sweep exactly.
	sp := c.Cfg.Obs.StartSpan("evaluate/pareto")
	defer sp.End()
	points := make([]ParetoPoint, len(bitsList)*len(sigmas))
	errs := make([]error, len(points))
	var done atomic.Int64
	par.ForEachChunkRec(c.Cfg.Obs, c.Cfg.Workers, len(points), 1, func(ch par.Chunk) {
		i := ch.Lo
		bits, sigma := bitsList[i/len(sigmas)], sigmas[i%len(sigmas)]
		model := rram.IdealDeviceModel(bits)
		model.ProgramSigma = sigma
		design, err := seicore.BuildOneBitADC(q, model, rand.New(rand.NewSource(c.Cfg.Seed)))
		if err != nil {
			errs[i] = err
			return
		}
		design.Instrument(c.Cfg.Obs)
		points[i] = ParetoPoint{
			DeviceBits: bits,
			Sigma:      sigma,
			ErrorRate:  nn.ErrorRate(c.Cfg.Obs, design, test, 1),
			EnergyUJ:   energyFor[i/len(sigmas)],
		}
		c.Cfg.Obs.Progress("pareto points", int(done.Add(1)), len(points))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	markDominated(points)
	return points, nil
}

// markDominated flags points strictly worse than another on both axes.
func markDominated(points []ParetoPoint) {
	for i := range points {
		for j := range points {
			if i == j {
				continue
			}
			if points[j].ErrorRate <= points[i].ErrorRate &&
				points[j].EnergyUJ <= points[i].EnergyUJ &&
				(points[j].ErrorRate < points[i].ErrorRate || points[j].EnergyUJ < points[i].EnergyUJ) {
				points[i].Dominated = true
				break
			}
		}
	}
}

// PrintPareto renders the sweep with frontier markers.
func PrintPareto(w io.Writer, networkID int, points []ParetoPoint) {
	fmt.Fprintf(w, "Device Pareto study (Network %d, SEI): accuracy vs energy\n", networkID)
	fmt.Fprintf(w, "  %-6s %-7s %9s %12s %9s\n", "bits", "sigma", "error", "energy(uJ)", "frontier")
	for _, p := range points {
		mark := "*"
		if p.Dominated {
			mark = ""
		}
		fmt.Fprintf(w, "  %-6d %-7.2f %8.2f%% %12.3f %9s\n",
			p.DeviceBits, p.Sigma, 100*p.ErrorRate, p.EnergyUJ, mark)
	}
}
