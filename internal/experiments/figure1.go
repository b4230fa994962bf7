package experiments

import (
	"fmt"
	"io"

	"sei/internal/arch"
	"sei/internal/power"
	"sei/internal/rram"
)

// Figure1Row is one bar of Fig. 1: a layer's power or area split into
// the paper's four segments (DAC / ADC / RRAM / Other), as fractions
// of the layer total.
type Figure1Row struct {
	Layer string
	DAC   float64
	ADC   float64
	RRAM  float64
	Other float64
}

// Figure1Result reproduces Fig. 1: per-layer and total power and area
// consumption breakdowns of the 4-layer Network 1 with 8-bit data on
// the traditional DAC+ADC structure.
type Figure1Result struct {
	NetworkID int
	Power     []Figure1Row // Conv 1, Conv 2, FC, Total
	Area      []Figure1Row
	// InterfacePowerFraction and InterfaceAreaFraction back the paper's
	// ">98% of the area and power" claim.
	InterfacePowerFraction float64
	InterfaceAreaFraction  float64
	// InputDACFraction is the input layer's DAC share of total energy
	// (Section 3.2: ≈3%).
	InputDACFraction float64
	TotalEnergyUJ    float64
	TotalAreaMM2     float64
}

// Figure1 runs the Fig.-1 analysis on Network 1 (or another Table-2
// network) with the default component library.
func Figure1(c *Context, networkID int) (*Figure1Result, error) {
	q := c.Quantized(networkID) // geometry only; thresholds irrelevant here
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return nil, err
	}
	costs, err := arch.Compare(geoms, rram.MaxCrossbarSize)
	if err != nil {
		return nil, err
	}
	base := costs[0] // DAC+ADC
	perE, totalE := base.Mapping.Energy()
	perA, totalA := base.Mapping.Area()

	res := &Figure1Result{
		NetworkID:              networkID,
		InterfacePowerFraction: totalE.InterfaceFraction(),
		InterfaceAreaFraction:  totalA.InterfaceFraction(),
		TotalEnergyUJ:          power.MicroJoules(totalE),
		TotalAreaMM2:           power.SquareMM(totalA),
	}
	if totalE.Total() > 0 {
		res.InputDACFraction = perE[0].DAC / totalE.Total()
	}
	row := func(name string, b power.Breakdown) Figure1Row {
		t := b.Total()
		if t == 0 {
			return Figure1Row{Layer: name}
		}
		return Figure1Row{
			Layer: name,
			DAC:   b.DAC / t,
			ADC:   b.ADC / t,
			RRAM:  b.RRAM / t,
			Other: b.Other() / t,
		}
	}
	for i, g := range geoms {
		res.Power = append(res.Power, row(g.Name, perE[i]))
		res.Area = append(res.Area, row(g.Name, perA[i]))
	}
	res.Power = append(res.Power, row("Total", totalE))
	res.Area = append(res.Area, row("Total", totalA))
	return res, nil
}

// Print renders the result in the layout of Fig. 1.
func (r *Figure1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: power and area breakdown, Network %d, 8-bit data, DAC+ADC structure\n", r.NetworkID)
	fmt.Fprintf(w, "  total energy %.2f uJ/picture, total area %.3f mm^2\n", r.TotalEnergyUJ, r.TotalAreaMM2)
	print := func(kind string, rows []Figure1Row) {
		fmt.Fprintf(w, "  %s breakdown:\n    %-8s %7s %7s %7s %7s   %s\n", kind, "layer", "DAC", "ADC", "RRAM", "Other", "D=DAC A=ADC R=RRAM o=other")
		for _, row := range rows {
			bar := power.Bar(power.Breakdown{DAC: row.DAC, ADC: row.ADC, RRAM: row.RRAM, Digital: row.Other}, 32)
			fmt.Fprintf(w, "    %-8s %6.1f%% %6.1f%% %6.2f%% %6.2f%%   |%s|\n",
				row.Layer, 100*row.DAC, 100*row.ADC, 100*row.RRAM, 100*row.Other, bar)
		}
	}
	print("power", r.Power)
	print("area", r.Area)
	fmt.Fprintf(w, "  interfaces: %.1f%% of power, %.1f%% of area (paper: >98%%)\n",
		100*r.InterfacePowerFraction, 100*r.InterfaceAreaFraction)
	fmt.Fprintf(w, "  input-layer DACs: %.1f%% of energy (paper Sec 3.2: ~3%%)\n", 100*r.InputDACFraction)
}
