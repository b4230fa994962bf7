package experiments

import (
	"fmt"
	"io"

	"sei/internal/arch"
	"sei/internal/power"
	"sei/internal/rram"
)

// Section 2.3 motivates buffering with VGG-19: "there are totally
// 3×10⁷ pieces of intermediate data for processing single picture.
// Without any buffer, all the 10⁹ RRAM cells of all layers need to
// work simultaneously." This file reconstructs those numbers from the
// published VGG-19 configuration and extends the Table-5 cost model to
// that scale.

// vggConv describes one VGG-19 conv layer: input channels, filters,
// and the (square) input feature-map edge at that depth.
type vggConv struct {
	inC, outC, inHW int
}

// vgg19Convs is the standard VGG-19 stack (3×3 kernels, padding 1 —
// output spatial size equals input; pooling between groups halves it).
var vgg19Convs = []vggConv{
	{3, 64, 224}, {64, 64, 224},
	{64, 128, 112}, {128, 128, 112},
	{128, 256, 56}, {256, 256, 56}, {256, 256, 56}, {256, 256, 56},
	{256, 512, 28}, {512, 512, 28}, {512, 512, 28}, {512, 512, 28},
	{512, 512, 14}, {512, 512, 14}, {512, 512, 14}, {512, 512, 14},
}

// vgg19FCs is the classifier stack: 7·7·512 → 4096 → 4096 → 1000.
var vgg19FCs = [][2]int{{25088, 4096}, {4096, 4096}, {4096, 1000}}

// VGG19Geometry returns VGG-19 as mapper geometry. Same-padding
// convolutions keep Uses = inHW² evaluations per layer.
func VGG19Geometry() []arch.LayerGeom {
	var geoms []arch.LayerGeom
	for i, c := range vgg19Convs {
		geoms = append(geoms, arch.LayerGeom{
			Name:         fmt.Sprintf("conv%d", i+1),
			N:            c.inC * 9,
			M:            c.outC,
			Uses:         c.inHW * c.inHW,
			UniqueInputs: c.inC * c.inHW * c.inHW,
			OutValues:    c.outC * c.inHW * c.inHW,
		})
	}
	for i, fc := range vgg19FCs {
		geoms = append(geoms, arch.LayerGeom{
			Name:         fmt.Sprintf("fc%d", i+1),
			N:            fc[0],
			M:            fc[1],
			Uses:         1,
			UniqueInputs: fc[0],
			OutValues:    fc[1],
			IsFC:         true,
		})
	}
	return geoms
}

// VGGResult collects the Section-2.3 motivation numbers.
type VGGResult struct {
	// IntermediateData is the total activation count per picture
	// (paper: ≈3×10⁷).
	IntermediateData int64
	// WeightCells is the RRAM cell count at 4 cells/weight
	// (paper: ≈10⁹).
	WeightCells int64
	// Ops per picture (2/MAC).
	Ops int64
	// Energy per picture under the two structures, and SEI's saving.
	BaseEnergyUJ, SEIEnergyUJ, Saving float64
	// SEI GOPs/J at VGG scale.
	GOPsPerJ float64
}

// VGGAnalysis reconstructs the paper's VGG-19 motivation numbers and
// runs the cost model at that scale. Conv layers wider than the
// crossbar column limit are evaluated per column group, which leaves
// the per-output counts unchanged, so the mapper's column guard is
// relaxed by splitting M.
func VGGAnalysis() (*VGGResult, error) {
	geoms := VGG19Geometry()
	res := &VGGResult{}
	for _, g := range geoms {
		if !g.IsFC {
			res.IntermediateData += int64(g.OutValues)
		}
		res.WeightCells += 4 * int64(g.N) * int64(g.M)
		res.Ops += g.Ops()
	}
	// Split wide layers into ≤511-column groups (one column reserved
	// for the SEI threshold column) so the mapper accepts them; the
	// total counts are unchanged because every count is linear in M.
	costs, err := arch.Compare(splitWide(geoms, 511), rram.MaxCrossbarSize)
	if err != nil {
		return nil, err
	}
	base, sei := costs[0], costs[2]
	res.BaseEnergyUJ = power.MicroJoules(base.Energy)
	res.SEIEnergyUJ = power.MicroJoules(sei.Energy)
	res.Saving = sei.EnergySaving
	res.GOPsPerJ = sei.GOPsPerJ
	return res, nil
}

// splitWide divides layers with more than maxCols outputs into column
// groups.
func splitWide(geoms []arch.LayerGeom, maxCols int) []arch.LayerGeom {
	var out []arch.LayerGeom
	for _, g := range geoms {
		if g.M <= maxCols {
			out = append(out, g)
			continue
		}
		groups := (g.M + maxCols - 1) / maxCols
		rem := g.M
		for b := 0; b < groups; b++ {
			cols := maxCols
			if cols > rem {
				cols = rem
			}
			gg := g
			gg.Name = fmt.Sprintf("%s.%d", g.Name, b)
			gg.M = cols
			gg.OutValues = g.OutValues / g.M * cols
			// Only the first group fetches/drives fresh inputs in the
			// DAC accounting? No — every group's rows are driven; the
			// mapper already counts DAC per row per use per layer, and
			// each column group has its own crossbars and row drivers.
			out = append(out, gg)
			rem -= cols
		}
	}
	return out
}

// PrintVGG renders the motivation numbers.
func PrintVGG(w io.Writer, r *VGGResult) {
	fmt.Fprintln(w, "VGG-19 motivation (paper Section 2.3)")
	fmt.Fprintf(w, "  intermediate data per picture: %.2e values (paper: ~3e7, which\n"+
		"    appears to count each value's write and read)\n", float64(r.IntermediateData))
	fmt.Fprintf(w, "  RRAM cells for all weights:    %.2e cells  (paper: ~1e9)\n", float64(r.WeightCells))
	fmt.Fprintf(w, "  operations per picture:        %.2e ops\n", float64(r.Ops))
	fmt.Fprintf(w, "  DAC+ADC energy: %.1f uJ/pic; SEI: %.1f uJ/pic (%.1f%% saving)\n",
		r.BaseEnergyUJ, r.SEIEnergyUJ, 100*r.Saving)
	fmt.Fprintf(w, "  SEI efficiency at VGG scale: %.0f GOPs/J\n", r.GOPsPerJ)
}
