package arch

import (
	"fmt"
	"io"

	"sei/internal/power"
)

// ApplyActivity refines the per-picture counts with measured input
// activity: activity[i] is the mean fraction of active (1) inputs
// entering layer i (1.0 for the analog input layer). Only the
// data-dependent counts scale — cell read events and 1-bit gate
// drives; interface conversions (every column is still sensed or
// converted, every analog row still driven) do not. This ties the
// functional simulation's Table-1 sparsity to the energy model: with
// >90 % of intermediate data at zero, the crossbar read energy drops
// by the same factor.
func (m *Mapping) ApplyActivity(activity []float64) error {
	if len(activity) != len(m.Layers) {
		return fmt.Errorf("arch: %d activity factors for %d layers", len(activity), len(m.Layers))
	}
	for i := range m.Layers {
		a := activity[i]
		if a <= 0 || a > 1 {
			return fmt.Errorf("arch: activity[%d] = %g outside (0,1]", i, a)
		}
		c := &m.Layers[i].Counts
		c.CellReads = int64(float64(c.CellReads) * a)
		if i > 0 {
			// 1-bit gate drives happen only for active inputs; the
			// analog input layer's rows are always driven.
			c.RowDrives = int64(float64(c.RowDrives) * a)
		}
	}
	return nil
}

// Describe prints a human-readable floorplan of the mapping: one row
// per layer with its logical matrix, physical crossbar allocation,
// interface modules and per-picture conversion counts — the table a
// designer would sanity-check before committing a layout.
func (m *Mapping) Describe(w io.Writer) {
	fmt.Fprintf(w, "Mapping: structure %s, max crossbar %d\n", m.Structure, m.MaxCrossbar)
	fmt.Fprintf(w, "  %-8s %11s %6s %9s %10s %6s %6s %5s %12s %12s\n",
		"layer", "matrix", "uses", "blocks", "crossbars", "DACs", "ADCs", "SAs", "DAC conv/pic", "ADC conv/pic")
	for _, l := range m.Layers {
		fmt.Fprintf(w, "  %-8s %5dx%-5d %6d %9d %10d %6d %6d %5d %12d %12d\n",
			l.Geom.Name, l.Geom.N, l.Geom.M, l.Geom.Uses, l.RowBlocks, l.Crossbars,
			l.Inventory.DACs, l.Inventory.ADCs, l.Inventory.SAs,
			l.Counts.DACConversions, l.Counts.ADCConversions)
	}
	inv := m.TotalInventory()
	_, e := m.Energy()
	_, a := m.Area()
	fmt.Fprintf(w, "  totals: %d crossbars, %d cells, %d DACs, %d ADCs, %d SAs\n",
		inv.Crossbars, inv.Cells, inv.DACs, inv.ADCs, inv.SAs)
	fmt.Fprintf(w, "  energy %.3f uJ/pic  |%s|\n", power.MicroJoules(e), power.Bar(e, 32))
	fmt.Fprintf(w, "  area   %.4f mm2    |%s|\n", power.SquareMM(a), power.Bar(a, 32))
}
