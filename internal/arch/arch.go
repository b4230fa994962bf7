// Package arch maps a CNN onto one of the paper's three crossbar
// organizations (Table 5) and produces the per-picture usage counts
// and module inventories that package power turns into the Fig.-1
// breakdown, the Table-5 energy/area columns, and the GOPs/J
// efficiency figure.
//
// Accounting model (DESIGN.md §2 records the assumptions):
//   - DAC conversions happen per crossbar row per evaluation: each of
//     a layer's N rows is re-driven for every output position, so an
//     analog-input layer costs Uses·N conversions per picture. With
//     the calibrated library this reproduces the paper's "input layer
//     DACs cost about 3% energy" observation on Network 1.
//   - ADC conversions happen per crossbar column per evaluation: a
//     layer evaluated at `Uses` output positions with R row-blocks and
//     four sign/precision crossbars costs Uses·M·4·R conversions.
//   - The area baseline builds each layer's crossbars once and reuses
//     them across feature-map positions (the paper's area baseline).
package arch

import (
	"fmt"

	"sei/internal/power"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// LayerGeom is the mapping-relevant geometry of one logical layer.
type LayerGeom struct {
	Name string
	// N and M are the logical weight-matrix dimensions (inputs ×
	// outputs), e.g. 300×64 for Network 1's Conv 2.
	N, M int
	// Uses is how many times the matrix is evaluated per picture
	// (output feature-map positions; 1 for FC).
	Uses int
	// UniqueInputs is the number of distinct input values per picture
	// (DAC conversions under sample-and-hold reuse).
	UniqueInputs int
	// OutValues is the number of output values buffered per picture.
	OutValues int
	// IsFC marks the final classifier layer.
	IsFC bool
}

// Ops returns the layer's operation count per picture (2 per MAC).
func (g LayerGeom) Ops() int64 {
	return 2 * int64(g.N) * int64(g.M) * int64(g.Uses)
}

// GeometryOf derives the layer geometries of a quantized network.
func GeometryOf(q *quant.QuantizedNet) ([]LayerGeom, error) {
	if len(q.InShape) != 3 {
		return nil, fmt.Errorf("arch: input shape %v, want 3-D", q.InShape)
	}
	c, h, w := q.InShape[0], q.InShape[1], q.InShape[2]
	var geoms []LayerGeom
	for l := range q.Convs {
		cs := &q.Convs[l]
		kh, kw := cs.W.Dim(2), cs.W.Dim(3)
		outH := (h-kh)/cs.Stride + 1
		outW := (w-kw)/cs.Stride + 1
		if outH <= 0 || outW <= 0 {
			return nil, fmt.Errorf("arch: conv stage %d input %dx%d smaller than kernel", l, h, w)
		}
		g := LayerGeom{
			Name:         fmt.Sprintf("Conv %d", l+1),
			N:            cs.FanIn(),
			M:            cs.Filters(),
			Uses:         outH * outW,
			UniqueInputs: c * h * w,
			OutValues:    cs.Filters() * outH * outW,
		}
		geoms = append(geoms, g)
		c, h, w = cs.Filters(), outH, outW
		if cs.PoolSize > 1 {
			h /= cs.PoolSize
			w /= cs.PoolSize
		}
	}
	fcIn := q.FC.W.Dim(1)
	if c*h*w != fcIn {
		return nil, fmt.Errorf("arch: conv stages produce %d values but FC expects %d", c*h*w, fcIn)
	}
	geoms = append(geoms, LayerGeom{
		Name:         "FC",
		N:            fcIn,
		M:            q.FC.W.Dim(0),
		Uses:         1,
		UniqueInputs: fcIn,
		OutValues:    q.FC.W.Dim(0),
		IsFC:         true,
	})
	return geoms, nil
}

// LayerCost is the mapped cost of one layer.
type LayerCost struct {
	Geom      LayerGeom
	RowBlocks int
	Crossbars int64
	Counts    power.Counts
	Inventory power.Inventory
}

// Mapping is a fully mapped network.
type Mapping struct {
	Structure   seicore.Structure
	MaxCrossbar int
	Layers      []LayerCost
}

// StructureCost is one structure's entry of the Table-5 comparison,
// priced with power.DefaultLibrary().
type StructureCost struct {
	Mapping *Mapping
	// Energy is the per-picture energy (pJ) and Area the chip area
	// (µm²), split by component; Energy.InterfaceFraction() is the
	// DAC+ADC share.
	Energy, Area power.Breakdown
	GOPsPerJ     float64
	// EnergySaving and AreaSaving are relative to the DAC+ADC entry
	// (zero for that entry itself).
	EnergySaving, AreaSaving float64
}

// Compare maps the geometry onto the three structures of Table 5 at
// the given crossbar size and returns them in the table's order:
// DAC+ADC, 1-bit-input+ADC, SEI. It fails if any structure cannot map
// the network, naming that structure.
func Compare(geoms []LayerGeom, maxCrossbar int) ([]StructureCost, error) {
	var out []StructureCost
	for _, s := range []seicore.Structure{seicore.StructDACADC, seicore.StructOneBitADC, seicore.StructSEI} {
		m, err := mapNetwork(geoms, s, maxCrossbar)
		if err != nil {
			return nil, fmt.Errorf("arch: %s: %w", s, err)
		}
		_, e := m.Energy()
		_, a := m.Area()
		c := StructureCost{Mapping: m, Energy: e, Area: a, GOPsPerJ: power.GOPsPerJoule(m.Ops(), e)}
		if len(out) > 0 {
			c.EnergySaving = 1 - e.Total()/out[0].Energy.Total()
			c.AreaSaving = 1 - a.Total()/out[0].Area.Total()
		}
		out = append(out, c)
	}
	return out, nil
}

// mapNetwork computes the per-layer costs of the geometry under one
// organization. The picture fetch (DRAM) is charged to the first
// layer.
func mapNetwork(geoms []LayerGeom, s seicore.Structure, maxCrossbar int) (*Mapping, error) {
	if maxCrossbar <= 0 || maxCrossbar > rram.MaxCrossbarSize {
		return nil, fmt.Errorf("max crossbar size %d outside (0,%d]", maxCrossbar, rram.MaxCrossbarSize)
	}
	if len(geoms) == 0 {
		return nil, fmt.Errorf("empty geometry")
	}
	m := &Mapping{Structure: s, MaxCrossbar: maxCrossbar}
	for i, g := range geoms {
		var (
			lc  LayerCost
			err error
		)
		switch s {
		case seicore.StructDACADC:
			lc, err = mapMerged(g, maxCrossbar, true, 8)
		case seicore.StructOneBitADC:
			lc, err = mapMerged(g, maxCrossbar, i == 0, 1)
		case seicore.StructSEI:
			lc, err = mapSEI(g, maxCrossbar, i == 0)
		default:
			return nil, fmt.Errorf("unknown structure %v", s)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", g.Name, err)
		}
		if i == 0 {
			// Picture fetch from off-chip memory (8-bit pixels).
			lc.Counts.DRAMBytes += int64(g.UniqueInputs)
		}
		m.Layers = append(m.Layers, lc)
	}
	return m, nil
}

// ceilDiv is integer ceiling division.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// mapMerged costs one layer in the ADC-merged organization (Fig. 2b):
// four crossbars per tile (pos/neg × high/low nibble), per-column
// ADCs, digital shift/add/subtract merge. analogInput selects whether
// the layer is fed by DACs (8-bit data) or by 1-bit gates; dataBits
// is the width of the buffered intermediate data (8 in the DAC+ADC
// design, 1 in the quantized ones).
func mapMerged(g LayerGeom, s int, analogInput bool, dataBits int64) (LayerCost, error) {
	rB := ceilDiv(g.N, s)
	if g.M > s {
		// Column splitting is free of merging (independent outputs) but
		// still bounded by fabrication; none of the paper's layers hit
		// this, and the counts below scale per output column anyway.
		return LayerCost{}, fmt.Errorf("%d output columns exceed crossbar width %d", g.M, s)
	}
	uses, n, mm := int64(g.Uses), int64(g.N), int64(g.M)
	lc := LayerCost{Geom: g, RowBlocks: rB, Crossbars: int64(4 * rB)}
	c := &lc.Counts
	if analogInput {
		c.DACConversions = uses * n
	}
	c.ADCConversions = uses * mm * 4 * int64(rB)
	c.CellReads = uses * 4 * n * mm
	c.RowDrives = uses * 4 * n
	// Merge per output per use: two shifts (high nibbles ×2⁴), two adds
	// (hi+lo per sign), one subtract (pos − neg), per row-block; plus
	// row-block accumulation and the ReLU/pool compare.
	c.Shifts = uses * mm * 2 * int64(rB)
	c.Adds = uses*mm*(2*int64(rB)+int64(rB-1)) + uses*mm
	c.Subs = uses * mm * int64(rB)
	c.BufferBytes = ceil64(int64(g.OutValues)*dataBits, 8) * 2 // write + read

	v := &lc.Inventory
	if analogInput {
		v.DACs = n
	}
	v.ADCs = 4 * int64(rB) * mm
	v.Cells = 4 * n * mm
	v.DriverRows = 4 * n
	v.Crossbars = lc.Crossbars
	v.DigitalBlocks = lc.Crossbars
	v.BufferBytes = ceil64(int64(g.OutValues)*dataBits, 8)
	return lc, nil
}

// mapSEI costs one layer in the SEI organization. The input layer
// (inputStage) keeps DACs and analog-merged crossbars but reads out
// through sense amplifiers (its output is immediately binarized);
// deeper conv layers are SEI crossbars with SA readout and digital
// count thresholds; the FC layer is SEI with per-block column ADCs
// whose results are summed digitally for the argmax. Weights are
// bipolar on the paper's 4-bit device, laid out by seicore.LayoutFor,
// and every split crossbar carries one input-selected dynamic-threshold
// column.
func mapSEI(g LayerGeom, s int, inputStage bool) (LayerCost, error) {
	uses, n, mm := int64(g.Uses), int64(g.N), int64(g.M)

	if inputStage && !g.IsFC {
		if g.N > s {
			return LayerCost{}, fmt.Errorf("input layer with %d rows cannot merge analog across row blocks (max %d)", g.N, s)
		}
		lc := LayerCost{Geom: g, RowBlocks: 1, Crossbars: 4}
		c := &lc.Counts
		c.DACConversions = uses * n
		c.SAEvaluations = uses * mm
		c.CellReads = uses * 4 * n * mm
		c.RowDrives = uses * 4 * n
		c.Adds = uses * mm // pool OR tree
		c.BufferBytes = ceil64(int64(g.OutValues), 8) * 2
		v := &lc.Inventory
		v.DACs = n
		v.SAs = mm
		v.Cells = 4 * n * mm
		v.DriverRows = 4 * n
		v.Crossbars = 4
		v.DigitalBlocks = 4 // analog merge network + OR pool
		v.BufferBytes = ceil64(int64(g.OutValues), 8)
		return lc, nil
	}

	opt := seicore.DefaultLayerOptions()
	opt.MaxCrossbar = s
	lay, err := seicore.LayoutFor(g.N, g.M, opt)
	if err != nil {
		return LayerCost{}, err
	}
	k, cells, cols := lay.K, int64(lay.Cells), int64(lay.Cols)
	lc := LayerCost{Geom: g, RowBlocks: k, Crossbars: int64(k)}
	c := &lc.Counts
	c.CellReads = uses * cells * n * cols
	c.RowDrives = uses * cells * n
	if g.IsFC {
		c.ADCConversions = mm * int64(k)
		c.Adds = mm*int64(k-1) + mm // block accumulation + bias add
	} else {
		c.SAEvaluations = uses * mm * int64(k)
		c.Popcounts = uses * mm
		c.Adds = uses * mm // pool OR tree
	}
	c.BufferBytes = ceil64(int64(g.OutValues), 8) * 2

	v := &lc.Inventory
	v.Cells = cells * n * cols
	v.DriverRows = cells * n
	v.Crossbars = int64(k)
	v.DigitalBlocks = int64(k)
	if g.IsFC {
		v.ADCs = mm * int64(k)
	} else {
		v.SAs = mm * int64(k)
	}
	v.BufferBytes = ceil64(int64(g.OutValues), 8)
	return lc, nil
}

// ceil64 is ceiling division for int64.
func ceil64(a, b int64) int64 { return (a + b - 1) / b }

// TotalCounts sums the per-picture usage counts of all layers.
func (m *Mapping) TotalCounts() power.Counts {
	var t power.Counts
	for _, l := range m.Layers {
		t.Add(l.Counts)
	}
	return t
}

// TotalInventory sums the module inventory of all layers.
func (m *Mapping) TotalInventory() power.Inventory {
	var t power.Inventory
	for _, l := range m.Layers {
		t.Add(l.Inventory)
	}
	return t
}

// Energy returns the per-layer and total per-picture energy
// breakdowns, priced with power.DefaultLibrary().
func (m *Mapping) Energy() ([]power.Breakdown, power.Breakdown) {
	lib := power.DefaultLibrary()
	var total power.Breakdown
	per := make([]power.Breakdown, len(m.Layers))
	for i, l := range m.Layers {
		per[i] = lib.Energy(l.Counts)
		total.Add(per[i])
	}
	return per, total
}

// Area returns the per-layer and total area breakdowns, priced with
// power.DefaultLibrary().
func (m *Mapping) Area() ([]power.Breakdown, power.Breakdown) {
	lib := power.DefaultLibrary()
	var total power.Breakdown
	per := make([]power.Breakdown, len(m.Layers))
	for i, l := range m.Layers {
		per[i] = lib.Area(l.Inventory)
		total.Add(per[i])
	}
	return per, total
}

// Ops returns the network's operation count per picture.
func (m *Mapping) Ops() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.Geom.Ops()
	}
	return t
}
