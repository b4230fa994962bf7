package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"sei/internal/arch"
	"sei/internal/baseline"
	"sei/internal/nn"
	"sei/internal/par"
	"sei/internal/power"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// Table5Row is one row of Table 5: a network × structure × crossbar
// size design point.
type Table5Row struct {
	NetworkID   int
	DataBits    int
	Structure   seicore.Structure
	MaxCrossbar int
	ErrorRate   float64
	EnergyUJ    float64
	// EnergySaving and AreaSaving are relative to the DAC+ADC row of
	// the same network and crossbar size.
	EnergySaving float64
	AreaSaving   float64
	AreaMM2      float64
	GOPsPerJ     float64
}

// Table5Result reproduces Table 5 plus the Section-5.3 efficiency
// comparison.
type Table5Result struct {
	Rows      []Table5Row
	Baselines []baseline.Platform
}

// Table5Point selects one network/crossbar-size block of the table.
type Table5Point struct {
	NetworkID   int
	MaxCrossbar int
}

// PaperTable5Points returns the paper's layout: Network 1 at 512 and
// 256, Networks 2 and 3 at 512.
func PaperTable5Points() []Table5Point {
	return []Table5Point{
		{1, 512}, {1, 256}, {2, 512}, {3, 512},
	}
}

// Table5 evaluates the three structures at each point: functional
// error through the hardware simulators, energy/area through the
// mapper. The context's lazy caches are populated serially up front;
// the independent design points then fan out, each point splitting
// the worker budget with the others, and rows concatenate in point
// order so the result is worker-count independent.
func Table5(c *Context, points []Table5Point) (*Table5Result, error) {
	res := &Table5Result{Baselines: baseline.All()}

	// Serial prefetch: everything that writes the context's lazy maps.
	for _, pt := range points {
		c.QuantizedCalibrated(pt.NetworkID)
		c.splitOrders(pt.NetworkID, pt.MaxCrossbar)
		c.dacadcError(pt.NetworkID)
		c.oneBitError(pt.NetworkID)
	}

	sp := c.Cfg.Obs.StartSpan("evaluate/table5")
	defer sp.End()

	inner := par.Resolve(c.Cfg.Workers) / len(points)
	if inner < 1 {
		inner = 1
	}
	type pointResult struct {
		rows []Table5Row
		err  error
	}
	perPoint := make([]pointResult, len(points))
	par.ForEachChunkRec(c.Cfg.Obs, c.Cfg.Workers, len(points), 1, func(ch par.Chunk) {
		pt := points[ch.Lo]
		pr := &perPoint[ch.Lo]
		q := c.QuantizedCalibrated(pt.NetworkID)
		geoms, err := arch.GeometryOf(q)
		if err != nil {
			pr.err = err
			return
		}
		costs, err := arch.Compare(geoms, pt.MaxCrossbar)
		if err != nil {
			pr.err = err
			return
		}
		for _, cost := range costs {
			structure := cost.Mapping.Structure
			row := Table5Row{
				NetworkID:    pt.NetworkID,
				Structure:    structure,
				MaxCrossbar:  pt.MaxCrossbar,
				DataBits:     1,
				EnergyUJ:     power.MicroJoules(cost.Energy),
				AreaMM2:      power.SquareMM(cost.Area),
				GOPsPerJ:     cost.GOPsPerJ,
				EnergySaving: cost.EnergySaving,
				AreaSaving:   cost.AreaSaving,
			}
			switch structure {
			case seicore.StructDACADC:
				row.DataBits = 8
				row.ErrorRate = c.dacadcError(pt.NetworkID)
			case seicore.StructOneBitADC:
				row.ErrorRate = c.oneBitError(pt.NetworkID)
			case seicore.StructSEI:
				orders := c.splitOrders(pt.NetworkID, pt.MaxCrossbar).Orders(len(q.Convs))
				row.ErrorRate = seiError(c, q, pt.MaxCrossbar, orders, true, c.Cfg.Seed+int64(pt.MaxCrossbar), inner)
			}
			c.logf("experiments: table5 net%d @%d %s: err %.4f energy %.3f uJ area %.4f mm2\n",
				pt.NetworkID, pt.MaxCrossbar, structure, row.ErrorRate, row.EnergyUJ, row.AreaMM2)
			pr.rows = append(pr.rows, row)
		}
	})
	for _, pr := range perPoint {
		if pr.err != nil {
			return nil, pr.err
		}
		res.Rows = append(res.Rows, pr.rows...)
	}
	return res, nil
}

// dacadcError evaluates the full-precision hardware design (cached per
// network).
func (c *Context) dacadcError(id int) float64 {
	return c.testError("dacadc", id, func() nn.Classifier {
		design, err := seicore.BuildDACADC(c.Network(id), []int{1, 28, 28}, rram.DefaultDeviceModel(),
			rand.New(rand.NewSource(c.Cfg.Seed)))
		if err != nil {
			panic(fmt.Sprintf("experiments: building DAC+ADC design: %v", err))
		}
		design.Instrument(c.Cfg.Obs)
		return design
	})
}

// oneBitError evaluates the 1-bit-input ADC-merged design (cached).
func (c *Context) oneBitError(id int) float64 {
	return c.testError("onebit", id, func() nn.Classifier {
		design, err := seicore.BuildOneBitADC(c.QuantizedCalibrated(id), rram.DefaultDeviceModel(),
			rand.New(rand.NewSource(c.Cfg.Seed)))
		if err != nil {
			panic(fmt.Sprintf("experiments: building 1-bit+ADC design: %v", err))
		}
		design.Instrument(c.Cfg.Obs)
		return design
	})
}

// Print renders the result like the paper's Table 5.
func (r *Table5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 5: results of the proposed method using a 4-bit RRAM device")
	fmt.Fprintf(w, "  %-5s %-5s %-17s %-6s %8s %11s %9s %9s %9s\n",
		"net", "bits", "structure", "size", "err", "energy(uJ)", "E-save", "A-save", "GOPs/J")
	for _, row := range r.Rows {
		save := "-"
		asave := "-"
		if row.Structure != seicore.StructDACADC {
			save = fmt.Sprintf("%.2f%%", 100*row.EnergySaving)
			asave = fmt.Sprintf("%.2f%%", 100*row.AreaSaving)
		}
		fmt.Fprintf(w, "  %-5d %-5d %-17s %-6d %7.2f%% %11.3f %9s %9s %9.0f\n",
			row.NetworkID, row.DataBits, row.Structure, row.MaxCrossbar,
			100*row.ErrorRate, row.EnergyUJ, save, asave, row.GOPsPerJ)
	}
	fmt.Fprintln(w, "  Comparison platforms:")
	for _, p := range r.Baselines {
		fmt.Fprintf(w, "    %-22s %8.2f GOPs/J (%s)\n", p.Name, p.EfficiencyGOPsPerJ(), p.Source)
	}
}
