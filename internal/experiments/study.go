package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"sei/internal/arch"
	"sei/internal/baseline"
	"sei/internal/homog"
	"sei/internal/power"
	"sei/internal/rram"
	"sei/internal/seicore"
)

// HomogStudyRow compares ordering strategies for one split matrix —
// the ablation behind the paper's "total distance can be reduced about
// 80% to 90%" claim and the DESIGN.md GA-vs-greedy design choice.
type HomogStudyRow struct {
	Stage       int // conv stage index
	K           int
	NaturalDist float64
	RandomMean  float64 // mean distance over random orders
	GreedyDist  float64 // serpentine heuristic
	GADist      float64 // genetic algorithm
	GAReduction float64 // vs natural
}

// HomogenizationStudy measures Equ.-10 distances for every split conv
// stage of a network under each ordering strategy.
func HomogenizationStudy(c *Context, networkID, maxSize int) []HomogStudyRow {
	q := c.QuantizedCalibrated(networkID)
	rng := rand.New(rand.NewSource(c.Cfg.Seed))
	var rows []HomogStudyRow
	for _, s := range c.splitOrders(networkID, maxSize) {
		w := q.ConvMatrix(s.Stage)
		row := HomogStudyRow{
			Stage:       s.Stage,
			K:           s.K,
			NaturalDist: s.NaturalDistance,
			GreedyDist:  homog.Distance(w, homog.GreedySerpentine(w, s.K), s.K),
			GADist:      s.Distance,
			GAReduction: s.Reduction(),
		}
		const samples = 10
		for i := 0; i < samples; i++ {
			row.RandomMean += homog.Distance(w, homog.RandomOrder(w.Dim(0), rng), s.K)
		}
		row.RandomMean /= samples
		rows = append(rows, row)
	}
	return rows
}

// PrintHomogStudy renders the ordering comparison.
func PrintHomogStudy(w io.Writer, networkID int, rows []HomogStudyRow) {
	fmt.Fprintf(w, "Homogenization study (Network %d): Equ.-10 distance by ordering strategy\n", networkID)
	fmt.Fprintf(w, "  %-6s %3s %10s %10s %10s %10s %10s\n",
		"stage", "K", "natural", "random", "greedy", "GA", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6d %3d %10.4f %10.4f %10.4f %10.4f %9.1f%%\n",
			r.Stage, r.K, r.NaturalDist, r.RandomMean, r.GreedyDist, r.GADist, 100*r.GAReduction)
	}
	fmt.Fprintln(w, "  (paper: homogenization reduces the distance by ~80-90% vs natural order)")
}

// TimingRow summarizes one structure's latency/throughput for a
// network — the buffer/time trade-off discussion of Section 5.3.
type TimingRow struct {
	Structure seicore.Structure
	Replicas  int
	LatencyUS float64
	KPicsPerS float64
	AreaMM2   float64
}

// TimingStudy evaluates latency, throughput and area for the three
// structures at 1 and R conv-layer replicas.
func TimingStudy(c *Context, networkID, replicas int) ([]TimingRow, error) {
	q := c.QuantizedCalibrated(networkID)
	geoms, err := arch.GeometryOf(q)
	if err != nil {
		return nil, err
	}
	costs, err := arch.Compare(geoms, rram.MaxCrossbarSize)
	if err != nil {
		return nil, err
	}
	var rows []TimingRow
	for _, cost := range costs {
		m := cost.Mapping
		for _, r := range []int{1, replicas} {
			tc := arch.DefaultTimingConfig()
			tc.Replicas = r
			tm, err := m.Timing(tc)
			if err != nil {
				return nil, err
			}
			area, err := m.ReplicaArea(r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, TimingRow{
				Structure: m.Structure,
				Replicas:  r,
				LatencyUS: tm.LatencyNS / 1000,
				KPicsPerS: tm.ThroughputPicsPerSec / 1000,
				AreaMM2:   power.SquareMM(area),
			})
			if r == replicas && replicas == 1 {
				break
			}
		}
	}
	return rows, nil
}

// PrintTiming renders the timing study.
func PrintTiming(w io.Writer, networkID int, rows []TimingRow) {
	fmt.Fprintf(w, "Timing study (Network %d): buffer/replica vs time trade-off (Section 5.3)\n", networkID)
	fmt.Fprintf(w, "  %-17s %9s %12s %14s %10s\n", "structure", "replicas", "latency(us)", "kpics/s", "area(mm2)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-17s %9d %12.2f %14.1f %10.4f\n",
			r.Structure, r.Replicas, r.LatencyUS, r.KPicsPerS, r.AreaMM2)
	}
}

// EfficiencyRow is one platform of the Section-5.3 comparison.
type EfficiencyRow struct {
	Name     string
	GOPsPerJ float64
	VsFPGA   float64
	VsGPU    float64
}

// EfficiencyComparison compares the SEI designs of the given networks
// against the published FPGA and GPU baselines.
func EfficiencyComparison(c *Context, networkIDs ...int) []EfficiencyRow {
	fpga := baseline.FPGA().EfficiencyGOPsPerJ()
	gpu := baseline.GPU().EfficiencyGOPsPerJ()
	rows := []EfficiencyRow{
		{Name: baseline.FPGA().Name, GOPsPerJ: fpga, VsFPGA: 1, VsGPU: fpga / gpu},
		{Name: baseline.GPU().Name, GOPsPerJ: gpu, VsFPGA: gpu / fpga, VsGPU: 1},
	}
	for _, id := range networkIDs {
		q := c.QuantizedCalibrated(id)
		geoms, err := arch.GeometryOf(q)
		if err != nil {
			panic(fmt.Sprintf("experiments: efficiency comparison: %v", err))
		}
		costs, err := arch.Compare(geoms, rram.MaxCrossbarSize)
		if err != nil {
			panic(fmt.Sprintf("experiments: efficiency comparison: %v", err))
		}
		eff := costs[2].GOPsPerJ
		rows = append(rows, EfficiencyRow{
			Name:     fmt.Sprintf("SEI Network %d", id),
			GOPsPerJ: eff,
			VsFPGA:   eff / fpga,
			VsGPU:    eff / gpu,
		})
	}
	return rows
}

// PrintEfficiency renders the comparison.
func PrintEfficiency(w io.Writer, rows []EfficiencyRow) {
	fmt.Fprintln(w, "Efficiency comparison (Section 5.3)")
	fmt.Fprintf(w, "  %-24s %12s %10s %10s\n", "platform", "GOPs/J", "vs FPGA", "vs GPU")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %12.1f %9.1fx %9.1fx\n", r.Name, r.GOPsPerJ, r.VsFPGA, r.VsGPU)
	}
}
