// Energy breakdown: reproduces the motivation of the paper's Fig. 1 —
// in a traditional RRAM CNN the ADC/DAC interfaces, not the crossbars,
// consume nearly all energy and area — then shows how the three
// structures of Table 5 compare on all three Table-2 networks, and
// finally derives a *measured* per-inference SEI energy by joining the
// hardware-event counters of an instrumented evaluation against the
// same power library (sei.EnergyFromCounters — the accounting path
// behind perfbench's pj_per_inference).
//
// Run with: go run ./examples/energy_breakdown
package main

import (
	"fmt"
	"log"
	"os"

	"sei"
)

// measuredEnergy evaluates an SEI design with instrumentation and
// prints the counter-derived per-inference energy breakdown.
func measuredEnergy(q *sei.QuantizedNet, train, test *sei.Dataset) {
	opts := sei.DefaultBuildOptions()
	opts.DynamicThreshold = false // geometry/activity demo; skip calibration
	design, err := sei.BuildDesign(q, train, opts)
	if err != nil {
		log.Fatal(err)
	}
	rec := sei.NewRecorder()
	sei.EvaluateDesignObs(rec, design, test, 0)
	rep := rec.Report("energy_breakdown")
	breakdown, err := sei.EnergyFromCounters(rep, sei.DefaultPowerLibrary())
	if err != nil {
		log.Fatal(err)
	}
	perInf, err := sei.EnergyPerInferencePJ(rep, sei.DefaultPowerLibrary())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMeasured (counter-derived) SEI energy over %d images:\n", test.Len())
	fmt.Printf("  %-10s %14s\n", "component", "energy (pJ)")
	for _, row := range []struct {
		name string
		pj   float64
	}{{"SA", breakdown.SA}, {"RRAM", breakdown.RRAM}, {"driver", breakdown.Driver}, {"digital", breakdown.Digital}} {
		fmt.Printf("  %-10s %14.1f\n", row.name, row.pj)
	}
	fmt.Printf("  %-10s %14.1f  (%.2f pJ/inference)\n", "total", breakdown.Total(), perInf)
	fmt.Println("  (sense-amp events replace every ADC conversion; DAC energy is 0 by construction)")
}

func main() {
	fmt.Println("Interface cost across structures (synthetic MNIST, 512x512 crossbars)")
	train, test := sei.SyntheticSplit(600, 60, 1)

	var q2 *sei.QuantizedNet // kept for the measured-energy section
	for id := 1; id <= 3; id++ {
		// Geometry is what matters here, so a short training run is
		// enough to build the quantized network.
		fmt.Fprintf(os.Stderr, "training network %d (short run, geometry only)...\n", id)
		net := sei.TrainTableNetwork(id, train, 1, 1)
		q, err := sei.Quantize(net, train)
		if err != nil {
			log.Fatal(err)
		}
		if id == 2 {
			q2 = q
		}
		costs, err := sei.MapCosts(q, 512)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nNetwork %d:\n", id)
		fmt.Printf("  %-17s %12s %10s %10s %12s\n", "structure", "energy (uJ)", "area(mm2)", "GOPs/J", "iface share")
		base := costs[0]
		for _, c := range costs {
			fmt.Printf("  %-17s %12.3f %10.4f %10.0f %11.1f%%",
				c.Structure, c.EnergyUJ, c.AreaMM2, c.GOPsPerJ, 100*c.InterfaceEnergyFraction)
			if c.Structure != base.Structure {
				fmt.Printf("   (saves %.1f%% energy, %.1f%% area)",
					100*(1-c.EnergyUJ/base.EnergyUJ), 100*(1-c.AreaMM2/base.AreaMM2))
			}
			fmt.Println()
		}
	}
	fmt.Println("\nThe DAC+ADC interfaces dominate the baseline (Fig. 1); SEI replaces")
	fmt.Println("them with sense amplifiers and saves >93% energy (Table 5).")

	measuredEnergy(q2, train, test)
}
