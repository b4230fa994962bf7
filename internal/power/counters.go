package power

import (
	"fmt"

	"sei/internal/obs"
)

// CellsPerWeight is the number of physical RRAM cells realizing one
// logical weight in the SEI mapping on the paper's 4-bit bipolar
// device: positive/negative rails × hi/lo 4-bit slices. A design's
// own count comes from seicore.LayoutFor (DESIGN.md §5); this term
// does not read it yet, so it prices other devices as 4-bit ones.
const CellsPerWeight = 4

// CountsFromReport joins the hardware-event counter totals of an
// instrumented run (the hw_* counters internal/obs records during
// design evaluation) into per-run component usage Counts, the input of
// Library.Energy. This is the measured, data-dependent counterpart of
// internal/arch's static per-picture accounting: sense-amp events and
// row drives come straight from the simulator's event stream, so
// activity-dependent savings (the paper's switched-by-input effect,
// runtime skips) show up in the derived energy rather than only in
// wall-clock.
//
// The join is exact except for cell reads: the counters record the
// total of selected input lines (hw_active_inputs) and the total of
// column read-outs (hw_column_activations) but not their per-MVM
// product, so cell reads are reconstructed as CellsPerWeight ×
// active-lines × mean-columns-per-MVM — exact whenever every crossbar
// block has the same column count (true for the Table-2 networks at
// one crossbar size), an average otherwise.
//
// Buffer and DRAM traffic are not hardware-counter events (they are
// geometry, not activity, dependent) and stay zero here; internal/arch
// remains the accounting path for them.
//
// Noise-draw counts (sei_noise_draws) are deliberately NOT joined:
// read noise is a physical property of the analog read the crossbar
// already pays for, not an extra hardware event, so the counter is
// simulator accounting only — the RNG-consumption ledger of the
// packed non-ideal path (DESIGN.md §17). Two reports that differ only
// in sei_noise_* totals yield identical Counts and identical energy,
// pinned by TestNoiseCountersDoNotAffectEnergy.
func CountsFromReport(rep obs.Report) (Counts, error) {
	mvm := rep.Counters[obs.HWMVMOps]
	if mvm == 0 {
		return Counts{}, fmt.Errorf("power: report %q has no %s events — was the evaluation instrumented?", rep.Name, obs.HWMVMOps)
	}
	active := rep.Counters[obs.HWActiveInputs]
	cols := rep.Counters[obs.HWColumnActivations]
	meanCols := float64(cols) / float64(mvm)
	return Counts{
		SAEvaluations: rep.Counters[obs.HWSAComparisons],
		RowDrives:     active,
		CellReads:     int64(float64(CellsPerWeight*active) * meanCols),
		// The OR-pool window reductions are the digital merge tree —
		// internal/arch books the same events as adds. Runtime
		// activation-bound evaluations (seicore bounded mode) are two
		// digital compares each — the emit-0 and emit-1 checks — so the
		// skip logic's own overhead is charged, not hidden: bounded-mode
		// savings are net of the bound checker's energy.
		Adds: rep.Counters[obs.HWORPoolReductions] + 2*rep.Counters[obs.SEIBoundEvals],
	}, nil
}

// EnergyFromCounters converts an instrumented run report into a
// component energy breakdown (pJ over the whole run) by joining the
// hardware counters against the library constants. It is the single
// counter→energy accounting path shared by perfbench's
// pj_per_inference and examples/energy_breakdown.
func EnergyFromCounters(rep obs.Report, lib Library) (Breakdown, error) {
	if err := lib.Validate(); err != nil {
		return Breakdown{}, err
	}
	c, err := CountsFromReport(rep)
	if err != nil {
		return Breakdown{}, err
	}
	return lib.Energy(c), nil
}

// EnergyPerInferencePJ is EnergyFromCounters normalized to one
// inference: the run's counter-derived total divided by the number of
// images evaluated (the caller passes its images counter, e.g.
// nn.MetricEvalImages, keeping this package independent of the CNN
// layer).
func EnergyPerInferencePJ(rep obs.Report, lib Library, images int64) (float64, error) {
	if images <= 0 {
		return 0, fmt.Errorf("power: %d images evaluated, cannot normalize energy per inference", images)
	}
	b, err := EnergyFromCounters(rep, lib)
	if err != nil {
		return 0, err
	}
	return b.Total() / float64(images), nil
}
