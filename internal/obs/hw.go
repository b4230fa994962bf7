package obs

// Hardware-event metric names. The counts are logical simulator
// events, independent of worker count and of wall time; README's
// "Observability" section documents each one's exact semantics.
const (
	// HWMVMOps counts analog matrix-vector operations — one per
	// crossbar block evaluation (a MergedLayer eval is one logical op;
	// an SEI layer eval is K, one per split block).
	HWMVMOps = "hw_mvm_ops"
	// HWSAComparisons counts sense-amplifier threshold comparisons in
	// SEI conv readout (K blocks × M columns per eval).
	HWSAComparisons = "hw_sa_comparisons"
	// HWColumnActivations counts crossbar column read-outs driven by
	// MVMs (M columns per block evaluation).
	HWColumnActivations = "hw_column_activations"
	// HWActiveInputs counts input lines actually selected/driven
	// (nonzero inputs per block evaluation) — the activity statistic
	// behind the paper's data-dependent energy refinement.
	HWActiveInputs = "hw_active_inputs"
	// HWORPoolReductions counts OR-pool window reductions on the
	// binarized data path (shared by the digital reference and the
	// hardware simulators).
	HWORPoolReductions = "hw_orpool_reductions"
	// SEINoiseDraws counts read-noise RNG draws consumed by the
	// simulator — not a hardware event (analog noise is free) but the
	// RNG-consumption ledger that lets two inference paths prove they
	// replayed the same noise stream: equal totals at equal seeds mean
	// identical stream prefixes. Per-column models draw one per column
	// current; per-cell models one per selected cell.
	SEINoiseDraws = "sei_noise_draws"
)

// HW is the pre-resolved bundle of simulator hardware counters.
// Instrumented layers hold one pointer and pay a single nil check per
// event when recording is disabled. All methods are no-ops on nil.
type HW struct {
	mvm, sa, col, active, orpool, noise *Counter
}

func newHW(r *Recorder) *HW {
	return &HW{
		mvm:    r.Counter(HWMVMOps),
		sa:     r.Counter(HWSAComparisons),
		col:    r.Counter(HWColumnActivations),
		active: r.Counter(HWActiveInputs),
		orpool: r.Counter(HWORPoolReductions),
		noise:  r.Counter(SEINoiseDraws),
	}
}

// MVM records n analog matrix-vector operations.
func (h *HW) MVM(n int64) {
	if h == nil {
		return
	}
	h.mvm.Add(n)
}

// SACompares records n sense-amplifier comparisons.
func (h *HW) SACompares(n int64) {
	if h == nil {
		return
	}
	h.sa.Add(n)
}

// ColumnActivations records n crossbar column read-outs.
func (h *HW) ColumnActivations(n int64) {
	if h == nil {
		return
	}
	h.col.Add(n)
}

// ActiveInputs records n selected input lines.
func (h *HW) ActiveInputs(n int64) {
	if h == nil {
		return
	}
	h.active.Add(n)
}

// ORPool records n OR-pool window reductions.
func (h *HW) ORPool(n int64) {
	if h == nil {
		return
	}
	h.orpool.Add(n)
}

// NoiseDraws records n read-noise RNG draws.
func (h *HW) NoiseDraws(n int64) {
	if h == nil || n == 0 {
		return
	}
	h.noise.Add(n)
}
