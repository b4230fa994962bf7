package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/power"
	"sei/internal/seicore"
)

// BoundedResult reports the runtime activation-bound study: how much
// crossbar work the input-dependent suffix bounds skip on an
// ideal-analog design, exactly and label-identically (DESIGN.md §16).
type BoundedResult struct {
	NetworkID int
	Images    int

	// Exact bounded mode on the ideal-analog fast path.
	UnboundedErr   float64
	BoundedErr     float64
	LabelsMatch    bool
	RowsDriven     int64
	RowsSkipped    int64
	ColsEarlyExit  int64
	BoundEvals     int64
	BlocksSkipped  int64
	SkipRate       float64            // aggregate sei_skip_rate
	StageSkipRates map[string]float64 // per-stage sei_skip_rate_stageN

	// Counter-derived energy, pJ per inference (power.DefaultLibrary).
	UnboundedPJ    float64
	BoundedPJ      float64
	EnergySavedPct float64
}

// studyEval runs design d over data with a fresh recorder attached and
// returns the predicted labels, the error rate, the wall seconds of the
// predict pass and the recorder. Study images are well-formed, so a
// per-image error is a bug and panics.
func studyEval(d *seicore.SEIDesign, data *mnist.Dataset, workers int) ([]int, float64, float64, *obs.Recorder) {
	rec := obs.New()
	d.Instrument(rec)
	start := time.Now()
	res := nn.PredictBatchObs(rec, d, data.Images, workers)
	sec := time.Since(start).Seconds()
	d.Instrument(nil)
	labels := make([]int, len(res))
	wrong := 0
	for i, r := range res {
		if r.Err != nil {
			panic(fmt.Sprintf("experiments: study predict image %d: %v", i, r.Err))
		}
		labels[i] = r.Label
		if r.Label != data.Labels[i] {
			wrong++
		}
	}
	return labels, float64(wrong) / float64(len(labels)), sec, rec
}

// BoundedStudy measures the runtime activation bounds on one network:
// an unbounded ideal-analog baseline and the exact bounded mode, which
// must reproduce its labels bit-for-bit while skipping rows.
func BoundedStudy(c *Context, networkID int) (*BoundedResult, error) {
	q := c.QuantizedCalibrated(networkID)
	cfg := seicore.DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false // static references keep every block boundable
	d, err := seicore.BuildSEI(q, c.Train, cfg, rand.New(rand.NewSource(c.Cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("building SEI design: %w", err)
	}
	workers := c.Cfg.Workers
	lib := power.DefaultLibrary()
	images := int64(c.Test.Len())

	c.logf("bounded study: unbounded baseline over %d images\n", images)
	baseLabels, baseErr, _, recU := studyEval(d, c.Test, workers)
	unboundedPJ, err := power.EnergyPerInferencePJ(recU.Report("unbounded"), lib, images)
	if err != nil {
		return nil, err
	}

	c.logf("bounded study: exact bounded mode\n")
	d.SetBounded(true)
	bndLabels, bndErr, _, recB := studyEval(d, c.Test, workers)
	d.SetBounded(false)
	recB.PublishSkipRates()
	boundedPJ, err := power.EnergyPerInferencePJ(recB.Report("bounded"), lib, images)
	if err != nil {
		return nil, err
	}

	res := &BoundedResult{
		NetworkID:      networkID,
		Images:         int(images),
		UnboundedErr:   baseErr,
		BoundedErr:     bndErr,
		LabelsMatch:    true,
		UnboundedPJ:    unboundedPJ,
		BoundedPJ:      boundedPJ,
		StageSkipRates: map[string]float64{},
	}
	for i := range baseLabels {
		if baseLabels[i] != bndLabels[i] {
			res.LabelsMatch = false
			break
		}
	}
	counters := recB.CounterValues()
	res.RowsDriven = counters[obs.SEIRowsDriven]
	res.RowsSkipped = counters[obs.SEIRowsSkipped]
	res.ColsEarlyExit = counters[obs.SEIColsEarlyExit]
	res.BoundEvals = counters[obs.SEIBoundEvals]
	res.BlocksSkipped = counters[obs.SEIBlocksSkipped]
	for name, v := range recB.GaugeValues() {
		if name == obs.SEISkipRate {
			res.SkipRate = v
		} else if suffix, ok := strings.CutPrefix(name, obs.SEISkipRate+"_"); ok {
			res.StageSkipRates[suffix] = v
		}
	}
	if unboundedPJ > 0 {
		res.EnergySavedPct = 100 * (unboundedPJ - boundedPJ) / unboundedPJ
	}
	return res, nil
}

// Print renders the bounded study.
func (r *BoundedResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Runtime activation bounds (Network %d, %d images)\n", r.NetworkID, r.Images)
	match := "IDENTICAL"
	if !r.LabelsMatch {
		match = "DIVERGED (bug: bounded mode must be exact)"
	}
	fmt.Fprintf(w, "  exact bounded mode: labels %s (err %.2f%% unbounded, %.2f%% bounded)\n",
		match, 100*r.UnboundedErr, 100*r.BoundedErr)
	total := r.RowsDriven + r.RowsSkipped
	fmt.Fprintf(w, "  rows: %d driven, %d skipped (skip rate %.1f%% of %d)\n",
		r.RowsDriven, r.RowsSkipped, 100*r.SkipRate, total)
	fmt.Fprintf(w, "  columns decided early: %d   bound evaluations: %d   blocks skipped: %d\n",
		r.ColsEarlyExit, r.BoundEvals, r.BlocksSkipped)
	stages := make([]string, 0, len(r.StageSkipRates))
	for s := range r.StageSkipRates {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		fmt.Fprintf(w, "    %-8s skip rate %.1f%%\n", s, 100*r.StageSkipRates[s])
	}
	fmt.Fprintf(w, "  energy: %.1f pJ/inference unbounded -> %.1f pJ/inference bounded (%.1f%% saved)\n",
		r.UnboundedPJ, r.BoundedPJ, r.EnergySavedPct)
}
