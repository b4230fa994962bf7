package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"sei/internal/obs"
	"sei/internal/seicore"
)

// NoisyResult reports the packed non-ideal inference study (DESIGN.md
// §17): how much faster the packed path evaluates a Table-5-style
// noisy design than the float path it is bit-identical to, for the
// per-column and the per-cell noise models.
type NoisyResult struct {
	NetworkID int
	Images    int
	Sigma     float64

	// Per-column model (the Table-5 pessimistic envelope): the float
	// path vs the packed path, which must agree label for label.
	ColFloatErr  float64
	ColPackedErr float64
	ColMatch     bool
	ColFloatSec  float64
	ColPackedSec float64
	ColSpeedup   float64

	// Per-cell model: packed vs float, again bit-identical.
	CellFloatErr  float64
	CellPackedErr float64
	CellMatch     bool
	CellFloatSec  float64
	CellPackedSec float64
	CellSpeedup   float64
	CellDraws     int64 // per-cell draws over the run
}

// NoisyStudy measures the packed non-ideal path on one network: a
// per-column read-noise design (the Table-5 robustness configuration)
// and a per-cell design, each evaluated on the float path and the
// packed path, which must agree bit for bit. This is the study behind Monte Carlo device-variation campaigns: the
// speedup multiplies directly into how many noise samples a campaign
// can afford.
func NoisyStudy(c *Context, networkID int) (*NoisyResult, error) {
	q := c.QuantizedCalibrated(networkID)
	workers := c.Cfg.Workers
	res := &NoisyResult{
		NetworkID: networkID,
		Images:    c.Test.Len(),
		Sigma:     0.05,
	}

	run := func(perCell bool) (*seicore.SEIDesign, error) {
		cfg := seicore.DefaultSEIBuildConfig()
		cfg.DynamicThreshold = false
		cfg.Layer.Model.ReadNoiseSigma = res.Sigma
		cfg.Layer.Model.ReadNoisePerCell = perCell
		return seicore.BuildSEI(q, nil, cfg, rand.New(rand.NewSource(c.Cfg.Seed)))
	}
	match := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	c.logf("noisy study: per-column sigma=%.2f over %d images\n", res.Sigma, res.Images)
	d, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("building per-column noisy design: %w", err)
	}
	d.SetFastPath(false)
	floatLabels, floatErr, floatSec, _ := studyEval(d, c.Test, workers)
	d.SetFastPath(true)
	packedLabels, packedErr, packedSec, _ := studyEval(d, c.Test, workers)
	res.ColFloatErr, res.ColPackedErr = floatErr, packedErr
	res.ColFloatSec, res.ColPackedSec = floatSec, packedSec
	res.ColMatch = match(floatLabels, packedLabels)
	if packedSec > 0 {
		res.ColSpeedup = floatSec / packedSec
	}

	c.logf("noisy study: per-cell sigma=%.2f\n", res.Sigma)
	d, err = run(true)
	if err != nil {
		return nil, fmt.Errorf("building per-cell noisy design: %w", err)
	}
	d.SetFastPath(false)
	floatLabels, floatErr, floatSec, _ = studyEval(d, c.Test, workers)
	d.SetFastPath(true)
	packedLabels, packedErr, packedSec, recCell := studyEval(d, c.Test, workers)
	res.CellFloatErr, res.CellPackedErr = floatErr, packedErr
	res.CellFloatSec, res.CellPackedSec = floatSec, packedSec
	res.CellMatch = match(floatLabels, packedLabels)
	res.CellDraws = recCell.CounterValues()[obs.SEINoiseDraws]
	if packedSec > 0 {
		res.CellSpeedup = floatSec / packedSec
	}
	return res, nil
}

// Print renders the noisy study.
func (r *NoisyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Packed non-ideal inference (Network %d, %d images, sigma=%.2f)\n",
		r.NetworkID, r.Images, r.Sigma)
	label := func(m bool) string {
		if m {
			return "IDENTICAL"
		}
		return "DIVERGED (bug: the packed path must be exact)"
	}
	fmt.Fprintf(w, "  per-column noise: labels %s (err %.2f%%)\n", label(r.ColMatch), 100*r.ColPackedErr)
	fmt.Fprintf(w, "    float %.2fs -> packed %.2fs  (%.1fx)\n", r.ColFloatSec, r.ColPackedSec, r.ColSpeedup)
	fmt.Fprintf(w, "  per-cell noise:   labels %s (err %.2f%%)\n", label(r.CellMatch), 100*r.CellPackedErr)
	fmt.Fprintf(w, "    float %.2fs -> packed %.2fs  (%.1fx), %d draws\n",
		r.CellFloatSec, r.CellPackedSec, r.CellSpeedup, r.CellDraws)
	fmt.Fprintln(w, "  (speedups multiply directly into Monte Carlo campaign size: same noise statistics, more samples per budget)")
}
