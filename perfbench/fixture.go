package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sei/internal/mnist"
	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/quant"
	"sei/internal/seicore"
)

// fixtureSeed anchors everything a workload's design is made from: the
// training images, the weight initialization, the Algorithm-1
// calibration subset and the crossbar programming RNG. It never
// follows --seed, so every run of a workload benchmarks the same
// design; --seed picks only the inputs that design is given.
const fixtureSeed = 1

// Training recipe of the committed network fixtures.
const (
	fixtureTrainImages = 3000
	fixtureEpochs      = 3
)

// netFixture is one committed trained float network. Training Network
// 1 to a representative error takes ~17 s on a 2-core host, more than
// a run can afford, so the trained weights are committed (nn's gob
// snapshot format) and -write-fixtures regenerates them bit for bit.
type netFixture struct {
	id   int
	file string
	// sha256 pins the committed file: a fixture that does not match is
	// refused rather than silently benchmarked.
	sha256 string
	// calibSamples is the Algorithm-1 calibration subset size: the
	// first calibSamples training images. Network 2 uses the search's
	// default 500; Network 1's search is ~30 ms per sample, so it gets
	// 100 to keep three set-ups per run affordable.
	calibSamples int
}

var netFixtures = map[int]netFixture{
	1: {id: 1, file: "network1.gob", sha256: "951d6b7edda87d3521403a9bf6a48e657631e9a9c5d88d77d0dfb371fb74b3ae", calibSamples: 100},
	2: {id: 2, file: "network2.gob", sha256: "5bc66d100a4683db5e807af21d7243bb96fbd9a89bcf1e99d240ee76f0b31ec0", calibSamples: 500},
}

// fixtureDir is where the committed fixtures live, relative to the
// checkout root the benchmark runs from.
var fixtureDir = filepath.Join("perfbench", "fixtures")

// loadFixture reads and verifies a committed fixture, returning the
// snapshot bytes (decoded during set-up, which is timed) and the
// calibration subset.
func loadFixture(fx netFixture) ([]byte, *mnist.Dataset, error) {
	raw, err := os.ReadFile(filepath.Join(fixtureDir, fx.file))
	if err != nil {
		return nil, nil, fmt.Errorf("read fixture: %w", err)
	}
	if got := sha256Hex(raw); got != fx.sha256 {
		return nil, nil, fmt.Errorf("fixture %s has sha256 %s, want %s (regenerate with -write-fixtures)", fx.file, got, fx.sha256)
	}
	// Synthetic generates sequentially, so this is exactly the prefix
	// of the training set the search would subsample.
	return raw, mnist.Synthetic(fx.calibSamples, fixtureSeed), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeFixtures trains every network fixture from fixtureSeed and
// writes the snapshots into dir, printing each file's sha256 for
// netFixtures.
func writeFixtures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	train := mnist.Synthetic(fixtureTrainImages, fixtureSeed)
	for _, id := range []int{1, 2} {
		fx := netFixtures[id]
		net := nn.NewTableNetwork(id, fixtureSeed)
		cfg := nn.DefaultTrainConfig()
		cfg.Epochs = fixtureEpochs
		cfg.Seed = fixtureSeed
		cfg.Workers = 1
		nn.Train(net, train, cfg)
		var buf bytes.Buffer
		if err := nn.Save(net, &buf); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fx.file), buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s sha256 %s\n", fx.file, sha256Hex(buf.Bytes()))
	}
	return nil
}

// designOptions are the per-workload build choices on top of the
// shared fixture recipe (ideal device, crossbar 512, static threshold).
type designOptions struct {
	bounded    bool
	noiseSigma float64
}

// setupTimes splits one set-up's wall time by the layer each call goes
// into, with the search's work counts.
type setupTimes struct {
	search, conv0, conv1, recalibrate, build time.Duration
	stats                                    quant.SweepStats
	candidates                               int64
}

// setUp turns a fixture into a ready design: decode the trained
// network, run Algorithm 1 on the calibration subset, recalibrate the
// FC layer and map the result onto SEI crossbars. Every engine runs
// serially (Workers 1). A non-nil rec records the search's own
// counters and search/convN spans (the traced run only).
func setUp(raw []byte, calib *mnist.Dataset, opt designOptions, rec *obs.Recorder) (*seicore.SEIDesign, setupTimes, error) {
	var t setupTimes
	net, err := nn.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	q, err := quant.Extract(net, []int{1, mnist.Side, mnist.Side})
	if err != nil {
		return nil, t, err
	}
	q.Instrument(rec)
	scfg := quant.DefaultSearchConfig()
	scfg.Samples = calib.Len()
	scfg.Workers = 1
	scfg.Obs = rec
	report, err := quant.SearchThresholds(q, calib, scfg)
	if err != nil {
		return nil, t, fmt.Errorf("threshold search: %w", err)
	}
	t2 := time.Now()
	rcfg := quant.DefaultRecalibrateConfig()
	rcfg.Workers = 1
	if err := quant.RecalibrateFC(q, calib, rcfg); err != nil {
		return nil, t, fmt.Errorf("recalibrate FC: %w", err)
	}
	t3 := time.Now()
	bcfg := seicore.DefaultSEIBuildConfig()
	bcfg.DynamicThreshold = false
	bcfg.Layer.Model.ReadNoiseSigma = opt.noiseSigma
	bcfg.Workers = 1
	d, err := seicore.BuildSEI(q, nil, bcfg, rand.New(rand.NewSource(fixtureSeed)))
	if err != nil {
		return nil, t, fmt.Errorf("build SEI design: %w", err)
	}
	d.SetBounded(opt.bounded)
	t4 := time.Now()
	t.search, t.recalibrate, t.build = t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	t.stats = report.Stats
	if rec != nil {
		r := rec.Report("setup")
		t.candidates = r.Counters[quant.MetricThresholdCandidates]
		t.conv0 = spanTime(r.Spans, "search/conv0")
		t.conv1 = spanTime(r.Spans, "search/conv1")
	}
	return d, t, nil
}

// spanTime finds a named span anywhere in an obs span tree.
func spanTime(spans []obs.SpanReport, name string) time.Duration {
	for _, s := range spans {
		if s.Name == name {
			return time.Duration(s.Seconds * float64(time.Second))
		}
		if d := spanTime(s.Children, name); d > 0 {
			return d
		}
	}
	return 0
}
