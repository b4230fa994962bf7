package seicore

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"sei/internal/nn"
)

func TestDesignSaveLoadRoundTrip(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.CalibImages = 20
	design, err := BuildSEI(f.q, f.train, cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := design.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesign(bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded design must predict bit-identically: it carries the
	// programmed effective weights and calibrated thresholds, not a
	// rebuild recipe.
	sub := f.test.Subset(150)
	for i, img := range sub.Images {
		if a, b := design.Predict(img), loaded.Predict(img); a != b {
			t.Fatalf("image %d: saved design predicts %d, loaded %d", i, a, b)
		}
	}
	if len(loaded.CalibResults) != len(design.CalibResults) {
		t.Fatalf("calibration results lost: %d vs %d", len(loaded.CalibResults), len(design.CalibResults))
	}
	for stage, want := range design.CalibResults {
		got, ok := loaded.CalibResults[stage]
		if !ok || got.Gamma != want.Gamma || got.DigitalThreshold != want.DigitalThreshold {
			t.Fatalf("stage %d calibration %+v, want %+v", stage, got, want)
		}
	}
}

func TestDesignSaveLoadNoisyModelDeterministicEval(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	cfg.Layer.Model.ReadNoiseSigma = 0.03
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := design.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesign(bytes.NewReader(buf.Bytes()), 99)
	if err != nil {
		t.Fatal(err)
	}
	// Dataset evaluation re-seeds noise per chunk through CloneForEval,
	// so saved and loaded noisy designs agree bit-identically for every
	// worker count despite their different base seeds.
	sub := f.test.Subset(120)
	want := nn.ClassifierErrorRateWorkers(design, sub, 1)
	for _, workers := range []int{1, 4} {
		if got := nn.ClassifierErrorRateWorkers(loaded, sub, workers); got != want {
			t.Fatalf("workers=%d: loaded noisy design error %v, want %v", workers, got, want)
		}
	}
}

func TestDesignSaveLoadFile(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "designs", "net2.design")
	if err := design.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesignFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Predict(f.test.Images[0]) != design.Predict(f.test.Images[0]) {
		t.Fatal("file round trip changed a prediction")
	}
	if _, err := LoadDesignFile(filepath.Join(t.TempDir(), "missing.design"), 1); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestDesignSaveLoadBoundTables pins version-2 persistence of the
// runtime activation-bound tables: a round-tripped design carries the
// exact suffix tables that were saved, and a version-1 snapshot (no
// tables) still loads and reproduces identical bounded behavior by
// rebuilding them from the effective weights.
func TestDesignSaveLoadBoundTables(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = 16
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := design.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesign(bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range design.Convs {
		for bi := range l.blocks {
			want, got := l.blocks[bi].bnd, loaded.Convs[li].blocks[bi].bnd
			if (want == nil) != (got == nil) {
				t.Fatalf("conv %d block %d: bound table presence changed across round trip", li, bi)
			}
			if want != nil && !reflect.DeepEqual(want, got) {
				t.Fatalf("conv %d block %d: bound tables diverge across round trip", li, bi)
			}
		}
	}
	sub := f.test.Subset(60)
	wantLabels, wantCounters := evalBounded(t, design, sub, 2)

	// The loaded design's bounded run must match bit-for-bit — labels
	// and every counter.
	gotLabels, gotCounters := evalBounded(t, loaded, sub, 2)
	if !reflect.DeepEqual(gotLabels, wantLabels) {
		t.Error("loaded design's bounded labels diverge from the saved design")
	}
	if !reflect.DeepEqual(gotCounters, wantCounters) {
		t.Errorf("loaded design's bounded counters diverge:\n got  %v\n want %v", gotCounters, wantCounters)
	}

	// Version-1 compatibility: strip the tables, mark the snapshot v1,
	// and confirm the load rebuilds them with identical behavior.
	var snap designSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 1
	for ci := range snap.Convs {
		for bi := range snap.Convs[ci].Blocks {
			b := &snap.Convs[ci].Blocks[bi]
			b.BndStride, b.BndPos, b.BndNeg, b.BndAbs, b.BndSlack = 0, nil, nil, nil, nil
		}
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(snap); err != nil {
		t.Fatal(err)
	}
	v1Loaded, err := LoadDesign(bytes.NewReader(v1.Bytes()), 1)
	if err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	v1Labels, v1Counters := evalBounded(t, v1Loaded, sub, 2)
	if !reflect.DeepEqual(v1Labels, wantLabels) || !reflect.DeepEqual(v1Counters, wantCounters) {
		t.Error("version-1 load (rebuilt tables) diverges from the saved design's bounded run")
	}
}

func TestLoadDesignRejectsGarbage(t *testing.T) {
	if _, err := LoadDesign(bytes.NewReader([]byte("not a gob stream")), 1); err == nil {
		t.Fatal("garbage accepted as a design")
	}
	// A valid gob of the wrong version must be rejected too.
	var buf bytes.Buffer
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	if err := design.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadDesign(bytes.NewReader(truncated), 1); err == nil {
		t.Fatal("truncated design accepted")
	}
}

// TestLoadDesignRejectsCorruptSnapshots pins LoadDesign's structural
// checks: each corruption decodes cleanly but would panic or
// mispredict on the first Predict, so the load must fail instead.
func TestLoadDesignRejectsCorruptSnapshots(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultSEIBuildConfig()
	cfg.Layer.MaxCrossbar = 16 // several blocks per layer
	cfg.DynamicThreshold = false
	design, err := BuildSEI(f.q, nil, cfg, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := design.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func(corrupt func(*designSnapshot)) error {
		var snap designSnapshot
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		corrupt(&snap)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(snap); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDesign(&out, 1)
		return err
	}
	if err := load(func(*designSnapshot) {}); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(*designSnapshot)
	}{
		{"conv-base-thr-nil", func(s *designSnapshot) { s.Convs[0].BaseThr = nil }},
		{"conv-ones-mean-short", func(s *designSnapshot) { s.Convs[0].OnesMean = s.Convs[0].OnesMean[1:] }},
		{"conv-block-count", func(s *designSnapshot) { s.Convs[0].Blocks = s.Convs[0].Blocks[1:] }},
		{"conv-input-out-of-range", func(s *designSnapshot) { s.Convs[0].Blocks[0].Inputs[0] = s.Convs[0].N }},
		{"conv-input-repeated", func(s *designSnapshot) {
			s.Convs[0].Blocks[1].Inputs[0] = s.Convs[0].Blocks[0].Inputs[0]
		}},
		{"convs-nil", func(s *designSnapshot) { s.Convs = nil }},
		{"digital-threshold-zero", func(s *designSnapshot) { s.Convs[0].DigitalThreshold = 0 }},
		{"digital-threshold-above-k", func(s *designSnapshot) { s.Convs[0].DigitalThreshold = s.Convs[0].K + 1 }},
		{"fc-bias-short", func(s *designSnapshot) { s.FC.Bias = s.FC.Bias[1:] }},
		{"fc-input-out-of-range", func(s *designSnapshot) { s.FC.Blocks[0].Inputs[0] = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := load(tc.corrupt); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}
