package seicore

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/tensor"
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
	want := nn.ErrorRate(nil, design, sub, 1)
	for _, workers := range []int{1, 4} {
		if got := nn.ErrorRate(nil, loaded, sub, workers); got != want {
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

// legacyBlock is blockSnapshot as version-2 files wrote it: with the
// activation-bound tables that loads now ignore.
type legacyBlock struct {
	Inputs    []int
	Eff, W0   []float64
	BndStride int
	BndPos    []float64
	BndNeg    []float64
	BndAbs    []float64
	BndSlack  []float64
}

// legacyLayer is seiLayerSnapshot with legacy blocks.
type legacyLayer struct {
	N, M, K          int
	Mode             int
	Model            rram.DeviceModel
	Blocks           []legacyBlock
	Threshold        float64
	BaseThr          []float64
	Gamma            float64
	OnesMean         []float64
	DigitalThreshold int
	Bias             []float64
}

// legacyDesign is designSnapshot with legacy layers.
type legacyDesign struct {
	Version      int
	Quant        []byte
	Input        mergedLayerSnapshot
	Convs        []legacyLayer
	FC           legacyLayer
	CalibResults map[int]CalibrationResult
}

// TestDesignSaveLoadBoundTables pins that activation-bound tables are
// rebuilt from the effective weights at every load, never trusted from
// the file: a round-tripped design's tables equal the built design's,
// a version-2 file whose tables were tampered with (well-shaped but
// wrong) predicts exactly like the saved design, and a version-1 file
// (no tables) still loads and does too.
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
	tables := 0
	for li, l := range design.Convs {
		for bi := range l.blocks {
			want, got := l.blocks[bi].bnd, loaded.Convs[li].blocks[bi].bnd
			if want != nil {
				tables++
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("conv %d block %d: rebuilt bound table differs from the built design's", li, bi)
			}
		}
	}
	if tables == 0 {
		t.Fatal("design has no bound tables; the test exercises nothing")
	}
	sub := f.test.Subset(60)
	wantLabels, wantCounters := evalBounded(t, design, sub, 2)
	check := func(name string, version int, tamper bool) {
		t.Helper()
		var snap legacyDesign
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		snap.Version = version
		for ci := range snap.Convs {
			m := snap.Convs[ci].M
			for bi := range snap.Convs[ci].Blocks {
				b := &snap.Convs[ci].Blocks[bi]
				if !tamper {
					continue
				}
				// Well-shaped tables that claim no column can ever fire.
				ncp := checkpoints(len(b.Inputs), boundStride)
				b.BndStride = boundStride
				b.BndPos, b.BndNeg = make([]float64, ncp*m), make([]float64, ncp*m)
				for i := range b.BndPos {
					b.BndPos[i], b.BndNeg[i] = -1e9, -1e9
				}
				b.BndAbs, b.BndSlack = make([]float64, ncp*m), make([]float64, ncp)
			}
		}
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(snap); err != nil {
			t.Fatal(err)
		}
		d, err := LoadDesign(&out, 1)
		if err != nil {
			t.Fatalf("%s: snapshot rejected: %v", name, err)
		}
		labels, counters := evalBounded(t, d, sub, 2)
		if !reflect.DeepEqual(labels, wantLabels) {
			t.Errorf("%s: bounded labels diverge from the saved design", name)
		}
		if !reflect.DeepEqual(counters, wantCounters) {
			t.Errorf("%s: bounded counters diverge:\n got  %v\n want %v", name, counters, wantCounters)
		}
	}
	check("round trip", designSnapshotVersion, false)
	check("v2 tampered tables", 2, true)
	check("v1", 1, false)
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
		_, err := LoadDesign(bytes.NewReader(corruptSnapshot(t, buf.Bytes(), corrupt)), 1)
		return err
	}
	if err := load(func(*designSnapshot) {}); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	cases := []snapshotCorruption{
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
	cases = append(append(cases, geometryCorruptions...), layoutCorruptions...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := load(tc.corrupt); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}

// snapshotCorruption is one structural corruption of a saved design.
type snapshotCorruption struct {
	name    string
	corrupt func(*designSnapshot)
}

// geometryCorruptions resize a stage so that the snapshot stays
// self-consistent (weights, blocks and bias agree with the new N or M)
// but no longer matches the nested quantized net: each loaded without
// error before LoadDesign checked stage geometry, and then panicked,
// predicted silently or returned an out-of-range label.
var geometryCorruptions = []snapshotCorruption{
	{"input-fan-in-short", func(s *designSnapshot) {
		s.Input.N--
		s.Input.Eff = s.Input.Eff[:s.Input.N*s.Input.M]
	}},
	{"conv-fan-in-short", func(s *designSnapshot) { dropInputs(&s.Convs[0], s.Convs[0].N-4) }},
	{"fc-extra-class", func(s *designSnapshot) { padClasses(&s.FC, s.FC.M+1) }},
}

// layoutCorruptions break a layout invariant that seicore.LayoutFor
// gives every built design while the snapshot stays consistent with
// the nested quantized net: each loaded before LoadDesign checked the
// layout.
var layoutCorruptions = []snapshotCorruption{
	// One FC block holding every input: Network 2's 200 inputs × 4
	// cells are 800 rows, over the 512-row fabrication limit.
	{"fc-block-over-height", func(s *designSnapshot) {
		fc := &s.FC
		merged := blockSnapshot{}
		for _, b := range fc.Blocks {
			merged.Inputs = append(merged.Inputs, b.Inputs...)
			merged.Eff = append(merged.Eff, b.Eff...)
		}
		fc.Blocks, fc.K = []blockSnapshot{merged}, 1
	}},
	// 512 classes leave no column for the threshold: widen the nested
	// net's FC too, so only the layout is wrong.
	{"fc-columns-over-width", func(s *designSnapshot) {
		q, err := quant.Load(bytes.NewReader(s.Quant))
		if err != nil {
			panic(err)
		}
		m, n := rram.MaxCrossbarSize, q.FC.W.Dim(1)
		w := tensor.New(m, n)
		copy(w.Data(), q.FC.W.Data())
		q.FC.W, q.FC.B = w, append(q.FC.B, make([]float64, m-len(q.FC.B))...)
		var buf bytes.Buffer
		if err := q.Save(&buf); err != nil {
			panic(err)
		}
		s.Quant = buf.Bytes()
		padClasses(&s.FC, m)
	}},
	{"conv-w0-on-bipolar", func(s *designSnapshot) {
		b := &s.Convs[0].Blocks[0]
		b.W0 = make([]float64, len(b.Inputs))
	}},
	{"conv-unipolar-without-w0", func(s *designSnapshot) { s.Convs[0].Mode = int(ModeUnipolarDynamic) }},
}

// padClasses widens an FC layer snapshot to m classes with zero
// weights and biases.
func padClasses(fc *seiLayerSnapshot, m int) {
	for bi := range fc.Blocks {
		b := &fc.Blocks[bi]
		var eff []float64
		for local := range b.Inputs {
			eff = append(eff, b.Eff[local*fc.M:(local+1)*fc.M]...)
			eff = append(eff, make([]float64, m-fc.M)...)
		}
		b.Eff = eff
	}
	fc.Bias = append(fc.Bias, make([]float64, m-fc.M)...)
	fc.M = m
}

// dropInputs shrinks a layer snapshot to its first n logical inputs,
// removing the other inputs' rows from every block.
func dropInputs(ls *seiLayerSnapshot, n int) {
	for bi := range ls.Blocks {
		b := &ls.Blocks[bi]
		var inputs []int
		var eff, w0 []float64
		for local, j := range b.Inputs {
			if j >= n {
				continue
			}
			inputs = append(inputs, j)
			eff = append(eff, b.Eff[local*ls.M:(local+1)*ls.M]...)
			if b.W0 != nil {
				w0 = append(w0, b.W0[local])
			}
		}
		b.Inputs, b.Eff, b.W0 = inputs, eff, w0
	}
	ls.N = n
}

// corruptSnapshot re-encodes the saved design data after corrupt.
func corruptSnapshot(t testing.TB, data []byte, corrupt func(*designSnapshot)) []byte {
	t.Helper()
	var snap designSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	corrupt(&snap)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzLoadDesign pins LoadDesign's contract on arbitrary input: it
// either returns an error, or a design whose Predict classifies a
// valid 28×28 image into one of its M classes without panicking. The
// seed corpus is a valid snapshot of a small random net plus the
// geometry and layout corruptions above; plain go test runs only the
// corpus.
func FuzzLoadDesign(f *testing.F) {
	// Two conv stages and four classes keep the snapshot to a few
	// kilobytes, so the fuzzer minimizes new inputs in well under a
	// second. The loader does not care how good the weights are.
	rng := rand.New(rand.NewSource(1))
	random := func(shape ...int) *tensor.Tensor {
		w := tensor.New(shape...)
		for i := range w.Data() {
			w.Data()[i] = rng.NormFloat64()
		}
		return w
	}
	q := &quant.QuantizedNet{
		Convs: []quant.ConvSpec{
			{W: random(2, 1, 5, 5), Stride: 1, PoolSize: 4}, // 28 → 24 → 6
			{W: random(3, 2, 3, 3), Stride: 1, PoolSize: 2}, // 6 → 4 → 2
		},
		FC:         quant.FCSpec{W: random(4, 12), B: make([]float64, 4)},
		Thresholds: []float64{0.5, 0.5},
		InShape:    []int{1, 28, 28},
	}
	cfg := DefaultSEIBuildConfig()
	cfg.DynamicThreshold = false
	cfg.Layer.MaxCrossbar = 32 // several blocks per SEI stage
	design, err := BuildSEI(q, nil, cfg, rng)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := design.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, c := range append(geometryCorruptions, layoutCorruptions...) {
		f.Add(corruptSnapshot(f, buf.Bytes(), c.corrupt))
	}
	img := tensor.New(1, 28, 28)
	for i := range img.Data() {
		img.Data()[i] = float64(i%7) / 6
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadDesign(bytes.NewReader(data), 1)
		if err != nil {
			return
		}
		if !slices.Equal(d.Q.InShape, img.Shape()) {
			return // a design for another input shape has no 28×28 image to classify
		}
		if label := d.Predict(img); label < 0 || label >= d.FC.M {
			t.Fatalf("Predict returned label %d outside [0,%d)", label, d.FC.M)
		}
	})
}
