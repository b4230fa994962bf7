package seicore

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sei/internal/quant"
	"sei/internal/rram"
	"sei/internal/tensor"
)

// SEIDesign gob serialization. A design is the expensive end of the
// pipeline (training + Algorithm 1 + programming + γ/D calibration),
// and the serving path loads designs from disk, so the snapshot stores
// the *programmed* state — effective weights after device variation,
// calibrated thresholds — not a recipe to rebuild it. A loaded design
// therefore predicts bit-identically to the design that was saved.
//
// Like the nn and quant snapshots, every layer is reduced to flat
// buffers plus integer configuration, keeping files independent of
// internal struct layout.

// blockSnapshot is one block's programmed state. Version-2 files also
// carry the block's activation-bound tables (BndStride, BndPos, BndNeg,
// BndAbs, BndSlack); gob skips them, because the tables are a function
// of Eff and initBounds rebuilds them at every load.
type blockSnapshot struct {
	Inputs []int
	Eff    []float64 // row-major [len(Inputs), M]
	W0     []float64 // per-local-row dynamic column; nil unless unipolar
}

type seiLayerSnapshot struct {
	N, M, K int
	Mode    int
	Model   rram.DeviceModel
	Blocks  []blockSnapshot

	// Conv-only threshold state; zero-valued for the FC layer.
	Threshold        float64
	BaseThr          []float64
	Gamma            float64
	OnesMean         []float64
	DigitalThreshold int

	// FC-only bias; nil for conv layers.
	Bias []float64
}

type mergedLayerSnapshot struct {
	N, M  int
	Model rram.DeviceModel
	Eff   []float64 // row-major [N, M]
}

type designSnapshot struct {
	Version      int
	Quant        []byte // nested quant.QuantizedNet gob (quant/io.go)
	Input        mergedLayerSnapshot
	Convs        []seiLayerSnapshot
	FC           seiLayerSnapshot
	CalibResults map[int]CalibrationResult
}

// designSnapshotVersion 2 added per-block bound tables, which loads now
// ignore; version-1 and version-2 files load alike.
const designSnapshotVersion = 2

func snapshotBlocks(blocks []seiBlock) []blockSnapshot {
	out := make([]blockSnapshot, len(blocks))
	for i, b := range blocks {
		out[i] = blockSnapshot{
			Inputs: append([]int(nil), b.inputs...),
			Eff:    append([]float64(nil), b.eff.Data()...),
		}
		if b.w0 != nil {
			out[i].W0 = append([]float64(nil), b.w0...)
		}
	}
	return out
}

// restoreBlocks rebuilds a layer's k blocks from their snapshots and
// checks them against the layer's layout: their inputs form a
// permutation of the layer's n logical inputs (the evaluators index
// input vectors by them unchecked), each fits lay's crossbar height,
// and each carries a dynamic column exactly when the layer is
// unipolar (the walkers read "dynamic" from the column).
func restoreBlocks(snaps []blockSnapshot, n, m, k int, lay Layout, mode SignedMode) ([]seiBlock, error) {
	if len(snaps) != k {
		return nil, fmt.Errorf("seicore: %d blocks over %d inputs, want K=%d", len(snaps), n, k)
	}
	seen := make([]bool, n)
	held := 0
	blocks := make([]seiBlock, len(snaps))
	for i, s := range snaps {
		if len(s.Inputs) == 0 {
			return nil, fmt.Errorf("seicore: block %d holds no inputs", i)
		}
		if len(s.Inputs) > lay.Rows {
			return nil, fmt.Errorf("seicore: block %d holds %d inputs, over the %d that fit a crossbar at %d cells each",
				i, len(s.Inputs), lay.Rows, lay.Cells)
		}
		for _, j := range s.Inputs {
			if j < 0 || j >= n || seen[j] {
				return nil, fmt.Errorf("seicore: block %d input %d: block inputs are not a permutation of [0,%d)", i, j, n)
			}
			seen[j] = true
		}
		held += len(s.Inputs)
		if len(s.Eff) != len(s.Inputs)*m {
			return nil, fmt.Errorf("seicore: block %d has %d effective weights, want %d×%d", i, len(s.Eff), len(s.Inputs), m)
		}
		if (s.W0 != nil) != (mode == ModeUnipolarDynamic) {
			return nil, fmt.Errorf("seicore: block %d of a %v layer has %d dynamic-column entries", i, mode, len(s.W0))
		}
		if s.W0 != nil && len(s.W0) != len(s.Inputs) {
			return nil, fmt.Errorf("seicore: block %d has %d dynamic-column entries, want %d", i, len(s.W0), len(s.Inputs))
		}
		blocks[i] = seiBlock{
			inputs: append([]int(nil), s.Inputs...),
			eff:    tensor.FromSlice(append([]float64(nil), s.Eff...), len(s.Inputs), m),
		}
		if s.W0 != nil {
			blocks[i].w0 = append([]float64(nil), s.W0...)
		}
	}
	if held != n {
		return nil, fmt.Errorf("seicore: blocks hold %d of %d inputs", held, n)
	}
	return blocks, nil
}

// snapshot captures the array's mapping and device model.
func (a *seiArray) snapshot() seiLayerSnapshot {
	return seiLayerSnapshot{
		N: a.N, M: a.M, K: a.K, Mode: int(a.Mode),
		Model:  a.model,
		Blocks: snapshotBlocks(a.blocks),
	}
}

// restoreArray rebuilds an SEI stage's crossbar mapping from its
// snapshot, checked against the quantized net's n×m stage matrix, with
// its noise source anchored at seed.
func restoreArray(ls seiLayerSnapshot, n, m int, seed int64) (seiArray, error) {
	if ls.N != n || ls.M != m {
		return seiArray{}, fmt.Errorf("%d×%d matrix, quantized net has %d×%d", ls.N, ls.M, n, m)
	}
	// A snapshot does not record the crossbar size it was built at, so
	// its blocks are checked against the fabrication limit.
	mode := SignedMode(ls.Mode)
	lay, err := LayoutFor(n, m, LayerOptions{Model: ls.Model, MaxCrossbar: rram.MaxCrossbarSize, Mode: mode})
	if err != nil {
		return seiArray{}, err
	}
	blocks, err := restoreBlocks(ls.Blocks, n, m, ls.K, lay, mode)
	if err != nil {
		return seiArray{}, err
	}
	ro := readout{model: ls.Model, irRows: lay.Cells}
	a := seiArray{N: n, M: m, K: ls.K, Mode: mode, blocks: blocks, readout: ro.seeded(seed)}
	a.layout()
	return a, nil
}

// Save serializes the design — programmed effective weights, calibrated
// thresholds and the underlying quantized network — to w.
func (d *SEIDesign) Save(w io.Writer) error {
	var qbuf bytes.Buffer
	if err := d.Q.Save(&qbuf); err != nil {
		return fmt.Errorf("seicore: saving quantized net: %w", err)
	}
	snap := designSnapshot{
		Version: designSnapshotVersion,
		Quant:   qbuf.Bytes(),
		Input: mergedLayerSnapshot{
			N: d.Input.N, M: d.Input.M,
			Model: d.Input.model,
			Eff:   append([]float64(nil), d.Input.eff.Data()...),
		},
		FC:           d.FC.snapshot(),
		CalibResults: d.CalibResults,
	}
	snap.FC.Bias = append([]float64(nil), d.FC.Bias...)
	for _, l := range d.Convs {
		ls := l.snapshot()
		ls.Threshold = l.Threshold
		ls.BaseThr = append([]float64(nil), l.BaseThr...)
		ls.Gamma = l.Gamma
		ls.OnesMean = append([]float64(nil), l.OnesMean...)
		ls.DigitalThreshold = l.DigitalThreshold
		snap.Convs = append(snap.Convs, ls)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadDesign reads a design written by Save. seed re-anchors the read-
// noise streams of layers whose device model has ReadNoiseSigma > 0
// (single-image predicts draw from them; dataset evaluation re-seeds
// per chunk via CloneForEval regardless). Noise-free designs ignore it.
// Every stage is checked against the nested quantized net's geometry,
// so a snapshot that loads predicts within it. The loaded design is
// uninstrumented; attach counters with Instrument.
func LoadDesign(r io.Reader, seed int64) (*SEIDesign, error) {
	var snap designSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("seicore: decoding design: %w", err)
	}
	if snap.Version < 1 || snap.Version > designSnapshotVersion {
		return nil, fmt.Errorf("seicore: unsupported design version %d", snap.Version)
	}
	q, err := quant.Load(bytes.NewReader(snap.Quant))
	if err != nil {
		return nil, fmt.Errorf("seicore: nested quantized net: %w", err)
	}
	if len(snap.Convs) != len(q.Convs)-1 {
		return nil, fmt.Errorf("seicore: %d SEI conv stages, quantized net has %d", len(snap.Convs), len(q.Convs)-1)
	}
	in, c0 := snap.Input, &q.Convs[0]
	if err := in.Model.Validate(); err != nil {
		return nil, fmt.Errorf("seicore: input stage device: %w", err)
	}
	if in.N != c0.FanIn() || in.M != c0.Filters() {
		return nil, fmt.Errorf("seicore: input stage is %d×%d, quantized net has %d×%d", in.N, in.M, c0.FanIn(), c0.Filters())
	}
	if len(in.Eff) != in.N*in.M {
		return nil, fmt.Errorf("seicore: input stage has %d effective weights, want %d×%d", len(in.Eff), in.N, in.M)
	}
	d := &SEIDesign{Q: q, CalibResults: snap.CalibResults}
	if d.CalibResults == nil {
		d.CalibResults = map[int]CalibrationResult{}
	}
	d.Input = &MergedLayer{
		N: in.N, M: in.M,
		eff:     tensor.FromSlice(append([]float64(nil), in.Eff...), in.N, in.M),
		readout: readout{model: in.Model}.seeded(layerSeed(seed, 0)),
	}
	for i, ls := range snap.Convs {
		c := &q.Convs[i+1]
		a, err := restoreArray(ls, c.FanIn(), c.Filters(), layerSeed(seed, 1+i))
		if err != nil {
			return nil, fmt.Errorf("seicore: conv stage %d: %w", i+1, err)
		}
		if len(ls.BaseThr) != ls.K || len(ls.OnesMean) != ls.K {
			return nil, fmt.Errorf("seicore: conv stage %d has %d base thresholds and %d ones means, want K=%d",
				i+1, len(ls.BaseThr), len(ls.OnesMean), ls.K)
		}
		if ls.DigitalThreshold < 1 || ls.DigitalThreshold > ls.K {
			return nil, fmt.Errorf("seicore: conv stage %d digital threshold %d outside [1,%d]", i+1, ls.DigitalThreshold, ls.K)
		}
		d.Convs = append(d.Convs, &SEIConvLayer{
			seiArray:         a,
			Threshold:        ls.Threshold,
			BaseThr:          ls.BaseThr,
			Gamma:            ls.Gamma,
			OnesMean:         ls.OnesMean,
			DigitalThreshold: ls.DigitalThreshold,
		})
	}
	geom := fastGeometry(q)
	last := geom[len(geom)-1]
	fc, err := restoreArray(snap.FC, last.filters*last.pooledH*last.pooledW, len(q.FC.B), layerSeed(seed, 1+len(snap.Convs)))
	if err != nil {
		return nil, fmt.Errorf("seicore: FC stage: %w", err)
	}
	if len(snap.FC.Bias) != fc.M {
		return nil, fmt.Errorf("seicore: FC bias length %d, want %d", len(snap.FC.Bias), fc.M)
	}
	d.FC = &SEIFCLayer{seiArray: fc, Bias: snap.FC.Bias}
	// Snapshots store only programmed state; re-derive the fast-path
	// eligibility, bound tables and scratch arena so a loaded design
	// predicts on the same path (and with the same zero-allocation
	// profile) as the design that was saved.
	d.initFastPath()
	return d, nil
}

// SaveFile writes the design to path, creating parent directories.
func (d *SEIDesign) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadDesignFile reads a design from path (see LoadDesign).
func LoadDesignFile(path string, seed int64) (*SEIDesign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDesign(f, seed)
}
