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

type blockSnapshot struct {
	Inputs []int
	Eff    []float64 // row-major [len(Inputs), M]
	W0     []float64 // per-local-row dynamic column; nil unless unipolar

	// Runtime activation-bound suffix tables (version 2, bounds.go).
	// Zero/nil on blocks that are not boundable and in version-1 files;
	// initBounds rebuilds absent tables at load, so old snapshots stay
	// loadable and predict identically.
	BndStride int
	BndPos    []float64 // [checkpoints, M] suffix positive sums
	BndNeg    []float64 // [checkpoints, M] suffix negative sums
	BndAbs    []float64 // [checkpoints, M] suffix absolute sums
	BndSlack  []float64 // [checkpoints] float-safety slack factor
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

// designSnapshotVersion 2 added the per-block bound tables; version-1
// files load unchanged (tables rebuild from the effective weights).
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
		if b.bnd != nil {
			out[i].BndStride = b.bnd.stride
			out[i].BndPos = append([]float64(nil), b.bnd.sufPos...)
			out[i].BndNeg = append([]float64(nil), b.bnd.sufNeg...)
			out[i].BndAbs = append([]float64(nil), b.bnd.sufAbs...)
			out[i].BndSlack = append([]float64(nil), b.bnd.slackU...)
		}
	}
	return out
}

// restoreBlocks rebuilds a layer's k blocks from their snapshots and
// checks that their inputs form a permutation of the layer's n logical
// inputs: the evaluators index input vectors by them unchecked.
func restoreBlocks(snaps []blockSnapshot, n, m, k int) ([]seiBlock, error) {
	if n < 0 || len(snaps) != k {
		return nil, fmt.Errorf("seicore: %d blocks over %d inputs, want K=%d", len(snaps), n, k)
	}
	seen := make([]bool, n)
	held := 0
	blocks := make([]seiBlock, len(snaps))
	for i, s := range snaps {
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
		if s.BndStride > 0 {
			cb := &colBounds{
				n: len(s.Inputs), m: m, stride: s.BndStride,
				sufPos: append([]float64(nil), s.BndPos...),
				sufNeg: append([]float64(nil), s.BndNeg...),
				sufAbs: append([]float64(nil), s.BndAbs...),
				slackU: append([]float64(nil), s.BndSlack...),
			}
			// A malformed table is dropped, not fatal: initBounds
			// rebuilds it from the effective weights at load.
			if cb.valid(len(s.Inputs), m) {
				blocks[i].bnd = cb
			}
		}
		blocks[i].initFast()
	}
	if held != n {
		return nil, fmt.Errorf("seicore: blocks hold %d of %d inputs", held, n)
	}
	return blocks, nil
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
		CalibResults: d.CalibResults,
	}
	for _, l := range d.Convs {
		snap.Convs = append(snap.Convs, seiLayerSnapshot{
			N: l.N, M: l.M, K: l.K, Mode: int(l.Mode),
			Model:            l.model,
			Blocks:           snapshotBlocks(l.blocks),
			Threshold:        l.Threshold,
			BaseThr:          append([]float64(nil), l.BaseThr...),
			Gamma:            l.Gamma,
			OnesMean:         append([]float64(nil), l.OnesMean...),
			DigitalThreshold: l.DigitalThreshold,
		})
	}
	snap.FC = seiLayerSnapshot{
		N: d.FC.N, M: d.FC.M, K: d.FC.K, Mode: int(d.FC.Mode),
		Model:  d.FC.model,
		Blocks: snapshotBlocks(d.FC.blocks),
		Bias:   append([]float64(nil), d.FC.Bias...),
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadDesign reads a design written by Save. seed re-anchors the read-
// noise streams of layers whose device model has ReadNoiseSigma > 0
// (single-image predicts draw from them; dataset evaluation re-seeds
// per chunk via CloneForEval regardless). Noise-free designs ignore it.
// The loaded design is uninstrumented; attach counters with Instrument.
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
	if err := snap.Input.Model.Validate(); err != nil {
		return nil, fmt.Errorf("seicore: input stage device: %w", err)
	}
	if len(snap.Input.Eff) != snap.Input.N*snap.Input.M {
		return nil, fmt.Errorf("seicore: input stage has %d effective weights, want %d×%d",
			len(snap.Input.Eff), snap.Input.N, snap.Input.M)
	}
	d := &SEIDesign{Q: q, CalibResults: snap.CalibResults}
	if d.CalibResults == nil {
		d.CalibResults = map[int]CalibrationResult{}
	}
	d.Input = &MergedLayer{
		N: snap.Input.N, M: snap.Input.M,
		model: snap.Input.Model,
		eff:   tensor.FromSlice(append([]float64(nil), snap.Input.Eff...), snap.Input.N, snap.Input.M),
	}
	rngIdx := 0
	if snap.Input.Model.ReadNoiseSigma > 0 {
		if snap.Input.Model.ReadNoisePerCell {
			d.Input.cells = newNoiseStream(layerSeed(seed, rngIdx))
		} else {
			d.Input.readNoise = layerRNG(seed, rngIdx)
		}
	}
	rngIdx++
	if len(snap.Convs) != len(q.Convs)-1 {
		return nil, fmt.Errorf("seicore: %d SEI conv stages, quantized net has %d", len(snap.Convs), len(q.Convs)-1)
	}
	for i, ls := range snap.Convs {
		if err := ls.Model.Validate(); err != nil {
			return nil, fmt.Errorf("seicore: conv stage %d device: %w", i+1, err)
		}
		if len(ls.BaseThr) != ls.K || len(ls.OnesMean) != ls.K {
			return nil, fmt.Errorf("seicore: conv stage %d has %d base thresholds and %d ones means, want K=%d",
				i+1, len(ls.BaseThr), len(ls.OnesMean), ls.K)
		}
		if ls.DigitalThreshold < 1 || ls.DigitalThreshold > ls.K {
			return nil, fmt.Errorf("seicore: conv stage %d digital threshold %d outside [1,%d]", i+1, ls.DigitalThreshold, ls.K)
		}
		blocks, err := restoreBlocks(ls.Blocks, ls.N, ls.M, ls.K)
		if err != nil {
			return nil, fmt.Errorf("seicore: conv stage %d: %w", i+1, err)
		}
		l := &SEIConvLayer{
			N: ls.N, M: ls.M, K: ls.K, Mode: SignedMode(ls.Mode),
			blocks:           blocks,
			model:            ls.Model,
			Threshold:        ls.Threshold,
			BaseThr:          ls.BaseThr,
			Gamma:            ls.Gamma,
			OnesMean:         ls.OnesMean,
			DigitalThreshold: ls.DigitalThreshold,
		}
		if ls.Model.ReadNoiseSigma > 0 {
			if ls.Model.ReadNoisePerCell {
				l.cells = newNoiseStream(layerSeed(seed, rngIdx+i))
			} else {
				l.noise = layerRNG(seed, rngIdx+i)
			}
		}
		d.Convs = append(d.Convs, l)
	}
	rngIdx += len(snap.Convs)
	if err := snap.FC.Model.Validate(); err != nil {
		return nil, fmt.Errorf("seicore: FC stage device: %w", err)
	}
	if len(snap.FC.Bias) != snap.FC.M {
		return nil, fmt.Errorf("seicore: FC bias length %d, want %d", len(snap.FC.Bias), snap.FC.M)
	}
	fcBlocks, err := restoreBlocks(snap.FC.Blocks, snap.FC.N, snap.FC.M, snap.FC.K)
	if err != nil {
		return nil, fmt.Errorf("seicore: FC stage: %w", err)
	}
	d.FC = &SEIFCLayer{
		N: snap.FC.N, M: snap.FC.M, K: snap.FC.K, Mode: SignedMode(snap.FC.Mode),
		blocks: fcBlocks,
		model:  snap.FC.Model,
		Bias:   snap.FC.Bias,
	}
	if snap.FC.Model.ReadNoiseSigma > 0 {
		if snap.FC.Model.ReadNoisePerCell {
			d.FC.cells = newNoiseStream(layerSeed(seed, rngIdx))
		} else {
			d.FC.noise = layerRNG(seed, rngIdx)
		}
	}
	// Snapshots store only programmed state; re-derive the fast-path
	// eligibility and scratch arena so a loaded design predicts on the
	// same path (and with the same zero-allocation profile) as the
	// design that was saved.
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
