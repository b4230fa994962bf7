package quant

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sei/internal/tensor"
)

type convSnapshot struct {
	Shape    []int
	Data     []float64
	Stride   int
	PoolSize int
}

type quantSnapshot struct {
	Version    int
	Name       string
	Convs      []convSnapshot
	FCShape    []int
	FCData     []float64
	FCBias     []float64
	Thresholds []float64
	InShape    []int
}

const quantSnapshotVersion = 1

// Save serializes the quantized network (re-scaled weights and
// thresholds) so experiment harnesses can cache the expensive
// Algorithm-1 output.
func (q *QuantizedNet) Save(w io.Writer) error {
	snap := quantSnapshot{
		Version:    quantSnapshotVersion,
		Name:       q.Name,
		FCShape:    q.FC.W.Shape(),
		FCData:     append([]float64(nil), q.FC.W.Data()...),
		FCBias:     append([]float64(nil), q.FC.B...),
		Thresholds: append([]float64(nil), q.Thresholds...),
		InShape:    append([]int(nil), q.InShape...),
	}
	for _, c := range q.Convs {
		snap.Convs = append(snap.Convs, convSnapshot{
			Shape:    c.W.Shape(),
			Data:     append([]float64(nil), c.W.Data()...),
			Stride:   c.Stride,
			PoolSize: c.PoolSize,
		})
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load reads a quantized network written by Save.
func Load(r io.Reader) (*QuantizedNet, error) {
	var snap quantSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("quant: decoding: %w", err)
	}
	if snap.Version != quantSnapshotVersion {
		return nil, fmt.Errorf("quant: unsupported snapshot version %d", snap.Version)
	}
	if err := snap.validate(); err != nil {
		return nil, fmt.Errorf("quant: %w", err)
	}
	q := &QuantizedNet{
		Name:       snap.Name,
		FC:         FCSpec{W: tensor.FromSlice(snap.FCData, snap.FCShape...), B: snap.FCBias},
		Thresholds: snap.Thresholds,
		InShape:    snap.InShape,
	}
	for _, c := range snap.Convs {
		q.Convs = append(q.Convs, ConvSpec{
			W:        tensor.FromSlice(c.Data, c.Shape...),
			Stride:   c.Stride,
			PoolSize: c.PoolSize,
		})
	}
	return q, nil
}

// validate checks a decoded snapshot before any tensor is built from
// it: every shape positive and exactly as long as its data; 4-D conv
// kernels chaining from the 3-D input shape (channels match, kernels
// fit, stride ≥ 1, non-empty pooled maps, as convStage and orPool
// compute them); one threshold per conv stage; a 2-D FC matrix
// [classes, flattened final map] with one bias per class; and finite
// weights, biases and thresholds, as Extract requires.
func (s *quantSnapshot) validate() error {
	if len(s.Convs) == 0 || len(s.Thresholds) != len(s.Convs) {
		return fmt.Errorf("%d thresholds for %d conv stages", len(s.Thresholds), len(s.Convs))
	}
	if !allFinite(s.Thresholds) {
		return fmt.Errorf("non-finite threshold in %v", s.Thresholds)
	}
	if len(s.InShape) != 3 || s.InShape[0] <= 0 || s.InShape[1] <= 0 || s.InShape[2] <= 0 {
		return fmt.Errorf("input shape %v, want 3 positive dimensions", s.InShape)
	}
	c, h, w := s.InShape[0], s.InShape[1], s.InShape[2]
	for l, cs := range s.Convs {
		if len(cs.Shape) != 4 || !shapeHolds(cs.Shape, len(cs.Data)) {
			return fmt.Errorf("conv stage %d: kernel shape %v for %d weights", l, cs.Shape, len(cs.Data))
		}
		if !allFinite(cs.Data) {
			return fmt.Errorf("conv stage %d: non-finite weight", l)
		}
		kh, kw := cs.Shape[2], cs.Shape[3]
		if cs.Shape[1] != c || kh > h || kw > w || cs.Stride < 1 || cs.PoolSize < 0 {
			return fmt.Errorf("conv stage %d: kernel %v stride %d pool %d on a %d×%d×%d map", l, cs.Shape, cs.Stride, cs.PoolSize, c, h, w)
		}
		c, h, w = cs.Shape[0], (h-kh)/cs.Stride+1, (w-kw)/cs.Stride+1
		if cs.PoolSize > 1 {
			h, w = h/cs.PoolSize, w/cs.PoolSize
		}
		if h < 1 || w < 1 {
			return fmt.Errorf("conv stage %d: pooling leaves an empty map", l)
		}
	}
	if len(s.FCShape) != 2 || !shapeHolds(s.FCShape, len(s.FCData)) ||
		!shapeHolds([]int{c, h, w}, s.FCShape[1]) || len(s.FCBias) != s.FCShape[0] {
		return fmt.Errorf("FC shape %v with %d weights and %d biases after a %d×%d×%d map",
			s.FCShape, len(s.FCData), len(s.FCBias), c, h, w)
	}
	if !allFinite(s.FCData) || !allFinite(s.FCBias) {
		return fmt.Errorf("FC stage: non-finite weight or bias")
	}
	return nil
}

// shapeHolds reports whether shape has positive dimensions whose
// product is n, without overflowing on the way.
func shapeHolds(shape []int, n int) bool {
	p := 1
	for _, d := range shape {
		if d <= 0 || d > n/p {
			return false
		}
		p *= d
	}
	return p == n
}

// SaveFile writes the quantized network to path, creating parents.
func (q *QuantizedNet) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := q.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a quantized network from path.
func LoadFile(path string) (*QuantizedNet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
