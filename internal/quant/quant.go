// Package quant implements Section 3 of the paper: the software
// quantization that turns every intermediate activation of a trained
// CNN into a single bit, eliminating DACs.
//
// It extracts the conv/pool/FC structure from a trained nn.Network,
// runs Algorithm 1 (per-layer weight re-scaling plus greedy
// brute-force threshold search on the training set), and provides the
// binarized inference path in which ReLU is subsumed by thresholding
// and max-pooling degenerates into an OR of bits. The binarized
// forward pass is parameterized over a StageEval so that the digital
// reference implementation and the RRAM/SEI hardware simulators share
// one data path.
package quant

import (
	"fmt"

	"sei/internal/nn"
	"sei/internal/obs"
	"sei/internal/tensor"
)

// ConvSpec is one convolution stage of the quantized network, with the
// re-scaled weights. PoolSize is the OR-pool window applied to its
// binarized output (0 means no pooling).
type ConvSpec struct {
	W        *tensor.Tensor // [Filters, InChannels, KH, KW]
	Stride   int
	PoolSize int
}

// Filters returns the number of output channels.
func (c *ConvSpec) Filters() int { return c.W.Dim(0) }

// FanIn returns the receptive-field size InChannels·KH·KW — the RRAM
// row count of the layer's weight matrix.
func (c *ConvSpec) FanIn() int { return c.W.Dim(1) * c.W.Dim(2) * c.W.Dim(3) }

// FCSpec is the final fully-connected stage (never binarized; its
// argmax is the classification).
type FCSpec struct {
	W *tensor.Tensor // [Out, In]
	B []float64
}

// QuantizedNet is a CNN with 1-bit intermediate data: a chain of conv
// stages, each followed by threshold binarization and an optional OR
// pool, ending in a fully-connected classifier.
type QuantizedNet struct {
	Name       string
	Convs      []ConvSpec
	FC         FCSpec
	Thresholds []float64 // one per conv stage
	InShape    []int     // input image shape, e.g. [1,28,28]

	// hw receives hardware-event counts (OR-pool reductions) when the
	// net is instrumented. Unexported so gob serialization skips it:
	// nets coming back from the cache load uninstrumented and must be
	// re-instrumented by the caller. Struct copies (CloneForEval of the
	// simulators) share the pointer, which is safe — the counters are
	// atomic.
	hw *obs.HW
}

// Instrument routes the net's hardware-event counts to rec; nil
// detaches. The binarized data path is shared by the digital reference
// and the crossbar simulators, so OR-pool reductions are counted here
// once for all of them.
func (q *QuantizedNet) Instrument(rec *obs.Recorder) { q.hw = rec.HW() }

// CountORPool records n OR-pool window reductions on the net's
// hardware counters (a no-op when uninstrumented). External binarized
// data paths that fuse pooling into the stage write-out — seicore's
// bit-packed fast path — use it to keep counter totals bit-identical
// to convStage's own accounting.
func (q *QuantizedNet) CountORPool(n int64) { q.hw.ORPool(n) }

// Extract decomposes a trained nn.Network of the paper's shape
// (conv [relu] [pool] ... flatten dense) into quantizable stages. The
// weights are deep-copied. Thresholds are zero and must be set by
// SearchThresholds before the binarized path is meaningful.
func Extract(net *nn.Network, inShape []int) (*QuantizedNet, error) {
	q := &QuantizedNet{Name: net.Name, InShape: append([]int(nil), inShape...)}
	i := 0
	for i < len(net.Layers) {
		switch l := net.Layers[i].(type) {
		case *nn.Conv2D:
			if l.Bias != nil {
				return nil, fmt.Errorf("quant: conv layer %d has a bias; the paper's conv kernels are bias-free", i)
			}
			spec := ConvSpec{W: l.Weight.Value.Clone(), Stride: l.Stride}
			i++
			// Optional ReLU (subsumed by the threshold, which is ≥ 0).
			if i < len(net.Layers) {
				if _, ok := net.Layers[i].(*nn.ReLU); ok {
					i++
				}
			}
			// Optional pooling.
			if i < len(net.Layers) {
				if p, ok := net.Layers[i].(*nn.MaxPool2D); ok {
					spec.PoolSize = p.Size
					i++
				}
			}
			q.Convs = append(q.Convs, spec)
		case *nn.Flatten:
			i++
		case *nn.Dense:
			if i != len(net.Layers)-1 {
				return nil, fmt.Errorf("quant: dense layer %d is not final; hidden FC layers are not supported", i)
			}
			q.FC = FCSpec{W: l.Weight.Value.Clone(), B: append([]float64(nil), l.Bias.Value.Data()...)}
			i++
		default:
			return nil, fmt.Errorf("quant: unsupported layer %T at %d", net.Layers[i], i)
		}
	}
	if len(q.Convs) == 0 || q.FC.W == nil {
		return nil, fmt.Errorf("quant: network %q lacks conv or FC stages", net.Name)
	}
	q.Thresholds = make([]float64, len(q.Convs))
	return q, nil
}

// ConvMatrix returns conv stage l's kernels as the RRAM-oriented
// weight matrix [FanIn, Filters]: column k holds kernel k, exactly the
// layout of the paper's "25×12"-style weight matrices (Table 2).
func (q *QuantizedNet) ConvMatrix(l int) *tensor.Tensor {
	c := &q.Convs[l]
	wmat := c.W.Reshape(c.Filters(), c.FanIn())
	return tensor.Transpose2D(wmat)
}

// FCMatrix returns the FC weights as [In, Out] — the RRAM orientation
// (e.g. 1024×10 for Network 1).
func (q *QuantizedNet) FCMatrix() *tensor.Tensor {
	return tensor.Transpose2D(q.FC.W)
}

// StageEval evaluates the two kinds of mapped matrix operations. The
// digital reference, the ADC-merged crossbar design and the SEI design
// all implement it; everything else about the binarized data path
// (im2col walking, OR pooling, layer sequencing) is shared.
type StageEval interface {
	// EvalConv returns the binarized outputs (one bit per filter) of
	// conv stage l for one receptive field. For l == 0 the input is the
	// real-valued (8-bit, DAC-driven) image window; for l > 0 it is 0/1.
	EvalConv(l int, in []float64) []bool
	// EvalFC returns the classifier scores for the flattened 0/1 input
	// of the final stage.
	EvalFC(in []float64) []float64
}

// digitalEval is the exact software implementation of the binarized
// network: Equ. (4) of the paper with float arithmetic.
type digitalEval struct{ q *QuantizedNet }

func (d digitalEval) EvalConv(l int, in []float64) []bool {
	c := &d.q.Convs[l]
	t := d.q.Thresholds[l]
	f, fan := c.Filters(), c.FanIn()
	w := c.W.Data()
	out := make([]bool, f)
	for k := 0; k < f; k++ {
		row := w[k*fan : (k+1)*fan]
		s := 0.0
		for j, x := range in {
			if x != 0 {
				s += row[j] * x
			}
		}
		out[k] = s > t
	}
	return out
}

func (d digitalEval) EvalFC(in []float64) []float64 {
	y := tensor.MatVec(d.q.FC.W, in)
	for i := range y {
		y[i] += d.q.FC.B[i]
	}
	return y
}

// Digital returns the exact software evaluator for the quantized
// network.
func (q *QuantizedNet) Digital() StageEval { return digitalEval{q} }

// ForwardWith runs the full binarized pipeline on one image using the
// given evaluator and returns the classifier scores.
func (q *QuantizedNet) ForwardWith(eval StageEval, img *tensor.Tensor) []float64 {
	cur := img
	for l := range q.Convs {
		cur = q.convStage(eval, l, cur)
	}
	return eval.EvalFC(cur.Data())
}

// convStage applies conv stage l (matrix eval + binarize + OR pool) to
// the current activation map and returns the next 0/1 map. The digital
// evaluator takes the dense kernels (stageSums' skip-zero fold is
// digitalEval.EvalConv's, position by position); other evaluators are
// asked one receptive field at a time.
func (q *QuantizedNet) convStage(eval StageEval, l int, cur *tensor.Tensor) *tensor.Tensor {
	c := &q.Convs[l]
	if d, ok := eval.(digitalEval); ok && d.q == q {
		return q.advanceFromSums(l, stageSums(c, cur), q.Thresholds[l])
	}
	kh, kw := c.W.Dim(2), c.W.Dim(3)
	cols := tensor.Im2Col(cur, kh, kw, c.Stride)
	positions := cols.Dim(0)
	h, w := cur.Dim(1), cur.Dim(2)
	outH := (h-kh)/c.Stride + 1
	outW := (w-kw)/c.Stride + 1
	f := c.Filters()
	bits := tensor.New(f, outH, outW)
	bd := bits.Data()
	fan := cols.Dim(1)
	for p := 0; p < positions; p++ {
		field := cols.Data()[p*fan : (p+1)*fan]
		for k, b := range eval.EvalConv(l, field) {
			if b {
				bd[k*positions+p] = 1
			}
		}
	}
	if c.PoolSize > 1 {
		bits = orPool(bits, c.PoolSize)
		if h := q.hw; h != nil {
			h.ORPool(int64(bits.Len()))
		}
	}
	return bits
}

// orPool reduces each size×size window to the OR of its bits — the
// degenerate form of max pooling on 1-bit data (Section 3.1).
func orPool(bits *tensor.Tensor, size int) *tensor.Tensor {
	out := tensor.New(bits.Dim(0), bits.Dim(1)/size, bits.Dim(2)/size)
	orPoolInto(out, bits, size)
	return out
}

// orPoolInto writes the OR pool of a 0/1 map ([c,h,w]) into dst
// ([c, h/size, w/size]).
func orPoolInto(dst, bits *tensor.Tensor, size int) {
	ch, h, w := bits.Dim(0), bits.Dim(1), bits.Dim(2)
	oh, ow := dst.Dim(1), dst.Dim(2)
	bd, dd := bits.Data(), dst.Data()
	for c := 0; c < ch; c++ {
		base := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				v := 0.0
				for ky := 0; ky < size && v == 0; ky++ {
					row := base + (oy*size+ky)*w + ox*size
					for kx := 0; kx < size; kx++ {
						if bd[row+kx] != 0 {
							v = 1
							break
						}
					}
				}
				dd[(c*oh+oy)*ow+ox] = v
			}
		}
	}
}

// Predict classifies one image with the exact digital evaluator.
func (q *QuantizedNet) Predict(img *tensor.Tensor) int {
	scores := q.ForwardWith(q.Digital(), img)
	return tensor.FromSlice(scores, len(scores)).ArgMax()
}

// CloneForEval implements nn.ParallelClassifier. The digital evaluator
// is stateless and Predict only reads the network, so the receiver
// itself is safe to share across goroutines; the seed is ignored.
func (q *QuantizedNet) CloneForEval(seed int64) nn.Classifier { return q }

// PredictWith classifies one image with an arbitrary evaluator
// (e.g. a hardware simulation).
func (q *QuantizedNet) PredictWith(eval StageEval, img *tensor.Tensor) int {
	scores := q.ForwardWith(eval, img)
	return tensor.FromSlice(scores, len(scores)).ArgMax()
}

// BinaryActivations runs the digital pipeline and returns the 0/1
// activation map entering each conv stage l ≥ 1 and the FC stage —
// the data the hardware simulators consume as selection signals.
func (q *QuantizedNet) BinaryActivations(img *tensor.Tensor) []*tensor.Tensor {
	var acts []*tensor.Tensor
	cur := img
	eval := q.Digital()
	for l := range q.Convs {
		cur = q.convStage(eval, l, cur)
		acts = append(acts, cur)
	}
	return acts
}
