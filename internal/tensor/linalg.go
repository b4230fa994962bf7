package tensor

import (
	"fmt"
	"math"
)

// MatVec computes y = A·x for a 2-D tensor A of shape [m,n] and a
// vector x of length n, returning a vector of length m.
func MatVec(a *Tensor, x []float64) []float64 {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVec needs a 2-D matrix, got shape %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	if len(x) != n {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch: matrix %dx%d, vector %d", m, n, len(x)))
	}
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MatVecT computes y = Aᵀ·x for a 2-D tensor A of shape [m,n] and a
// vector x of length m, returning a vector of length n. It avoids
// materializing the transpose.
func MatVecT(a *Tensor, x []float64) []float64 {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVecT needs a 2-D matrix, got shape %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	if len(x) != m {
		panic(fmt.Sprintf("tensor: MatVecT dimension mismatch: matrix %dx%d, vector %d", m, n, len(x)))
	}
	y := make([]float64, n)
	MatVecTInto(y, a, x)
	return y
}

// MatVecTInto computes y = Aᵀ·x into the caller-provided dst (len n),
// zeroing it first. The accumulation order is exactly MatVecT's —
// ascending rows, zero rows skipped — so results are bit-identical to
// MatVecT while letting tight loops reuse one output buffer.
func MatVecTInto(dst []float64, a *Tensor, x []float64) {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatVecTInto needs a 2-D matrix, got shape %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	if len(x) != m {
		panic(fmt.Sprintf("tensor: MatVecTInto dimension mismatch: matrix %dx%d, vector %d", m, n, len(x)))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: MatVecTInto destination length %d, want %d", len(dst), n))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// MatMul computes C = A·B for 2-D tensors A [m,k] and B [k,n],
// returning a new [m,n] tensor. The kernel iterates in ikj order so
// the inner loop walks both B and C contiguously, and skips zero A
// entries.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D matrices, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %dx%d by %dx%d", m, k, k2, n))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose2D returns a new tensor that is the transpose of a 2-D
// tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D needs a 2-D matrix, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t
}

// Im2Col unrolls a [channels, height, width] input into a matrix of
// shape [outH*outW, channels*kh*kw] for valid (no-padding) convolution
// with the given kernel size and stride. Row p of the result is the
// flattened receptive field of output position p (row-major over the
// output map); the receptive field is flattened channel-major, then
// row, then column, matching the weight layout used by nn.Conv2D.
func Im2Col(in *Tensor, kh, kw, stride int) *Tensor {
	if in.Dims() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col needs a 3-D [c,h,w] input, got %v", in.shape))
	}
	if kh <= 0 || kw <= 0 || stride <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col invalid kernel %dx%d stride %d", kh, kw, stride))
	}
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	if kh > h || kw > w {
		panic(fmt.Sprintf("tensor: Im2Col kernel %dx%d larger than input %dx%d", kh, kw, h, w))
	}
	outH := (h-kh)/stride + 1
	outW := (w-kw)/stride + 1
	cols := New(outH*outW, c*kh*kw)
	p := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := cols.data[p*c*kh*kw : (p+1)*c*kh*kw]
			d := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				for ky := 0; ky < kh; ky++ {
					src := base + (oy*stride+ky)*w + ox*stride
					copy(row[d:d+kw], in.data[src:src+kw])
					d += kw
				}
			}
			p++
		}
	}
	return cols
}

// Col2Im scatter-adds a gradient matrix of shape
// [outH*outW, channels*kh*kw] (as produced by Im2Col) back into an
// input-shaped [channels, height, width] tensor. It is the adjoint of
// Im2Col and is used by convolution backprop.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride int) *Tensor {
	outH := (h-kh)/stride + 1
	outW := (w-kw)/stride + 1
	if cols.Dims() != 2 || cols.shape[0] != outH*outW || cols.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match [%d,%d]", cols.shape, outH*outW, c*kh*kw))
	}
	out := New(c, h, w)
	p := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			src := cols.data[p*c*kh*kw : (p+1)*c*kh*kw]
			s := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				for ky := 0; ky < kh; ky++ {
					dst := base + (oy*stride+ky)*w + ox*stride
					for kx := 0; kx < kw; kx++ {
						out.data[dst+kx] += src[s]
						s++
					}
				}
			}
			p++
		}
	}
	return out
}

// MaxPool max-pools a [channels, height, width] tensor over
// non-overlapping size×size windows; edge rows and columns that do
// not fill a window are cropped.
func MaxPool(x *Tensor, size int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h/size, w/size
	out := New(c, oh, ow)
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < size; ky++ {
					row := base + (oy*size+ky)*w + ox*size
					for kx := 0; kx < size; kx++ {
						if v := x.data[row+kx]; v > best {
							best = v
						}
					}
				}
				out.data[(ch*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}
