package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveConv computes valid convolution (really cross-correlation, as
// in CNN frameworks) directly from the definition, as a reference for
// the im2col path.
func naiveConv(in *Tensor, w *Tensor, stride int) *Tensor {
	c, h, wd := in.Dim(0), in.Dim(1), in.Dim(2)
	f, kc, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if kc != c {
		panic("channel mismatch")
	}
	outH := (h-kh)/stride + 1
	outW := (wd-kw)/stride + 1
	out := New(f, outH, outW)
	for o := 0; o < f; o++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							s += in.At(ch, oy*stride+ky, ox*stride+kx) * w.At(o, ch, ky, kx)
						}
					}
				}
				out.Set(s, o, oy, ox)
			}
		}
	}
	return out
}

func TestIm2ColShape(t *testing.T) {
	in := New(3, 10, 8)
	cols := Im2Col(in, 3, 3, 1)
	if cols.Dim(0) != 8*6 || cols.Dim(1) != 27 {
		t.Fatalf("Im2Col shape %v, want [48 27]", cols.Shape())
	}
}

func TestIm2ColStride(t *testing.T) {
	in := New(1, 6, 6)
	cols := Im2Col(in, 2, 2, 2)
	if cols.Dim(0) != 9 || cols.Dim(1) != 4 {
		t.Fatalf("strided Im2Col shape %v, want [9 4]", cols.Shape())
	}
}

// Property: convolution via im2col + MatMul matches the naive
// definition for random shapes and values.
func TestIm2ColConvMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(3)
		kh := 1 + r.Intn(3)
		kw := 1 + r.Intn(3)
		h := kh + r.Intn(5)
		w := kw + r.Intn(5)
		filters := 1 + r.Intn(4)
		stride := 1 + r.Intn(2)
		in := New(c, h, w)
		for i := range in.Data() {
			in.Data()[i] = r.NormFloat64()
		}
		wt := New(filters, c, kh, kw)
		for i := range wt.Data() {
			wt.Data()[i] = r.NormFloat64()
		}
		want := naiveConv(in, wt, stride)

		cols := Im2Col(in, kh, kw, stride)      // [P, c*kh*kw]
		wmat := wt.Reshape(filters, c*kh*kw)    // [F, c*kh*kw]
		prod := MatMul(wmat, Transpose2D(cols)) // [F, P]
		got := prod.Reshape(filters, want.Dim(1), want.Dim(2))
		return EqualApprox(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { Im2Col(New(4, 4), 2, 2, 1) },    // not 3-D
		func() { Im2Col(New(1, 4, 4), 5, 2, 1) }, // kernel too big
		func() { Im2Col(New(1, 4, 4), 2, 2, 0) }, // zero stride
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMaxPool(t *testing.T) {
	x := FromSlice([]float64{
		1, -2, 3, 9, 7,
		-4, 0, -1, 2, 8,
		5, 6, -7, -8, 6,
	}, 1, 3, 5)
	got := MaxPool(x, 2) // the last row and column do not fill a window
	want := FromSlice([]float64{1, 9}, 1, 1, 2)
	if !EqualApprox(got, want, 0) {
		t.Fatalf("MaxPool = %v %v, want %v", got.Shape(), got.Data(), want.Data())
	}
	if got := MaxPool(FromSlice([]float64{-3, -1, -2, -5}, 1, 2, 2), 2); got.Data()[0] != -1 {
		t.Fatalf("all-negative window pooled to %v, want -1", got.Data()[0])
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e.
// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y. This is the exact
// condition backprop needs.
func TestCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(3)
		kh := 1 + r.Intn(3)
		kw := 1 + r.Intn(3)
		h := kh + r.Intn(4)
		w := kw + r.Intn(4)
		stride := 1 + r.Intn(2)
		x := New(c, h, w)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		ax := Im2Col(x, kh, kw, stride)
		y := New(ax.Dim(0), ax.Dim(1))
		for i := range y.Data() {
			y.Data()[i] = r.NormFloat64()
		}
		aty := Col2Im(y, c, h, w, kh, kw, stride)
		lhs := 0.0
		for i := range ax.Data() {
			lhs += ax.Data()[i] * y.Data()[i]
		}
		rhs := 0.0
		for i := range x.Data() {
			rhs += x.Data()[i] * aty.Data()[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Col2Im with wrong shape did not panic")
		}
	}()
	Col2Im(New(3, 3), 1, 4, 4, 2, 2, 1)
}
