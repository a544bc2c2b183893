package nn

import (
	"math"
	"testing"

	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// col2ImAddFrom scatter-adds columns [col0, col0+outH*outW) of src (the
// gradient with respect to a tensor.Im2ColInto lowering) back into the
// (channels, h, w) image dst, accumulating overlapping contributions: one
// Axpy per lowering row and output row, in lowering-row order. It is the
// col2im of the lowered convolution (loweredConv), which the conv layer's
// input gradient must reproduce bit for bit.
func col2ImAddFrom(dst []float64, src tensor.Mat, col0 int, channels, h, w, k int) {
	outH, outW := h-k+1, w-k+1
	if src.Rows != channels*k*k || col0 < 0 || col0+outH*outW > src.Cols {
		panic("col2ImAddFrom: src shape mismatch")
	}
	if len(dst) != channels*h*w {
		panic("col2ImAddFrom: dst length mismatch")
	}
	row := 0
	for c := 0; c < channels; c++ {
		chanBase := c * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				sRow := src.Row(row)[col0 : col0+outH*outW]
				row++
				idx := 0
				for oy := 0; oy < outH; oy++ {
					dstOff := chanBase + (oy+ky)*w + kx
					tensor.Axpy(1, sRow[idx:idx+outW], dst[dstOff:dstOff+outW])
					idx += outW
				}
			}
		}
	}
}

// col2ImAdd is col2ImAddFrom over a whole tensor.Im2Col-shaped matrix.
func col2ImAdd(dst []float64, src tensor.Mat, channels, h, w, k int) {
	outH, outW := h-k+1, w-k+1
	if outH > 0 && outW > 0 && src.Cols != outH*outW {
		panic("col2ImAdd: src shape mismatch")
	}
	col2ImAddFrom(dst, src, 0, channels, h, w, k)
}

func TestCol2ImAddAccumulates(t *testing.T) {
	// Two calls must sum, not overwrite.
	dst := make([]float64, 4)
	src := tensor.NewMat(4, 1)
	for i := range src.Data {
		src.Data[i] = 1
	}
	col2ImAdd(dst, src, 1, 2, 2, 2)
	col2ImAdd(dst, src, 1, 2, 2, 2)
	for i, v := range dst {
		if v != 2 {
			t.Fatalf("dst[%d] = %v, want 2", i, v)
		}
	}
}

// TestCol2ImPanics: the reference col2im rejects a lowering of the wrong
// shape, a column offset past the panel, and an image of the wrong size.
func TestCol2ImPanics(t *testing.T) {
	cases := map[string]func(){
		"Col2ImAddFrom/src": func() { col2ImAddFrom(make([]float64, 9), tensor.NewMat(3, 4), 0, 1, 3, 3, 2) },
		"Col2ImAddFrom/off": func() { col2ImAddFrom(make([]float64, 9), tensor.NewMat(4, 7), 4, 1, 3, 3, 2) },
		"Col2ImAddFrom/dst": func() { col2ImAddFrom(make([]float64, 8), tensor.NewMat(4, 4), 0, 1, 3, 3, 2) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}

func adjointClose(a, b float64) bool { return math.Abs(a-b) <= 1e-8 }

// Property: col2ImAdd is the adjoint of tensor.Im2Col:
// <Im2Col(x), c> == <x, col2ImAdd(c)> for random x, c.
func TestIm2ColAdjoint(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		channels := 1 + r.Intn(3)
		k := 2 + r.Intn(2)
		h := k + r.Intn(4)
		w := k + r.Intn(4)
		outH, outW := h-k+1, w-k+1
		x := make([]float64, channels*h*w)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		cols := tensor.NewMat(channels*k*k, outH*outW)
		tensor.Im2Col(cols, x, channels, h, w, k)
		c := tensor.NewMat(channels*k*k, outH*outW)
		for i := range c.Data {
			c.Data[i] = r.NormFloat64()
		}
		lhs := tensor.Dot(cols.Data, c.Data)
		back := make([]float64, len(x))
		col2ImAdd(back, c, channels, h, w, k)
		rhs := tensor.Dot(x, back)
		if !adjointClose(lhs, rhs) {
			t.Fatalf("Im2Col adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

// TestCol2ImAddFromAdjoint proves col2ImAddFrom is the adjoint of
// tensor.Im2ColInto at a nonzero column offset:
// <Im2ColInto(x), c> == <x, col2ImAddFrom(c)> over the panel.
func TestCol2ImAddFromAdjoint(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 20; trial++ {
		channels := 1 + r.Intn(3)
		k := 2 + r.Intn(2)
		h := k + r.Intn(4)
		w := k + r.Intn(4)
		outH, outW := h-k+1, w-k+1
		ohw := outH * outW
		x := make([]float64, channels*h*w)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		wide := tensor.NewMat(channels*k*k, 3*ohw)
		tensor.Im2ColInto(wide, ohw, x, channels, h, w, k)
		c := tensor.NewMat(channels*k*k, 3*ohw)
		for i := range c.Data {
			c.Data[i] = r.NormFloat64()
		}
		var lhs float64
		for i := 0; i < wide.Rows; i++ {
			wRow, cRow := wide.Row(i), c.Row(i)
			for j := ohw; j < 2*ohw; j++ {
				lhs += wRow[j] * cRow[j]
			}
		}
		back := make([]float64, len(x))
		col2ImAddFrom(back, c, ohw, channels, h, w, k)
		rhs := tensor.Dot(x, back)
		if !adjointClose(lhs, rhs) {
			t.Fatalf("col2ImAddFrom adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}
