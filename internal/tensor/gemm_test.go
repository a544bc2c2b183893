package tensor

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/rng"
)

// refMatMul is the naive triple loop every blocked kernel is checked against.
func refMatMul(dst, a, b Mat, transA, transB bool, accumulate bool) {
	if !accumulate {
		dst.Zero()
	}
	at := func(m Mat, i, j int, t bool) float64 {
		if t {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	k := a.Cols
	if transA {
		k = a.Rows
	}
	for i := 0; i < dst.Rows; i++ {
		for j := 0; j < dst.Cols; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(a, i, p, transA) * at(b, p, j, transB)
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func randMat(r *rng.Rand, rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func matsAlmostEq(t *testing.T, name string, got, want Mat, tol float64) {
	t.Helper()
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestGEMMVariantsMatchReference sweeps shapes that exercise every remainder
// path of the 4×4 register tiles (edges not divisible by the tile) and the
// k-block loop (k > gemmBlockK), for all three orientations plus the
// accumulate forms.
func TestGEMMVariantsMatchReference(t *testing.T) {
	r := rng.New(11)
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 7, 3}, {8, 8, 8},
		{3, 6, 9}, {7, 5, 11}, {13, 17, 6}, {4, gemmBlockK + 3, 5},
		{6, 2*gemmBlockK + 1, 7}, {32, 33, 10},
		{3, 0, 4}, // empty reduction: the store forms yield zeros
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randMat(r, m, k)
			b := randMat(r, k, n)
			bT := randMat(r, n, k)
			aT := randMat(r, k, m)

			got, want := NewMat(m, n), NewMat(m, n)
			MatMul(got, a, b)
			refMatMul(want, a, b, false, false, false)
			matsAlmostEq(t, "MatMul", got, want, 1e-10)

			// MatMulAdd accumulates on top of existing contents.
			seed := randMat(r, m, n)
			copy(got.Data, seed.Data)
			copy(want.Data, seed.Data)
			MatMulAdd(got, a, b)
			refMatMul(want, a, b, false, false, true)
			matsAlmostEq(t, "MatMulAdd", got, want, 1e-10)

			MatMulABT(got, a, bT)
			refMatMul(want, a, bT, false, true, false)
			matsAlmostEq(t, "MatMulABT", got, want, 1e-10)

			copy(got.Data, seed.Data)
			copy(want.Data, seed.Data)
			MatMulABTAdd(got, a, bT)
			refMatMul(want, a, bT, false, true, true)
			matsAlmostEq(t, "MatMulABTAdd", got, want, 1e-10)

			copy(got.Data, seed.Data)
			copy(want.Data, seed.Data)
			MatMulATBAdd(got, aT, b)
			refMatMul(want, aT, b, true, false, true)
			matsAlmostEq(t, "MatMulATBAdd", got, want, 1e-10)
		})
	}
}

// TestGEMMShapePanics verifies every new GEMM variant rejects mismatched
// shapes rather than reading out of bounds.
func TestGEMMShapePanics(t *testing.T) {
	park := make([]float64, RunsParkLen(2, 2))
	cases := map[string]func(){
		"MatMul/inner":      func() { MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2)) },
		"MatMul/dst":        func() { MatMul(NewMat(3, 2), NewMat(2, 3), NewMat(3, 2)) },
		"MatMulAdd/inner":   func() { MatMulAdd(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2)) },
		"MatMulABT/inner":   func() { MatMulABT(NewMat(2, 2), NewMat(2, 3), NewMat(2, 4)) },
		"MatMulABT/dst":     func() { MatMulABT(NewMat(2, 3), NewMat(2, 3), NewMat(2, 3)) },
		"MatMulABTAdd/dst":  func() { MatMulABTAdd(NewMat(2, 3), NewMat(2, 3), NewMat(2, 3)) },
		"MatMulATBAdd/rows": func() { MatMulATBAdd(NewMat(3, 2), NewMat(2, 3), NewMat(4, 2)) },
		"MatMulATBAdd/dst":  func() { MatMulATBAdd(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2)) },
		"AddBiasRows":       func() { AddBiasRows(NewMat(2, 3), make([]float64, 2)) },
		"ColSums":           func() { ColSums(make([]float64, 2), NewMat(2, 3)) },
		"MatMul/short-data": func() { MatMul(NewMat(2, 2), Mat{Rows: 2, Cols: 3, Data: make([]float64, 5)}, NewMat(3, 2)) },
		"Transpose":         func() { Transpose(NewMat(2, 3), NewMat(2, 3)) },
		"Im2ColInto/rows":   func() { Im2ColInto(NewMat(3, 4), 0, make([]float64, 9), 1, 3, 3, 2) },
		"Im2ColInto/cols":   func() { Im2ColInto(NewMat(4, 7), 4, make([]float64, 9), 1, 3, 3, 2) },
		"Im2ColInto/src":    func() { Im2ColInto(NewMat(4, 4), 0, make([]float64, 8), 1, 3, 3, 2) },
		"MatMulRuns/inner":  func() { MatMulRuns(NewMat(2, 4), 4, NewMat(2, 3), make([]float64, 9), []int{0, 1}) },
		"MatMulRuns/dst":    func() { MatMulRuns(NewMat(2, 4), 5, NewMat(2, 2), make([]float64, 9), []int{0, 1}) },
		"MatMulRuns/run":    func() { MatMulRuns(NewMat(2, 4), 4, NewMat(2, 2), make([]float64, 9), []int{0, 6}) },
		"MatMulRuns/neg":    func() { MatMulRuns(NewMat(2, 4), 4, NewMat(2, 2), make([]float64, 9), []int{-1, 0}) },
		"MatMulABTRuns/dst": func() { MatMulABTRunsSum(NewMat(2, 3), NewMat(1, 8), 4, NewMat(1, 9), []int{0, 1}, park) },
		"MatMulABTRuns/n":   func() { MatMulABTRunsSum(NewMat(2, 2), NewMat(1, 8), 5, NewMat(1, 9), []int{0, 1}, park) },
		"MatMulABTRuns/run": func() { MatMulABTRunsSum(NewMat(2, 2), NewMat(1, 8), 4, NewMat(1, 9), []int{0, 6}, park) },
		"MatMulABTRuns/img": func() { MatMulABTRunsSum(NewMat(2, 2), NewMat(2, 8), 4, NewMat(1, 9), []int{0, 1}, park) },
		"MatMulABTRuns/rows": func() {
			MatMulABTRunsSum(NewMat(3, 2), NewMat(1, 8), 2, NewMat(1, 9), []int{0, 1}, park)
		},
		"MaxPool2x2/in":      func() { MaxPool2x2(make([]float64, 4), make([]int, 4), make([]float64, 31), 2, 4, 4, 4) },
		"MaxPool2x2/stride":  func() { MaxPool2x2(make([]float64, 4), make([]int, 4), make([]float64, 24), 2, 4, 4, 3) },
		"MaxPool2x2/out":     func() { MaxPool2x2(make([]float64, 3), make([]int, 3), make([]float64, 32), 2, 4, 4, 4) },
		"MaxPool2x2/argmax":  func() { MaxPool2x2(make([]float64, 4), make([]int, 3), make([]float64, 32), 2, 4, 4, 4) },
		"MaxPool2x2/height":  func() { MaxPool2x2(nil, nil, make([]float64, 4), 1, 1, 4, 4) },
		"MaxPool2x2Back/dIn": func() { MaxPool2x2Backward(make([]float64, 33), make([]float64, 4), make([]int, 4), 2, 4, 4, 4) },
		"MaxPool2x2Back/dOut": func() {
			MaxPool2x2Backward(make([]float64, 32), make([]float64, 5), make([]int, 4), 2, 4, 4, 4)
		},
		"ReLU":              func() { ReLU(make([]float64, 3), make([]float64, 4)) },
		"ReLUBackward/dIn":  func() { ReLUBackward(make([]float64, 3), make([]float64, 4), make([]float64, 4)) },
		"ReLUBackward/dOut": func() { ReLUBackward(make([]float64, 4), make([]float64, 4), make([]float64, 5)) },
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

func TestAddBiasRowsAndColSums(t *testing.T) {
	m := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	AddBiasRows(m, []float64{10, 20, 30})
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("AddBiasRows = %v, want %v", m.Data, want)
		}
	}
	sums := []float64{1, 1, 1} // overwritten, not accumulated into
	ColSums(sums, m)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums = %v", sums)
	}
}

// TestTranspose covers the 4-row blocks and the remainder rows of both
// dimensions, and checks the one-row A·Bᵀ GEMM (the b = 1 Dense forward)
// against the row dots it computes.
func TestTranspose(t *testing.T) {
	r := rng.New(12)
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {4, 4}, {5, 7}, {32, 784}, {131, 6}} {
		src := randMat(r, sh[0], sh[1])
		dst := NewMat(sh[1], sh[0])
		Transpose(dst, src)
		for i := 0; i < sh[0]; i++ {
			for j := 0; j < sh[1]; j++ {
				if dst.At(j, i) != src.At(i, j) {
					t.Fatalf("%v: dst[%d][%d] = %v, want %v", sh, j, i, dst.At(j, i), src.At(i, j))
				}
			}
		}
		x, got := randMat(r, 1, sh[1]).Data, make([]float64, sh[0])
		matVec(got, src, x)
		for i, v := range got {
			if !almostEq(v, Dot(src.Row(i), x), 1e-10) {
				t.Fatalf("%v: a·x[%d] = %v, want %v", sh, i, v, Dot(src.Row(i), x))
			}
		}
	}
}

// TestIm2ColIntoMatchesIm2Col pins the offset lowering to the established
// Im2Col: each example's panel placed at its column offset must equal the
// standalone lowering, and neighboring panels must be untouched.
func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		channels := 1 + r.Intn(3)
		k := 2 + r.Intn(2)
		h := k + r.Intn(4)
		w := k + r.Intn(4)
		outH, outW := h-k+1, w-k+1
		ohw := outH * outW
		src0 := make([]float64, channels*h*w)
		src1 := make([]float64, channels*h*w)
		for i := range src0 {
			src0[i] = r.NormFloat64()
			src1[i] = r.NormFloat64()
		}
		wide := NewMat(channels*k*k, 2*ohw)
		Im2ColInto(wide, 0, src0, channels, h, w, k)
		Im2ColInto(wide, ohw, src1, channels, h, w, k)
		ref0 := NewMat(channels*k*k, ohw)
		ref1 := NewMat(channels*k*k, ohw)
		Im2Col(ref0, src0, channels, h, w, k)
		Im2Col(ref1, src1, channels, h, w, k)
		for i := 0; i < wide.Rows; i++ {
			for j := 0; j < ohw; j++ {
				if wide.At(i, j) != ref0.At(i, j) || wide.At(i, ohw+j) != ref1.At(i, j) {
					t.Fatalf("Im2ColInto panel mismatch at (%d,%d)", i, j)
				}
			}
		}
	}
}

// BenchmarkGEMM measures the blocked kernels at the batched-minibatch shapes
// the MLP gradient path runs (batch 32 × the paper's 784→128 layer).
func BenchmarkGEMM(b *testing.B) {
	r := rng.New(1)
	in := randMat(r, 32, 784)   // batch × fan-in
	w := randMat(r, 128, 784)   // weights
	out := NewMat(32, 128)      // batch × fan-out
	dOut := randMat(r, 32, 128) // upstream deltas
	gw := NewMat(128, 784)
	dIn := NewMat(32, 784)
	b.Run("ABT/32x784x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulABT(out, in, w)
		}
	})
	b.Run("ATBAdd/32x128x784", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulATBAdd(gw, dOut, in)
		}
	})
	b.Run("MatMul/32x128x784", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMul(dIn, dOut, w)
		}
	})
}

// convRuns is the offset table of a valid k×k convolution over a
// (channels, h, w) image: row (c, dy, dx) of its lowering is the run that
// starts at c·h·w + dy·w + dx, (h−k)·w + w−k+1 long when the output is
// computed at the input's row width.
func convRuns(channels, h, w, k int) (off []int, n int) {
	for c := 0; c < channels; c++ {
		for dy := 0; dy < k; dy++ {
			for dx := 0; dx < k; dx++ {
				off = append(off, c*h*w+dy*w+dx)
			}
		}
	}
	return off, (h-k)*w + w - k + 1
}

// lowerRuns materialises the run matrix MatMulRuns reads in place: row q is
// b[off[q] : off[q]+n].
func lowerRuns(b []float64, off []int, n int) Mat {
	m := NewMat(len(off), n)
	for q, o := range off {
		copy(m.Row(q), b[o:o+n])
	}
	return m
}

// runsCases are the run products the tests drive: the paper CNN's two
// convolutions and the small CNN's second, odd geometries (more filters
// than either tier's MR, runs that are not a multiple of 4 or of either
// NR, 1×1 kernels), and free-form tables whose runs overlap out of order.
func runsCases(r *rng.Rand) []struct {
	name string
	m, n int
	b    []float64
	off  []int
} {
	type tc = struct {
		name string
		m, n int
		b    []float64
		off  []int
	}
	var out []tc
	for _, g := range [][5]int{{4, 1, 28, 28, 3}, {8, 4, 13, 13, 3}, {4, 2, 13, 13, 3}, {9, 3, 7, 5, 2}, {3, 2, 6, 9, 1}, {17, 1, 4, 4, 3}} {
		f, c, h, w, k := g[0], g[1], g[2], g[3], g[4]
		off, n := convRuns(c, h, w, k)
		out = append(out, tc{fmt.Sprintf("conv/f=%d/%dx%dx%d/k=%d", f, c, h, w, k), f, n, randMat(r, 1, c*h*w).Data, off})
	}
	for _, sh := range [][3]int{{1, 1, 1}, {5, 7, 3}, {8, 33, 5}, {13, 6, 40}} {
		m, n, k := sh[0], sh[1], sh[2]
		b := randMat(r, 1, n+3*k).Data
		off := make([]int, k)
		for q := range off {
			off[q] = r.Intn(len(b) - n + 1)
		}
		out = append(out, tc{fmt.Sprintf("free/%dx%dx%d", m, n, k), m, n, b, off})
	}
	return out
}

// TestMatMulRunsMatchesLowering pins the in-place run products to the GEMMs
// over the explicit lowering, through whatever kernels init selected:
// MatMulRuns bit for bit against MatMul (the same reduction, term for term)
// with every column past n untouched, and MatMulABTRunsSum over one image,
// which overwrites its NaN-filled dst, against MatMulABT to 1e-10 (their
// tiles split a sum differently).
func TestMatMulRunsMatchesLowering(t *testing.T) {
	r := rng.New(31)
	for _, c := range runsCases(r) {
		t.Run(c.name, func(t *testing.T) {
			k := len(c.off)
			a := randMat(r, c.m, k)
			lowered := lowerRuns(c.b, c.off, c.n)
			want := NewMat(c.m, c.n)
			MatMul(want, a, lowered)
			const pad = 3
			got := NewMat(c.m, c.n+pad)
			Fill(got.Data, math.NaN())
			MatMulRuns(got, c.n, a, c.b, c.off)
			for i := 0; i < c.m; i++ {
				for j := 0; j < c.n+pad; j++ {
					v := got.At(i, j)
					if j >= c.n {
						if !math.IsNaN(v) {
							t.Fatalf("column %d past the %d runs written: %v", j, c.n, v)
						}
					} else if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("[%d][%d] = %v, lowered MatMul %v", i, j, v, want.At(i, j))
					}
				}
			}

			dOut := randMat(r, c.m, c.n+pad)
			dOutN := NewMat(c.m, c.n)
			for i := 0; i < c.m; i++ {
				copy(dOutN.Row(i), dOut.Row(i)[:c.n])
			}
			gw, wantW := NewMat(c.m, k), NewMat(c.m, k)
			Fill(gw.Data, math.NaN())
			park := make([]float64, RunsParkLen(c.m, k))
			MatMulABTRunsSum(gw, MatFrom(1, len(dOut.Data), dOut.Data), c.n, MatFrom(1, len(c.b), c.b), c.off, park)
			MatMulABT(wantW, dOutN, lowered)
			matsAlmostEq(t, "MatMulABTRunsSum", gw, wantW, 1e-10)
		})
	}
}
