package tensor

// Additional property and edge-case tests complementing tensor_test.go.

import (
	"testing"

	"leashedsgd/internal/rng"
)

// naiveMatMul is the O(n³) reference implementation used to cross-check the
// optimized ikj kernel.
func naiveMatMul(a, b Mat) Mat {
	dst := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a, b := NewMat(m, k), NewMat(k, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		fast := NewMat(m, n)
		MatMul(fast, a, b)
		slow := naiveMatMul(a, b)
		for i := range fast.Data {
			if diff := fast.Data[i] - slow.Data[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d: kernel disagrees with naive at %d: %v vs %v",
					trial, i, fast.Data[i], slow.Data[i])
			}
		}
	}
}

func TestMatMulSparseRows(t *testing.T) {
	// The kernel skips zero a[i,k] entries; an all-zero row must produce
	// an all-zero output row, and mixed rows must still be exact.
	a := MatFrom(2, 3, []float64{0, 0, 0, 1, 0, 2})
	b := MatFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	dst := NewMat(2, 2)
	MatMul(dst, a, b)
	want := []float64{0, 0, 11, 14}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("sparse MatMul = %v, want %v", dst.Data, want)
		}
	}
}

func TestMatMulOverwritesDst(t *testing.T) {
	a := MatFrom(1, 1, []float64{2})
	b := MatFrom(1, 1, []float64{3})
	dst := MatFrom(1, 1, []float64{999})
	MatMul(dst, a, b)
	if dst.Data[0] != 6 {
		t.Fatalf("dst not overwritten: %v", dst.Data[0])
	}
}

func TestMatVecPanics(t *testing.T) {
	a := NewMat(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MatVec(make([]float64, 2), a, make([]float64, 99))
}

func TestMatTVecPanics(t *testing.T) {
	a := NewMat(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MatTVec(make([]float64, 99), a, make([]float64, 2))
}

func TestOuterAddPanics(t *testing.T) {
	a := NewMat(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	OuterAdd(a, 1, make([]float64, 3), make([]float64, 2))
}

func TestIm2ColPanics(t *testing.T) {
	cases := []func(){
		// kernel larger than input
		func() { Im2Col(NewMat(9, 1), make([]float64, 4), 1, 2, 2, 3) },
		// wrong dst shape
		func() { Im2Col(NewMat(5, 5), make([]float64, 9), 1, 3, 3, 2) },
		// wrong src length
		func() { Im2Col(NewMat(4, 4), make([]float64, 5), 1, 3, 3, 2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDotEmpty(t *testing.T) {
	if Dot(nil, nil) != 0 {
		t.Fatal("empty dot != 0")
	}
}

func TestScaleZeroLength(t *testing.T) {
	Scale(2, nil) // must not panic
	Fill(nil, 1)
}

func TestCopyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Copy(make([]float64, 2), make([]float64, 3))
}

func TestArgMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ArgMax(nil)
}

func TestNorm2Empty(t *testing.T) {
	if Norm2(nil) != 0 {
		t.Fatal("empty norm != 0")
	}
}
