package tensor

import (
	"fmt"
	"math"
	"testing"

	"leashedsgd/internal/rng"
)

// randCSR builds a CSR with exactly nnz strictly-increasing column indices
// per row, mirroring the sparse datasets' shape.
func randCSR(r *rng.Rand, rows, cols, nnz int) CSR {
	m := CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		seen := map[int32]bool{}
		row := make([]int32, 0, nnz)
		for len(row) < nnz {
			j := int32(r.Intn(cols))
			if !seen[j] {
				seen[j] = true
				row = append(row, j)
			}
		}
		// Insertion sort: rows are tiny.
		for a := 1; a < len(row); a++ {
			for b := a; b > 0 && row[b] < row[b-1]; b-- {
				row[b], row[b-1] = row[b-1], row[b]
			}
		}
		for _, j := range row {
			m.Idx = append(m.Idx, j)
			m.Val = append(m.Val, r.NormFloat64())
		}
		m.RowPtr[i+1] = int32(len(m.Idx))
	}
	return m
}

// densify expands a CSR into the dense Mat the reference kernels consume.
func densify(m CSR) Mat {
	d := NewMat(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		idx, val := m.Row(i)
		row := d.Row(i)
		for k, j := range idx {
			row[j] = val[k]
		}
	}
	return d
}

// TestSparseKernelsMatchDensified pins the whole CSR row family to the
// densified dense reference (one-row GEMMs / scalar loops) across shapes
// covering empty rows, single elements, unroll tails and multi-lane bulks.
func TestSparseKernelsMatchDensified(t *testing.T) {
	r := rng.New(37)
	shapes := [][3]int{ // rows, cols, nnz per row
		{1, 1, 1}, {3, 16, 2}, {4, 64, 7}, {8, 128, 8}, {5, 300, 23},
		{2, 1000, 64}, {7, 97, 1}, {6, 512, 33},
	}
	for _, sh := range shapes {
		rows, cols, nnz := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%d/nnz%d", rows, cols, nnz), func(t *testing.T) {
			a := randCSR(r, rows, cols, nnz)
			dense := densify(a)
			x := make([]float64, cols)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			y := make([]float64, rows)
			for i := range y {
				y[i] = r.NormFloat64()
			}

			// SpDot per row vs the dense row dot.
			for i := 0; i < rows; i++ {
				idx, val := a.Row(i)
				got := SpDot(idx, val, x)
				want := Dot(dense.Row(i), x)
				if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
					t.Fatalf("SpDot row %d = %v, want %v", i, got, want)
				}
			}

			// SpMV vs a·x.
			got := make([]float64, rows)
			want := make([]float64, rows)
			SpMV(got, a, x)
			matVec(want, dense, x)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					t.Fatalf("SpMV[%d] = %v, want %v", i, got[i], want[i])
				}
			}

			// SpMTVAdd vs aᵀ·y (which overwrites, so seed the want side
			// separately and add).
			gotT := make([]float64, cols)
			wantT := make([]float64, cols)
			seed := make([]float64, cols)
			for i := range seed {
				seed[i] = r.NormFloat64()
			}
			copy(gotT, seed)
			SpMTVAdd(gotT, a, y)
			matTVec(wantT, dense, y)
			for i := range wantT {
				wantT[i] += seed[i]
			}
			for i := range gotT {
				if math.Abs(gotT[i]-wantT[i]) > 1e-10*(1+math.Abs(wantT[i])) {
					t.Fatalf("SpMTVAdd[%d] = %v, want %v", i, gotT[i], wantT[i])
				}
			}

			// SpAxpy vs the dense Axpy over the densified row.
			gotA := make([]float64, cols)
			wantA := make([]float64, cols)
			idx0, val0 := a.Row(0)
			SpAxpy(0.75, idx0, val0, gotA)
			Axpy(0.75, dense.Row(0), wantA)
			for i := range gotA {
				if math.Abs(gotA[i]-wantA[i]) > 1e-12 {
					t.Fatalf("SpAxpy[%d] = %v, want %v", i, gotA[i], wantA[i])
				}
			}
		})
	}
}

// TestSparseKernelEdgeCases covers the empty-row and zero-alpha fast paths.
func TestSparseKernelEdgeCases(t *testing.T) {
	x := []float64{1, 2, 3}
	if got := SpDot(nil, nil, x); got != 0 {
		t.Fatalf("empty SpDot = %v", got)
	}
	y := []float64{4, 5, 6}
	SpAxpy(0, []int32{0, 2}, []float64{9, 9}, y)
	if y[0] != 4 || y[2] != 6 {
		t.Fatalf("zero-alpha SpAxpy mutated y: %v", y)
	}
	// A CSR with an empty middle row must zero that SpMV slot.
	a := CSR{Rows: 3, Cols: 4, RowPtr: []int32{0, 1, 1, 2}, Idx: []int32{2, 0}, Val: []float64{2, 3}}
	dst := []float64{-1, -1, -1}
	SpMV(dst, a, []float64{1, 1, 1, 1})
	if dst[0] != 2 || dst[1] != 0 || dst[2] != 3 {
		t.Fatalf("SpMV with empty row = %v", dst)
	}
}

// TestSparseShapePanics pins the kernel-shape contract, like the GEMM
// variants' panic tests.
func TestSparseShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("SpDot", func() { SpDot([]int32{1}, nil, []float64{1, 2}) })
	expectPanic("SpAxpy", func() { SpAxpy(1, []int32{1}, nil, []float64{1, 2}) })
	bad := CSR{Rows: 2, Cols: 2, RowPtr: []int32{0, 1}, Idx: []int32{0}, Val: []float64{1}}
	expectPanic("SpMV/rowptr", func() { SpMV(make([]float64, 2), bad, make([]float64, 2)) })
	ok := CSR{Rows: 1, Cols: 4, RowPtr: []int32{0, 1}, Idx: []int32{0}, Val: []float64{1}}
	expectPanic("SpMV/shape", func() { SpMV(make([]float64, 2), ok, make([]float64, 4)) })
	expectPanic("SpMTVAdd/shape", func() { SpMTVAdd(make([]float64, 3), ok, make([]float64, 1)) })
}

// BenchmarkSpMV measures the CSR row kernels at the RCV1-like shape the
// sparse training scenario uses (d = 131072, 64 nonzeros per row): the
// gather dot (flat-view hot path), the scatter axpy, and a 16-row SpMV.
func BenchmarkSpMV(b *testing.B) {
	r := rng.New(7)
	const cols, nnz, rows = 131072, 64, 16
	a := randCSR(r, rows, cols, nnz)
	x := make([]float64, cols)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	dst := make([]float64, rows)
	acc := make([]float64, cols)
	idx, val := a.Row(0)
	b.Run(fmt.Sprintf("SpDot/d%d_nnz%d", cols, nnz), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFloat = SpDot(idx, val, x)
		}
	})
	b.Run(fmt.Sprintf("SpAxpy/d%d_nnz%d", cols, nnz), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SpAxpy(0.5, idx, val, acc)
		}
	})
	b.Run(fmt.Sprintf("Rows%d/d%d_nnz%d", rows, cols, nnz), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SpMV(dst, a, x)
		}
	})
}

var sinkFloat float64
