package tensor

// Sparse kernels: the CSR row family beside the dense GEMM kernels.
//
// The training-side consumers keep gradients in sorted index/value pairs
// (one CSR row per example, one merged row per minibatch), so the kernels
// here are row-shaped: a gather dot (SpDot) for the forward pass, a scatter
// axpy (SpAxpy) for folding a row into a dense accumulator, and CSR
// matrix-vector products (SpMV, SpMTVAdd) built from them for batched
// evaluation. Like the GEMM family, the gather dot dispatches through an
// impl variable that the AVX2+FMA driver (sparse_fma_amd64.go) overrides at
// init behind the `amd64 && !noasm` gate; the portable kernel doubles as the
// golden reference.
//
// Indices are int32 (the sparse datasets' native width) and must lie in
// [0, len(x)): the portable path is bounds-checked by the runtime, the
// assembly gather is not, so callers own index validity — in this tree every
// index set flows through sparse.Dataset.Validate before reaching a kernel.

import "fmt"

// CSR is a compressed-sparse-row matrix: row i's nonzeros are
// Idx[RowPtr[i]:RowPtr[i+1]] (column indices, strictly increasing within a
// row) with values Val[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1, monotone, RowPtr[Rows] == len(Idx)
	Idx        []int32 // column indices, each in [0, Cols)
	Val        []float64
}

// Row returns row i's column indices and values.
func (m CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Idx[lo:hi], m.Val[lo:hi]
}

// NNZ returns the number of stored nonzeros.
func (m CSR) NNZ() int { return len(m.Idx) }

func checkCSR(op string, m CSR) {
	if len(m.RowPtr) != m.Rows+1 || len(m.Idx) != len(m.Val) ||
		int(m.RowPtr[m.Rows]) != len(m.Idx) {
		panic(fmt.Sprintf("tensor: %s malformed CSR (%dx%d, rowptr %d, nnz %d/%d)",
			op, m.Rows, m.Cols, len(m.RowPtr), len(m.Idx), len(m.Val)))
	}
}

// spDotImpl is the gather-dot kernel; overridden by the AVX2 gather driver
// on capable amd64 hosts.
var spDotImpl = spDotGo

// SpDot returns Σ_k val[k]·x[idx[k]] — the dot product of a sparse row with
// a dense vector.
func SpDot(idx []int32, val []float64, x []float64) float64 {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("tensor: SpDot length mismatch (%d idx, %d val)", len(idx), len(val)))
	}
	if len(idx) == 0 {
		return 0
	}
	return spDotImpl(idx, val, x)
}

// spDotGo is the portable gather dot: 4-way unrolled with hoisted bounds
// checks, matching the Dot idiom.
func spDotGo(idx []int32, val []float64, x []float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(idx) &^ 3
	val = val[:len(idx)]
	for k := 0; k < n4; k += 4 {
		s0 += val[k] * x[idx[k]]
		s1 += val[k+1] * x[idx[k+1]]
		s2 += val[k+2] * x[idx[k+2]]
		s3 += val[k+3] * x[idx[k+3]]
	}
	for k := n4; k < len(idx); k++ {
		s0 += val[k] * x[idx[k]]
	}
	return (s0 + s1) + (s2 + s3)
}

// SpAxpy computes y[idx[k]] += alpha·val[k] — scattering a sparse row into a
// dense accumulator. AVX2 has gathers but no scatters, so this stays
// portable on every host.
func SpAxpy(alpha float64, idx []int32, val []float64, y []float64) {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("tensor: SpAxpy length mismatch (%d idx, %d val)", len(idx), len(val)))
	}
	if alpha == 0 {
		return
	}
	val = val[:len(idx)]
	for k, j := range idx {
		y[j] += alpha * val[k]
	}
}

// SpMV computes dst = a·x: one gather dot per CSR row.
func SpMV(dst []float64, a CSR, x []float64) {
	checkCSR("SpMV", a)
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: SpMV shape mismatch (%dx%d)·%d->%d", a.Rows, a.Cols, len(x), len(dst)))
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo == hi {
			dst[i] = 0
			continue
		}
		dst[i] = spDotImpl(a.Idx[lo:hi], a.Val[lo:hi], x)
	}
}

// SpMTVAdd computes dst += aᵀ·x: one scatter axpy per CSR row, the
// accumulation shape of a sparse gradient (features ← examples).
func SpMTVAdd(dst []float64, a CSR, x []float64) {
	checkCSR("SpMTVAdd", a)
	if len(dst) != a.Cols || len(x) != a.Rows {
		panic(fmt.Sprintf("tensor: SpMTVAdd shape mismatch (%dx%d)ᵀ·%d->%d", a.Rows, a.Cols, len(x), len(dst)))
	}
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		SpAxpy(x[i], a.Idx[lo:hi], a.Val[lo:hi], dst)
	}
}
