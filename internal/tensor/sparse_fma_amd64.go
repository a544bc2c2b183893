//go:build amd64 && !noasm

package tensor

// AVX2 gather driver for the sparse row dot. The microkernel widens int32
// column indices to qword lanes and pulls the dense operand through
// VGATHERQPD, so the row dot runs 8 FMA lanes per iteration instead of
// scalar loads; the Go wrapper finishes the tail. Selection shares the
// CPUID check (and the `noasm` escape hatch) with the GEMM drivers.
//
// Unlike the portable path the gather has no bounds checks — SpDot's
// documented index contract ([0, len(x))) is load-bearing here.

// fmaSparseEnabled reports whether init selected the gather driver; exposed
// for tests so the asm-vs-portable suite knows it actually ran the assembly.
var fmaSparseEnabled = false

func init() {
	if hostCPU.avx2FMA() {
		fmaSparseEnabled = true
		spDotImpl = spDotFMA
	}
}

// fmaSpDot computes Σ_{k<n} pv[k]·px[pi[k]] for n a multiple of 8.
//
//go:noescape
func fmaSpDot(pi *int32, pv *float64, px *float64, n int) float64

// spDotFMA runs the 8-wide gather kernel over the bulk of the row and
// finishes the tail in Go. Lane summation order differs from the portable
// kernel's 4-way unroll, so results can differ in the last ulps like the
// GEMM drivers.
func spDotFMA(idx []int32, val []float64, x []float64) float64 {
	n8 := len(idx) &^ 7
	var s float64
	if n8 > 0 {
		s = fmaSpDot(&idx[0], &val[0], &x[0], n8)
	}
	for k := n8; k < len(idx); k++ {
		s += val[k] * x[idx[k]]
	}
	return s
}
