// Package tensor implements the dense linear-algebra kernels the DL
// substrate needs: vector ops, row-major matrices, GEMM variants (the
// convolution's among them: products over runs of a slice read in place),
// and the explicit im2col transform those runs replace.
//
// It fills the role Eigen plays in the paper's C++ framework. Kernels are
// plain loops with blocking where it pays off; they allocate nothing so that
// per-iteration wall-clock (the paper's computational-efficiency metric) is
// dominated by arithmetic, not GC.
package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix view over a flat float64 slice. The Data
// slice is owned by the caller: layers bind Mats directly into the flattened
// parameter vector, which is what lets the SGD algorithms treat the entire
// model as a single θ array (the ParameterVector abstraction).
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFrom wraps data as a Rows×Cols matrix without copying. It panics if the
// slice length does not match.
func MatFrom(rows, cols int, data []float64) Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatFrom %dx%d needs %d elements, got %d",
			rows, cols, rows*cols, len(data)))
	}
	return Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice view (no copy).
func (m Mat) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero sets every element to 0.
func (m Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	b = b[:len(a)] // hoist the bounds check out of the loops below
	var s float64
	// 4-way unrolled; the compiler keeps the accumulators in registers.
	i := 0
	var s0, s1, s2, s3 float64
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s + s0 + s1 + s2 + s3
}

// Axpy computes y += alpha * x element-wise: AxpyTo with dst = src = y. It
// panics on length mismatch.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	axpyToImpl(y, y, alpha, x)
}

// AxpyTo computes dst = src + alpha * x element-wise. dst may be src itself
// (the in-place update) or disjoint from it; partial overlap is not
// supported. It panics on length mismatch. This is the one AXPY kernel in
// the tree — Axpy, paramvec.Vector's updates and the dense LAU-SPC publish
// all run through it, so every algorithm applies a step with the same
// arithmetic. On amd64 hosts with AVX2+FMA it is a three-pointer FMA loop
// (gemm_fma_amd64.s; zmm or ymm wide, chosen with the GEMM tier) that rounds
// each element once, the masked tail included; axpyToGo is the portable
// fallback and the reference, which rounds the multiply and the add
// separately unless the compiler fuses them — results can differ in the last
// ulp across hosts, like the GEMM drivers.
func AxpyTo(dst, src []float64, alpha float64, x []float64) {
	if len(src) != len(dst) || len(x) != len(dst) {
		panic("tensor: AxpyTo length mismatch")
	}
	axpyToImpl(dst, src, alpha, x)
}

var axpyToImpl = axpyToGo

func axpyToGo(dst, src []float64, alpha float64, x []float64) {
	src, x = src[:len(dst)], x[:len(dst)] // hoist the bounds checks out of the loops below
	// 4-way unrolled like Dot: the stitched small-layer path runs on these
	// two kernels, so they carry the same register-accumulator treatment as
	// the blocked GEMMs.
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = src[i] + alpha*x[i]
		dst[i+1] = src[i+1] + alpha*x[i+1]
		dst[i+2] = src[i+2] + alpha*x[i+2]
		dst[i+3] = src[i+3] + alpha*x[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i] + alpha*x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst; the slices must have equal length.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	copy(dst, src)
}

// Fill sets every element of x to v; +0 is a memclr (a pool backward that
// routes, rather than writing every element, zeroes the whole input first).
func Fill(x []float64, v float64) {
	if math.Float64bits(v) == 0 {
		clear(x)
		return
	}
	for i := range x {
		x[i] = v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value of x (0 for empty x).
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// HasNaNOrInf reports whether x contains a NaN or ±Inf. The SGD runner uses
// it for the paper's "Crash" detection (numerical instability) on every
// monitor tick, so it is one multiply-add per element and no branch: v·0 is
// ±0 for finite v and NaN for NaN and ±Inf, and a NaN poisons the sum.
func HasNaNOrInf(x []float64) bool {
	var acc float64
	for _, v := range x {
		acc += v * 0
	}
	return acc != 0
}

// Im2Col lowers a (channels, h, w) image stored channel-major in src into the
// column matrix dst so that a valid, stride-1 convolution with k×k kernels
// becomes a GEMM. dst must be (channels*k*k) × (outH*outW) where
// outH = h-k+1, outW = w-k+1. Column c of dst holds the receptive field of
// output pixel c, ordered channel, then kernel row, then kernel col.
// The loop body lives in Im2ColInto (gemm.go), the batch-stacking variant.
func Im2Col(dst Mat, src []float64, channels, h, w, k int) {
	outH, outW := h-k+1, w-k+1
	if outH > 0 && outW > 0 && dst.Cols != outH*outW {
		panic("tensor: Im2Col dst shape mismatch")
	}
	Im2ColInto(dst, 0, src, channels, h, w, k)
}

// ArgMax returns the index of the largest element of x; ties resolve to the
// lowest index. It panics on empty input.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bestV := 0, x[0]
	for i, v := range x[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
