package tensor

import "fmt"

// Blocked, register-tiled GEMM kernels. These are the batched-minibatch
// compute path: one GEMM per layer per batch instead of per-example GEMV
// loops, so the per-iteration gradient wall-clock (the paper's Tc) is bound
// by arithmetic rather than by re-streaming the weight matrix once per
// example.
//
// All three orientations the forward/backward chains need are provided —
// A·B, A·Bᵀ and Aᵀ·B — each as a 2×4 register tile over the destination
// with the reduction dimension blocked at gemmBlockK so the operand panels
// a tile re-reads stay cache-resident. The tile size is chosen for the Go
// compiler's scalar code generation: 8 accumulators plus 6 operand values
// stay inside amd64's 16 FP registers (a 4×4 tile's 16 accumulators spill
// every inner iteration), and 8 independent accumulator chains are enough
// to hide the multiply-add latency. Operand rows are pre-sliced to the
// reduction block and iterated with range so the bounds checks hoist out of
// the inner loops. Each operand load is amortized over at least 2
// multiply-adds, where the GEMV formulation got exactly 1. None of the
// kernels allocates, and none branches on zero values (the former aik == 0
// skip is gone — it cost a branch per inner-loop element to optimize a case
// that never occurs in dense training).

const (
	// gemmTileM/gemmTileN are the register-tile edges: each microkernel
	// invocation owns a 2×4 block of dst.
	gemmTileM = 2
	gemmTileN = 4
	// gemmBlockK bounds the reduction-dimension block so the operand panels
	// one destination tile streams ((2+4) × gemmBlockK float64s = 24 KiB at
	// 512) stay L1/L2-resident across tile iterations.
	gemmBlockK = 512
)

// On amd64 hosts with AVX2+FMA the three orientations run through vector
// microkernels selected once at init from CPUID/XCR0 (gemm_fma_amd64.go) —
// scalar code on this port caps at ~1 multiply-add per cycle, the FMA tile
// kernels sustain 8 to 16. The pure-Go kernels below remain the portable
// path (`-tags noasm`, non-amd64) and the reference the tests pin the
// assembly to.
var (
	matMulAddImpl  = matMulAddGo
	matMulABTImpl  = matMulABTGo
	matMulATBImpl  = matMulATBGo
	matMulRunsImpl = matMulRunsGo
)

// MatMul computes dst = a * b. Shapes: a is m×k, b is k×n, dst is m×n.
// dst must not alias a or b.
func MatMul(dst, a, b Mat) {
	checkMatMul(dst, a, b)
	if !emptyReduction(dst, a.Cols) {
		matMulAddImpl(dst, a, b, false)
	}
}

// MatMulAdd computes dst += a * b with the same shape contract as MatMul.
// The accumulate form is what the segment-split backward path needs: dIn
// collects one partial product per contiguous weight run.
func MatMulAdd(dst, a, b Mat) {
	checkMatMul(dst, a, b)
	matMulAddImpl(dst, a, b, true)
}

func checkMatMul(dst, a, b Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols || short(dst, a, b) {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// emptyReduction handles the store forms' k = 0 case — a product with no
// terms is the zero matrix — so every kernel may assume k ≥ 1 when it stores.
func emptyReduction(dst Mat, k int) bool {
	if k == 0 {
		dst.Zero()
	}
	return k == 0
}

// short reports a Mat whose backing slice is smaller than its shape (a
// hand-built literal; MatFrom and NewMat cannot produce one). The assembly
// kernels address by shape alone, so the shape checks reject it up front.
func short(dst, a, b Mat) bool {
	return len(dst.Data) < dst.Rows*dst.Cols || len(a.Data) < a.Rows*a.Cols || len(b.Data) < b.Rows*b.Cols
}

// matMulAddGo is the portable dst =(+)= a·b kernel body. For each reduction
// block, 2×4 tiles of dst accumulate in registers while streaming two
// pre-sliced rows of a and a four-column panel of b. The accumulators start
// from zero in the first block of an overwrite call — so MatMul needs no
// dst.Zero pass — and from dst otherwise: like the FMA tiles, every element
// is one chain of adds in reduction order, however the reduction is split
// into blocks or into MatMulAdd calls (a Dense input gradient split at
// segment boundaries is bit-identical to the unsplit one).
func matMulAddGo(dst, a, b Mat, accumulate bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := k0 + gemmBlockK
		if k1 > k {
			k1 = k
		}
		first := k0 == 0 && !accumulate
		i := 0
		for ; i+gemmTileM <= m; i += gemmTileM {
			a0 := a.Row(i)[k0:k1]
			a1 := a.Row(i + 1)[k0:k1]
			a1 = a1[:len(a0)]
			d0, d1 := dst.Row(i), dst.Row(i+1)
			j := 0
			for ; j+gemmTileN <= n; j += gemmTileN {
				var c00, c01, c02, c03 float64
				var c10, c11, c12, c13 float64
				if !first {
					c00, c01, c02, c03 = d0[j], d0[j+1], d0[j+2], d0[j+3]
					c10, c11, c12, c13 = d1[j], d1[j+1], d1[j+2], d1[j+3]
				}
				off := k0*n + j
				for p, av0 := range a0 {
					br := b.Data[off : off+gemmTileN : off+gemmTileN]
					off += n
					av1 := a1[p]
					b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
					c00 += av0 * b0
					c01 += av0 * b1
					c02 += av0 * b2
					c03 += av0 * b3
					c10 += av1 * b0
					c11 += av1 * b1
					c12 += av1 * b2
					c13 += av1 * b3
				}
				d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
				d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
			}
			for ; j < n; j++ {
				var c0, c1 float64
				if !first {
					c0, c1 = d0[j], d1[j]
				}
				off := k0*n + j
				for p, av0 := range a0 {
					bv := b.Data[off]
					off += n
					c0 += av0 * bv
					c1 += a1[p] * bv
				}
				d0[j], d1[j] = c0, c1
			}
		}
		if i < m {
			// Odd last row: one row of a against the same b panel.
			a0 := a.Row(i)[k0:k1]
			d0 := dst.Row(i)
			j := 0
			for ; j+gemmTileN <= n; j += gemmTileN {
				var c0, c1, c2, c3 float64
				if !first {
					c0, c1, c2, c3 = d0[j], d0[j+1], d0[j+2], d0[j+3]
				}
				off := k0*n + j
				for _, av := range a0 {
					br := b.Data[off : off+gemmTileN : off+gemmTileN]
					off += n
					c0 += av * br[0]
					c1 += av * br[1]
					c2 += av * br[2]
					c3 += av * br[3]
				}
				d0[j], d0[j+1], d0[j+2], d0[j+3] = c0, c1, c2, c3
			}
			for ; j < n; j++ {
				var c float64
				if !first {
					c = d0[j]
				}
				off := k0*n + j
				for _, av := range a0 {
					c += av * b.Data[off]
					off += n
				}
				d0[j] = c
			}
		}
	}
}

// MatMulABT computes dst = a * bᵀ. Shapes: a is m×k, b is n×k, dst is m×n.
// Every dst element is the inner product of an a row with a b row, so both
// operand streams are contiguous — the orientation for operands that are
// both long in k: single-row forward passes (the b=1 Dense forward),
// where the weight matrix streams through once. The convolution's filter
// gradient is the same orientation over input runs (MatMulABTRunsSum).
func MatMulABT(dst, a, b Mat) {
	checkMatMulABT(dst, a, b)
	if !emptyReduction(dst, a.Cols) {
		matMulABTImpl(dst, a, b)
	}
}

func checkMatMulABT(dst, a, b Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows || short(dst, a, b) {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)*(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulABTGo is the portable dst = a·bᵀ kernel body.
func matMulABTGo(dst, a, b Mat) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := k0 + gemmBlockK
		if k1 > k {
			k1 = k
		}
		first := k0 == 0
		i := 0
		for ; i+gemmTileM <= m; i += gemmTileM {
			a0 := a.Row(i)[k0:k1]
			a1 := a.Row(i + 1)[k0:k1]
			a1 = a1[:len(a0)]
			d0, d1 := dst.Row(i), dst.Row(i+1)
			j := 0
			for ; j+gemmTileN <= n; j += gemmTileN {
				b0 := b.Row(j)[k0:k1]
				b0 = b0[:len(a0)]
				b1 := b.Row(j + 1)[k0:k1]
				b1 = b1[:len(a0)]
				b2 := b.Row(j + 2)[k0:k1]
				b2 = b2[:len(a0)]
				b3 := b.Row(j + 3)[k0:k1]
				b3 = b3[:len(a0)]
				var c00, c01, c02, c03 float64
				var c10, c11, c12, c13 float64
				for p, av0 := range a0 {
					bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
					av1 := a1[p]
					c00 += av0 * bv0
					c01 += av0 * bv1
					c02 += av0 * bv2
					c03 += av0 * bv3
					c10 += av1 * bv0
					c11 += av1 * bv1
					c12 += av1 * bv2
					c13 += av1 * bv3
				}
				if first {
					d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
					d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
				} else {
					d0[j] += c00
					d0[j+1] += c01
					d0[j+2] += c02
					d0[j+3] += c03
					d1[j] += c10
					d1[j+1] += c11
					d1[j+2] += c12
					d1[j+3] += c13
				}
			}
			for ; j < n; j++ {
				bRow := b.Row(j)[k0:k1]
				bRow = bRow[:len(a0)]
				var c0, c1 float64
				for p, av0 := range a0 {
					bv := bRow[p]
					c0 += av0 * bv
					c1 += a1[p] * bv
				}
				if first {
					d0[j], d1[j] = c0, c1
				} else {
					d0[j] += c0
					d1[j] += c1
				}
			}
		}
		if i < m {
			a0 := a.Row(i)[k0:k1]
			d0 := dst.Row(i)
			for j := 0; j < n; j++ {
				bRow := b.Row(j)[k0:k1]
				bRow = bRow[:len(a0)]
				var s0, s1, s2, s3 float64
				p := 0
				for ; p+4 <= len(a0); p += 4 {
					s0 += a0[p] * bRow[p]
					s1 += a0[p+1] * bRow[p+1]
					s2 += a0[p+2] * bRow[p+2]
					s3 += a0[p+3] * bRow[p+3]
				}
				c := s0 + s1 + s2 + s3
				for ; p < len(a0); p++ {
					c += a0[p] * bRow[p]
				}
				if first {
					d0[j] = c
				} else {
					d0[j] += c
				}
			}
		}
	}
}

// MatMulATB computes dst = aᵀ * b. Shapes: a is p×m, b is p×n, dst is m×n.
// This is the orientation of the batched weight gradient (dW = dOutᵀ · in):
// the reduction runs over the batch dimension, b's rows are contiguous, and
// the store form lets each gradient block be written on first touch.
func MatMulATB(dst, a, b Mat) {
	checkMatMulATB(dst, a, b)
	if !emptyReduction(dst, a.Rows) {
		matMulATBImpl(dst, a, b)
	}
}

func checkMatMulATB(dst, a, b Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols || short(dst, a, b) {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)T*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulATBGo is the portable dst = aᵀ·b kernel body.
func matMulATBGo(dst, a, b Mat) {
	p, m, n := a.Rows, a.Cols, b.Cols
	for p0 := 0; p0 < p; p0 += gemmBlockK {
		p1 := p0 + gemmBlockK
		if p1 > p {
			p1 = p
		}
		first := p0 == 0
		i := 0
		for ; i+gemmTileM <= m; i += gemmTileM {
			d0, d1 := dst.Row(i), dst.Row(i+1)
			j := 0
			for ; j+gemmTileN <= n; j += gemmTileN {
				var c00, c01, c02, c03 float64
				var c10, c11, c12, c13 float64
				aOff, bOff := p0*m+i, p0*n+j
				for q := p0; q < p1; q++ {
					ar := a.Data[aOff : aOff+gemmTileM : aOff+gemmTileM]
					br := b.Data[bOff : bOff+gemmTileN : bOff+gemmTileN]
					aOff += m
					bOff += n
					b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
					av0, av1 := ar[0], ar[1]
					c00 += av0 * b0
					c01 += av0 * b1
					c02 += av0 * b2
					c03 += av0 * b3
					c10 += av1 * b0
					c11 += av1 * b1
					c12 += av1 * b2
					c13 += av1 * b3
				}
				if first {
					d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
					d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
				} else {
					d0[j] += c00
					d0[j+1] += c01
					d0[j+2] += c02
					d0[j+3] += c03
					d1[j] += c10
					d1[j+1] += c11
					d1[j+2] += c12
					d1[j+3] += c13
				}
			}
			for ; j < n; j++ {
				var c0, c1 float64
				aOff, bOff := p0*m+i, p0*n+j
				for q := p0; q < p1; q++ {
					bv := b.Data[bOff]
					ar := a.Data[aOff : aOff+gemmTileM : aOff+gemmTileM]
					aOff += m
					bOff += n
					c0 += ar[0] * bv
					c1 += ar[1] * bv
				}
				if first {
					d0[j], d1[j] = c0, c1
				} else {
					d0[j] += c0
					d1[j] += c1
				}
			}
		}
		if i < m {
			d0 := dst.Row(i)
			j := 0
			for ; j+gemmTileN <= n; j += gemmTileN {
				var c0, c1, c2, c3 float64
				aOff, bOff := p0*m+i, p0*n+j
				for q := p0; q < p1; q++ {
					br := b.Data[bOff : bOff+gemmTileN : bOff+gemmTileN]
					av := a.Data[aOff]
					aOff += m
					bOff += n
					c0 += av * br[0]
					c1 += av * br[1]
					c2 += av * br[2]
					c3 += av * br[3]
				}
				if first {
					d0[j], d0[j+1], d0[j+2], d0[j+3] = c0, c1, c2, c3
				} else {
					d0[j] += c0
					d0[j+1] += c1
					d0[j+2] += c2
					d0[j+3] += c3
				}
			}
			for ; j < n; j++ {
				var c float64
				aOff, bOff := p0*m+i, p0*n+j
				for q := p0; q < p1; q++ {
					c += a.Data[aOff] * b.Data[bOff]
					aOff += m
					bOff += n
				}
				if first {
					d0[j] = c
				} else {
					d0[j] += c
				}
			}
		}
	}
}

// MatMulRuns computes dst[i][j] = Σ_q a[i][q]·b[off[q]+j] for i < a.Rows
// and j < n: the product of a with the len(off)×n matrix whose row q is the
// run b[off[q] : off[q]+n], read where it lies. A valid convolution is this
// product with the filter bank as a and the input image as b — row (c, dy,
// dx) of its im2col lowering is one run of the image once the output is
// computed at the input's row width — so no lowering is materialised.
// Columns n and up of dst are left as they are. Each dst element is the
// reduction MatMul computes over the explicit lowering, term for term: the
// two are bit-identical.
func MatMulRuns(dst Mat, n int, a Mat, b []float64, off []int) {
	if dst.Rows != a.Rows || a.Cols != len(off) || n > dst.Cols || short(dst, a, Mat{}) || !runsFit(n, len(b), off) {
		panic(fmt.Sprintf("tensor: MatMulRuns shape mismatch (%dx%d)*(%d runs of %d)->(%dx%d)",
			a.Rows, a.Cols, len(off), n, dst.Rows, dst.Cols))
	}
	if n == 0 || a.Rows == 0 {
		return
	}
	if len(off) == 0 {
		for i := 0; i < dst.Rows; i++ {
			clear(dst.Row(i)[:n])
		}
		return
	}
	matMulRunsImpl(dst.Data, dst.Cols, a.Rows, n, a.Data, a.Cols, b, off)
}

// runsFit reports n ≥ 0 and every run [off[q], off[q]+n) inside a slice of
// length l: the kernels address the runs by offset alone.
func runsFit(n, l int, off []int) bool {
	if n < 0 {
		return false
	}
	for _, o := range off {
		if o < 0 || o > l-n {
			return false
		}
	}
	return true
}

// matMulRunsGo is the portable MatMulRuns body: each dst row accumulates
// its runs in reduction order, from zero — matMulAddGo's chains.
func matMulRunsGo(c []float64, ldc, m, n int, a []float64, lda int, b []float64, off []int) {
	for i := 0; i < m; i++ {
		d := c[i*ldc : i*ldc+n]
		clear(d)
		for q, av := range a[i*lda : i*lda+len(off)] {
			for j, bv := range b[off[q] : off[q]+n] {
				d[j] += av * bv
			}
		}
	}
}

// AddBiasRows adds the bias vector to every row of dst (len(bias) ==
// dst.Cols) — the fused bias kernel of the batched Dense forward pass.
func AddBiasRows(dst Mat, bias []float64) {
	if len(bias) != dst.Cols {
		panic("tensor: AddBiasRows length mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		Axpy(1, bias, dst.Row(i))
	}
}

// ColSums overwrites dst with the column sums of m (len(dst) == m.Cols,
// m.Rows ≥ 1) — the batched bias-gradient kernel (db = Σ_rows dOut).
func ColSums(dst []float64, m Mat) {
	if len(dst) != m.Cols || m.Rows == 0 {
		panic("tensor: ColSums shape mismatch")
	}
	copy(dst, m.Row(0))
	for i := 1; i < m.Rows; i++ {
		Axpy(1, m.Row(i), dst)
	}
}

// Transpose writes dst = srcᵀ (src is r×c, dst c×r; they must not alias).
// Four source rows are walked together so every destination row receives
// four adjacent elements per step — both sides stay sequential enough for
// the batch-sized activation panels this stages (≈0.5 ns per element).
func Transpose(dst, src Mat) {
	r, c := src.Rows, src.Cols
	if dst.Rows != c || dst.Cols != r {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch (%dx%d)T->(%dx%d)", r, c, dst.Rows, dst.Cols))
	}
	i := 0
	for ; i+4 <= r; i += 4 {
		s0, s1, s2, s3 := src.Row(i), src.Row(i+1), src.Row(i+2), src.Row(i+3)
		s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
		d := dst.Data[i:]
		for j, v := range s0 {
			o := d[j*r : j*r+4 : j*r+4]
			o[0], o[1], o[2], o[3] = v, s1[j], s2[j], s3[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range src.Row(i) {
			dst.Data[j*r+i] = v
		}
	}
}

// Im2ColInto lowers a (channels, h, w) image stored channel-major in src
// into columns [col0, col0+outH*outW) of the column matrix dst, so that a
// whole minibatch's lowerings stack side by side into ONE wide matrix and
// the convolution becomes a single GEMM per batch. nn's Conv2D no longer
// lowers (MatMulRuns); the stacked lowering remains as the reference its
// tests hold the implicit GEMM to. dst must have
// channels*k*k rows and at least col0+outH*outW columns; column col0+c
// holds the receptive field of output pixel c, ordered channel, then kernel
// row, then kernel col (exactly Im2Col's layout, placed at an offset).
func Im2ColInto(dst Mat, col0 int, src []float64, channels, h, w, k int) {
	outH, outW := h-k+1, w-k+1
	if outH <= 0 || outW <= 0 {
		panic("tensor: Im2Col kernel larger than input")
	}
	if dst.Rows != channels*k*k || col0 < 0 || col0+outH*outW > dst.Cols {
		panic("tensor: Im2ColInto dst shape mismatch")
	}
	if len(src) != channels*h*w {
		panic("tensor: Im2Col src length mismatch")
	}
	row := 0
	for c := 0; c < channels; c++ {
		chanBase := c * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dRow := dst.Row(row)[col0 : col0+outH*outW]
				row++
				idx := 0
				for oy := 0; oy < outH; oy++ {
					srcOff := chanBase + (oy+ky)*w + kx
					copy(dRow[idx:idx+outW], src[srcOff:srcOff+outW])
					idx += outW
				}
			}
		}
	}
}
