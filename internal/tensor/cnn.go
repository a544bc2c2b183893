package tensor

import (
	"fmt"
	"math"
)

// The CNN's kernels besides the convolution's forward GEMM (MatMulRuns) and
// its input gradient (MatMulATB and Axpy): the 2×2 max-pool and its
// backward pass, ReLU and its backward pass, and the convolution's filter
// gradient over a whole minibatch. On hosts with AVX-512 the pool and ReLU
// run as vector kernels (cnn_amd64.s); the filter gradient has an AVX-512
// and an AVX2 kernel, chosen with the GEMM tier. The Go bodies below are
// the portable path (`-tags noasm`, non-amd64, and AVX2 hosts for the pool
// and ReLU) and the reference the tier tests hold the assembly to. Every
// kernel but the filter gradient is bit-identical to its Go body; the
// filter gradient differs only in summation order.
var (
	maxPool2x2Impl     = maxPool2x2Go
	maxPool2x2BackImpl = maxPool2x2BackGo
	reluImpl           = reluGo
	reluBackImpl       = reluBackGo
	runsGradImpl       = runsGradGo
	runsParkLenImpl    = func(m, q int) int { return 0 }
)

// checkPool panics unless planes h×w planes with rows rs apart fill in and
// out and argmax hold one entry per 2×2 window.
func checkPool(name string, nIn, nOut, nArg, planes, h, w, rs int) {
	if h < 2 || w < 2 || rs < w || planes < 0 || nIn != planes*h*rs || nOut != planes*(h/2)*(w/2) || nArg != nOut {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%d planes of %dx%d, rows %d apart; %d in, %d out, %d winners)",
			name, planes, h, w, rs, nIn, nOut, nArg))
	}
}

// MaxPool2x2 pools planes consecutive h×w planes of in, whose rows are rs ≥
// w apart (a plane is h·rs values), with non-overlapping 2×2 windows; an odd
// last row or column is not read. out receives the planes·(h/2)·(w/2)
// maxima in order and argmax each window's winner as an index into in. The
// value is the max builtin's — a window holding a NaN pools to NaN, and +0
// beats −0 — and the winner is the first maximal input of (0,0), (0,1),
// (1,0), (1,1) by strict >: the tournament that keeps the earlier input of
// each pair on a tie.
func MaxPool2x2(out []float64, argmax []int, in []float64, planes, h, w, rs int) {
	checkPool("MaxPool2x2", len(in), len(out), len(argmax), planes, h, w, rs)
	if planes > 0 {
		maxPool2x2Impl(out, argmax, in, planes, h, w, rs)
	}
}

// MaxPool2x2Backward writes dIn, shaped like MaxPool2x2's in, as the sum
// from +0 of the dOut entries routed to it by argmax: each winner receives
// +0 + its window's gradient (so −0 arrives as +0), every other element —
// the columns and rows the pool does not read included — +0. argmax must be
// MaxPool2x2's for the same geometry.
func MaxPool2x2Backward(dIn, dOut []float64, argmax []int, planes, h, w, rs int) {
	checkPool("MaxPool2x2Backward", len(dIn), len(dOut), len(argmax), planes, h, w, rs)
	if planes > 0 {
		maxPool2x2BackImpl(dIn, dOut, argmax, planes, h, w, rs)
	}
}

// maxPool2x2Go takes each window's value from the NaN-propagating max
// builtin and its winner from three compares the compiler turns into
// conditional moves: no data-dependent branch.
func maxPool2x2Go(out []float64, argmax []int, in []float64, planes, h, w, rs int) {
	outW := w / 2
	oi := 0
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < h/2; oy++ {
			i0 := pl*h*rs + oy*2*rs
			r0 := in[i0 : i0+2*outW]
			r1 := in[i0+rs : i0+rs+2*outW]
			o := out[oi : oi+outW]
			a := argmax[oi : oi+outW]
			for ox := range o {
				v0, v1, v2, v3 := r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1]
				m01, m23 := max(v0, v1), max(v2, v3)
				d01 := 0
				if v1 > v0 {
					d01 = 1
				}
				d23 := rs
				if v3 > v2 {
					d23 = rs + 1
				}
				if m23 > m01 {
					d01 = d23
				}
				o[ox] = max(m01, m23)
				a[ox] = i0 + 2*ox + d01
			}
			oi += outW
		}
	}
}

// maxPool2x2BackGo zeroes dIn and adds each gradient into its winner.
func maxPool2x2BackGo(dIn, dOut []float64, argmax []int, _, _, _, _ int) {
	clear(dIn)
	for oi, ii := range argmax {
		dIn[ii] += dOut[oi]
	}
}

// ReLU writes out[i] = max(0, in[i]) as a bit mask: a value with its sign
// bit set — a negative number, −0, a NaN with the sign set — becomes +0,
// every other value passes unchanged.
func ReLU(out, in []float64) {
	if len(out) != len(in) {
		panic("tensor: ReLU length mismatch")
	}
	reluImpl(out, in)
}

// ReLUBackward writes dIn[i] = dOut[i] where in[i] > 0 as an integer — the
// sign bit clear and some other bit set, so +NaN passes — and +0 elsewhere.
func ReLUBackward(dIn, in, dOut []float64) {
	if len(dIn) != len(in) || len(dOut) != len(in) {
		panic("tensor: ReLUBackward length mismatch")
	}
	reluBackImpl(dIn, in, dOut)
}

// reluGo and reluBackGo are branchless: activation signs are close to
// random, so a compare-and-branch per element pays a misprediction tax on
// half the data. The sign-extended mask keeps exactly the positive values.
func reluGo(out, in []float64) {
	out = out[:len(in)]
	for i, v := range in {
		b := math.Float64bits(v)
		out[i] = math.Float64frombits(b &^ uint64(int64(b)>>63))
	}
}

func reluBackGo(dIn, in, dOut []float64) {
	dOut = dOut[:len(in)]
	dIn = dIn[:len(in)]
	for i, v := range in {
		b := math.Float64bits(v)
		// pass ⟺ v > 0: sign bit clear AND nonzero.
		pass := ^uint64(int64(b)>>63) & uint64(int64(b|(^b+1))>>63)
		dIn[i] = math.Float64frombits(math.Float64bits(dOut[i]) & pass)
	}
}

// RunsParkLen is the length of the scratch MatMulABTRunsSum needs for a dst
// of m rows and q runs on this host's kernels (0 on the portable path).
func RunsParkLen(m, q int) int { return runsParkLenImpl(m, q) }

// MatMulABTRunsSum is the convolution's filter gradient over a minibatch:
//
//	dst[i][q] = Σ_b Σ_{j<n} a_b[i·lda + j] · x_b[off[q] + j]
//
// over the rows b of a and x, where a_b is row b of a viewed as dst.Rows
// rows lda = a.Cols/dst.Rows apart (one image's dOut, a plane per filter)
// and x_b is row b of x (the image); dst's i-th row and q-th column are
// filter i and lowering row q; dst is overwritten. park is scratch of at
// least RunsParkLen(dst.Rows, len(off)) values: the vector kernels carry
// each element's unfolded lane partials in it from one image to the next
// and fold them once at the end, so only the order of the summation differs
// from one dot product per element and image.
func MatMulABTRunsSum(dst, a Mat, n int, x Mat, off []int, park []float64) {
	m := dst.Rows
	if m == 0 || a.Rows != x.Rows || dst.Cols != len(off) || a.Cols%m != 0 || n > a.Cols/m ||
		short(dst, a, x) || !runsFit(n, x.Cols, off) || len(park) < RunsParkLen(m, len(off)) {
		panic(fmt.Sprintf("tensor: MatMulABTRunsSum shape mismatch (%d×(%dx%d))*(%d runs of %d)T->(%dx%d)",
			a.Rows, m, a.Cols/max(m, 1), len(off), n, dst.Rows, dst.Cols))
	}
	clear(dst.Data[:m*dst.Cols])
	if n == 0 || a.Rows == 0 || len(off) == 0 {
		return
	}
	runsGradImpl(dst.Data, dst.Cols, m, a.Data, a.Cols/m, a.Cols, n, x.Data, x.Cols, off, a.Rows, park)
}

// runsGradGo adds one Dot per element and image to dst.
func runsGradGo(dst []float64, ldd, m int, a []float64, lda, sa, n int, x []float64, sx int, off []int, images int, _ []float64) {
	for b := 0; b < images; b++ {
		img := x[b*sx : (b+1)*sx]
		for i := 0; i < m; i++ {
			ai := a[b*sa+i*lda : b*sa+i*lda+n]
			d := dst[i*ldd : i*ldd+len(off)]
			for q, o := range off {
				d[q] += Dot(ai, img[o:o+n])
			}
		}
	}
}
