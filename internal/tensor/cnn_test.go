package tensor

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"leashedsgd/internal/rng"
)

// The CNN kernels' checks, shared by every build: the tests below run them
// on whatever init selected (the portable Go under -tags noasm), and
// TestCNNKernelTier (cnn_amd64_test.go) on every tier the host has.

type (
	poolFn     = func(out []float64, argmax []int, in []float64, planes, h, w, rs int)
	poolBackFn = func(dIn, dOut []float64, argmax []int, planes, h, w, rs int)
	reluFn     = func(out, in []float64)
	reluBackFn = func(dIn, in, dOut []float64)
	runsGradFn = func(dst []float64, ldd, m int, a []float64, lda, sa, n int, x []float64, sx int, off []int, images int, park []float64)
)

// specials are the values a kernel must treat exactly as the Go body does:
// ties at both signs of zero and at ±1, ±Inf, and NaNs of both signs and
// two payloads.
var specials = []float64{
	-1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1), math.Inf(-1),
	math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000001),
}

// specialVec draws n values, each a special with probability 1/2 and
// otherwise normal.
func specialVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if r.Intn(2) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		} else {
			v[i] = r.NormFloat64()
		}
	}
	return v
}

// guarded returns an n-long slice inside a NaN-filled buffer and a check
// that every guard element is still the NaN it was.
func guarded(n int) ([]float64, func(t *testing.T, name string)) {
	const g = 20
	buf := make([]float64, n+2*g)
	Fill(buf, math.Float64frombits(0x7ff80000000dead0))
	return buf[g : g+n : g+n], func(t *testing.T, name string) {
		t.Helper()
		for i, v := range buf {
			if (i < g || i >= g+n) && math.Float64bits(v) != 0x7ff80000000dead0 {
				t.Fatalf("%s: guard element %d overwritten with %v", name, i-g, v)
			}
		}
	}
}

// poolShapes are (planes, h, w, rs): every output width up to 17 (two
// 8-lane chunks and one more) at odd and even heights, row strides from w to
// w+17, and the paper CNN's two wide pools.
func poolShapes() [][4]int {
	var s [][4]int
	for w := 2; w <= 35; w++ {
		for _, h := range []int{2, 3, 5} {
			for _, pad := range []int{0, 1, 3, 9, 17} {
				s = append(s, [4]int{1 + (w+h+pad)%3, h, w, w + pad})
			}
		}
	}
	return append(s, [4]int{32 * 4, 26, 26, 28}, [4]int{32 * 8, 11, 11, 13}, [4]int{3, 11, 11, 11})
}

// checkPoolKernels holds fwd and back to the Go bodies bit for bit: values,
// winners, and a backward that writes every element of dIn (filled with
// garbage first) and nothing around out, argmax or dIn.
func checkPoolKernels(t *testing.T, fwd poolFn, back poolBackFn) {
	t.Helper()
	r := rng.New(41)
	for _, sh := range poolShapes() {
		planes, h, w, rs := sh[0], sh[1], sh[2], sh[3]
		name := fmt.Sprintf("%d planes %dx%d rows %d apart", planes, h, w, rs)
		nIn, nOut := planes*h*rs, planes*(h/2)*(w/2)
		in := specialVec(r, nIn)
		out, outOK := guarded(nOut)
		argBuf := make([]int, nOut+2)
		argmax := argBuf[1 : nOut+1 : nOut+1]
		argBuf[0], argBuf[nOut+1] = -7, -7
		wantOut, wantArg := make([]float64, nOut), make([]int, nOut)
		fwd(out, argmax, in, planes, h, w, rs)
		maxPool2x2Go(wantOut, wantArg, in, planes, h, w, rs)
		outOK(t, name)
		if argBuf[0] != -7 || argBuf[nOut+1] != -7 {
			t.Fatalf("%s: winner guard overwritten", name)
		}
		for i := range wantOut {
			if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) || argmax[i] != wantArg[i] {
				t.Fatalf("%s: output %d = %v (%#x) from %d, Go %v (%#x) from %d", name, i,
					out[i], math.Float64bits(out[i]), argmax[i], wantOut[i], math.Float64bits(wantOut[i]), wantArg[i])
			}
		}
		dOut := specialVec(r, nOut)
		dIn, dInOK := guarded(nIn)
		Fill(dIn, -3)
		want := make([]float64, nIn)
		back(dIn, dOut, argmax, planes, h, w, rs)
		maxPool2x2BackGo(want, dOut, wantArg, planes, h, w, rs)
		dInOK(t, name)
		for i := range want {
			if math.Float64bits(dIn[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: dIn[%d] = %v, Go %v", name, i, dIn[i], want[i])
			}
		}
	}
}

// checkReLU holds fwd and back to the Go bodies bit for bit on every length
// up to 4 vectors of 8 and 2 more, and on a long one, with nothing written
// around the outputs.
func checkReLU(t *testing.T, fwd reluFn, back reluBackFn) {
	t.Helper()
	r := rng.New(42)
	for n := 0; n <= 66; n++ {
		for _, l := range []int{n, n + 1000} {
			in, dOut := specialVec(r, l), specialVec(r, l)
			out, outOK := guarded(l)
			dIn, dInOK := guarded(l)
			want, wantD := make([]float64, l), make([]float64, l)
			fwd(out, in)
			back(dIn, in, dOut)
			reluGo(want, in)
			reluBackGo(wantD, in, dOut)
			outOK(t, fmt.Sprintf("ReLU len %d", l))
			dInOK(t, fmt.Sprintf("ReLUBackward len %d", l))
			if i := firstDiff(out, want); i >= 0 {
				t.Fatalf("ReLU len %d: [%d] = %v, Go %v", l, i, out[i], want[i])
			}
			if i := firstDiff(dIn, wantD); i >= 0 {
				t.Fatalf("ReLUBackward len %d: [%d] = %v, Go %v", l, i, dIn[i], wantD[i])
			}
		}
	}
}

func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// cnnRunsCase is one filter-gradient problem: m filters, runs off of length
// n in images of sx values.
type cnnRunsCase struct {
	name    string
	m, n    int
	sx      int
	off     []int
	special bool
}

// cnnRunsCases: the paper CNN's two convolutions and more geometries, then
// every run length up to 2·8+1 (each tail of both widths) against every
// filter count up to 9 and run count up to 7 (every edge tile), with
// sorted random offsets, some over special values.
func cnnRunsCases(r *rng.Rand) []cnnRunsCase {
	var cs []cnnRunsCase
	for _, g := range [][5]int{{1, 28, 28, 4, 3}, {4, 13, 13, 8, 3}, {3, 7, 5, 9, 2}, {2, 6, 9, 17, 1}, {2, 4, 4, 3, 4}} {
		off, n := convRuns(g[0], g[1], g[2], g[4])
		cs = append(cs, cnnRunsCase{fmt.Sprintf("conv %dx%dx%d k=%d f=%d", g[0], g[1], g[2], g[4], g[3]), g[3], n, g[0] * g[1] * g[2], off, false})
	}
	for n := 1; n <= 17; n++ {
		for m := 1; m <= 9; m += 2 + n%2 {
			q := 1 + (n+m)%7
			sx := n + 3*q
			off := make([]int, q)
			for i := range off {
				off[i] = r.Intn(sx - n + 1)
			}
			sort.Ints(off)
			cs = append(cs, cnnRunsCase{fmt.Sprintf("m=%d n=%d q=%d", m, n, q), m, n, sx, off, n%3 == 0})
		}
	}
	return cs
}

// checkRunsGrad holds a filter-gradient kernel over 1 and 3 images to a
// plain dot per element and image: within 1e-13 of the largest entry where
// the reference is finite, the same NaN-ness and infinities where it is not
// (planted specials). The sum is added to a dst that already holds values.
func checkRunsGrad(t *testing.T, grad runsGradFn, parkLen func(m, q int) int) {
	t.Helper()
	r := rng.New(43)
	for _, c := range cnnRunsCases(r) {
		for _, images := range []int{1, 3} {
			name := fmt.Sprintf("%s images=%d", c.name, images)
			q, lda := len(c.off), c.n+2
			a := randVec(r, images*c.m*lda, false)
			x := randVec(r, images*c.sx, c.special)
			seed := randVec(r, c.m*q, false)
			got, want := append([]float64(nil), seed...), append([]float64(nil), seed...)
			grad(got, q, c.m, a, lda, c.m*lda, c.n, x, c.sx, c.off, images, make([]float64, parkLen(c.m, q)))
			runsGradGo(want, q, c.m, a, lda, c.m*lda, c.n, x, c.sx, c.off, images, nil)
			scale := 0.0
			for _, v := range want {
				if !math.IsInf(v, 0) && !math.IsNaN(v) {
					scale = math.Max(scale, math.Abs(v))
				}
			}
			for i, v := range want {
				g := got[i]
				switch {
				case math.IsNaN(v) || math.IsInf(v, 0):
					if math.IsNaN(g) != math.IsNaN(v) || (math.IsInf(v, 0) && g != v) {
						t.Fatalf("%s: dst[%d] = %v, dots %v", name, i, g, v)
					}
				case !(math.Abs(g-v) <= 1e-13*scale):
					t.Fatalf("%s: dst[%d] = %v, dots %v (scale %v)", name, i, g, v, scale)
				}
			}
		}
	}
}

// randVec is n normal values; with specials, one in eight is a special.
func randVec(r *rng.Rand, n int, withSpecials bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
		if withSpecials && r.Intn(8) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// TestMaxPool2x2Kernels, TestReLUKernels and TestRunsSumKernels run the
// checks above on the kernels this build selected, through the exported
// entry points. MatMulABTRunsSum stores its sum, so the adapter adds it to
// the seeded dst the checks expect it to accumulate into.
func TestMaxPool2x2Kernels(t *testing.T) {
	checkPoolKernels(t, MaxPool2x2, MaxPool2x2Backward)
}

func TestReLUKernels(t *testing.T) {
	checkReLU(t, ReLU, ReLUBackward)
}

func TestRunsSumKernels(t *testing.T) {
	checkRunsGrad(t, func(dst []float64, ldd, m int, a []float64, lda, sa, n int, x []float64, sx int, off []int, images int, park []float64) {
		sum := NewMat(m, ldd)
		MatMulABTRunsSum(sum, MatFrom(images, sa, a), n, MatFrom(images, sx, x), off, park)
		for i, v := range sum.Data {
			dst[i] += v
		}
	}, RunsParkLen)
}

// TestMatMulABTRunsSumStores: the batch's sum replaces whatever dst held —
// a NaN-filled dst and a zeroed one come back with the same bits, and those
// are runsGradGo's dots into zeros to 1e-13 of the largest.
func TestMatMulABTRunsSumStores(t *testing.T) {
	r := rng.New(45)
	off, n := convRuns(4, 13, 13, 3)
	a, x := MatFrom(2, 8*143, randVec(r, 2*8*143, false)), MatFrom(2, 4*169, randVec(r, 2*4*169, false))
	park := make([]float64, RunsParkLen(8, len(off)))
	got, want := NewMat(8, len(off)), NewMat(8, len(off))
	Fill(got.Data, math.NaN())
	MatMulABTRunsSum(got, a, n, x, off, park)
	MatMulABTRunsSum(want, a, n, x, off, park)
	if i := firstDiff(got.Data, want.Data); i >= 0 {
		t.Fatalf("over NaN [%d] = %v, over zeros %v", i, got.Data[i], want.Data[i])
	}
	dots := make([]float64, len(got.Data))
	runsGradGo(dots, len(off), 8, a.Data, 143, 8*143, n, x.Data, 4*169, off, 2, nil)
	scale := MaxAbs(dots)
	for i, v := range dots {
		if !(math.Abs(got.Data[i]-v) <= 1e-13*scale) {
			t.Fatalf("[%d] = %v, dots %v", i, got.Data[i], v)
		}
	}
}
