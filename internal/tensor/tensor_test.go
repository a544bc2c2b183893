package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"leashedsgd/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatFrom with wrong length did not panic")
		}
	}()
	MatFrom(2, 3, make([]float64, 5))
}

func TestMatAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 3 // view, not copy
	if m.At(1, 0) != 3 {
		t.Fatal("Row must be a view into the matrix")
	}
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotProperties(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(64)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		if !almostEq(Dot(a, b), Dot(b, a), 1e-9) {
			t.Fatal("Dot not symmetric")
		}
		ac := make([]float64, n)
		for i := range ac {
			ac[i] = a[i] + c[i]
		}
		if !almostEq(Dot(ac, b), Dot(a, b)+Dot(c, b), 1e-8) {
			t.Fatal("Dot not linear")
		}
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	y := []float64{1, 2}
	Axpy(0, []float64{9, 9}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("Axpy(0,...) modified y: %v", y)
	}
}

// axpyToLens straddle every loop boundary of both kernels (4-vector bulk,
// single vectors, masked tail), one paramvec publish block either side, and
// the PaperMLP dimension.
var axpyToLens = []int{0, 1, 7, 8, 9, 31, 32, 33, 16383, 16384, 16385, 134794}

// checkAxpyTo pins one AxpyTo implementation to the portable loop, to 1 ulp
// of the larger term (an FMA rounds once where the loop may round the product
// and the sum), for dst aliasing src and disjoint from it; a fused
// implementation must also equal math.FMA exactly on every element, the
// masked tail included — what makes a step's result independent of where a
// chain boundary falls. dst, src and x each sit inside a larger slice at an
// odd offset between NaN guard bands that must survive: the kernels store
// whole vectors into θ-shaped chain buffers, where an over-wide store would
// corrupt the neighbouring chain.
func checkAxpyTo(t *testing.T, impl func(dst, src []float64, alpha float64, x []float64), fused bool) {
	t.Helper()
	const guard, alpha = 11, -0.37
	r := rng.New(31)
	embed := func(n int, fill func() float64) (buf, in []float64) {
		buf = make([]float64, 2*guard+n)
		Fill(buf, math.NaN())
		in = buf[guard : guard+n : guard+n]
		for i := range in {
			in[i] = fill()
		}
		return buf, in
	}
	guardsIntact := func(name string, n int, buf []float64) {
		t.Helper()
		for p, v := range buf {
			if (p < guard || p >= guard+n) != math.IsNaN(v) {
				t.Fatalf("n=%d: %s[%d] = %v: guard band overwritten or NaN stored", n, name, p-guard, v)
			}
		}
	}
	for _, n := range axpyToLens {
		for _, alias := range []bool{false, true} {
			srcBuf, src := embed(n, r.NormFloat64)
			xBuf, x := embed(n, r.NormFloat64)
			dstBuf, dst := srcBuf, src
			if !alias {
				dstBuf, dst = embed(n, math.NaN) // every element must be stored
			}
			want, once := make([]float64, n), make([]float64, n)
			axpyToGo(want, src, alpha, x)
			for i := range once {
				once[i] = math.FMA(alpha, x[i], src[i])
			}
			impl(dst, src, alpha, x)
			for i := range want {
				big := math.Max(math.Abs(want[i]), math.Abs(alpha*x[i]))
				if math.Abs(dst[i]-want[i]) > math.Nextafter(big, math.Inf(1))-big {
					t.Fatalf("n=%d alias=%v: dst[%d] = %v, want %v", n, alias, i, dst[i], want[i])
				}
				if fused && dst[i] != once[i] {
					t.Fatalf("n=%d alias=%v: dst[%d] = %v, not the single rounding %v", n, alias, i, dst[i], once[i])
				}
			}
			guardsIntact("dst", n, dstBuf)
			guardsIntact("src", n, srcBuf)
			guardsIntact("x", n, xBuf)
		}
	}
}

// TestAxpyTo runs the dispatched kernel (the portable loop under -tags
// noasm) through the shared check and pins the length contract.
func TestAxpyTo(t *testing.T) {
	checkAxpyTo(t, AxpyTo, false)
	a2, a3 := make([]float64, 2), make([]float64, 3)
	for name, f := range map[string]func(){
		"src":  func() { AxpyTo(a3, a2, 1, a3) },
		"x":    func() { AxpyTo(a3, a3, 1, a2) },
		"dst":  func() { AxpyTo(a2, a3, 1, a3) },
		"axpy": func() { Axpy(0, a2, a3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestScaleFillCopy(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(3, x)
	if x[2] != 9 {
		t.Fatalf("Scale: %v", x)
	}
	Fill(x, -1)
	if x[0] != -1 || x[1] != -1 {
		t.Fatalf("Fill: %v", x)
	}
	dst := make([]float64, 3)
	Copy(dst, x)
	if dst[2] != -1 {
		t.Fatalf("Copy: %v", dst)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs([]float64{-7, 3, 5}); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Fatalf("MaxAbs(nil) = %v, want 0", got)
	}
}

func TestHasNaNOrInf(t *testing.T) {
	if HasNaNOrInf([]float64{1, 2, 3}) {
		t.Fatal("false positive")
	}
	if !HasNaNOrInf([]float64{1, math.NaN()}) {
		t.Fatal("missed NaN")
	}
	if !HasNaNOrInf([]float64{math.Inf(-1)}) {
		t.Fatal("missed -Inf")
	}
	// The branch-free form must not trip on anything finite (negative values
	// give −0 products, the extremes must not overflow) and must see a
	// non-finite value wherever it sits.
	finite := []float64{-1, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0}
	if HasNaNOrInf(finite) || HasNaNOrInf(nil) {
		t.Fatal("false positive on finite extremes or the empty slice")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := range finite {
			x := append([]float64(nil), finite...)
			x[pos] = bad
			if !HasNaNOrInf(x) {
				t.Fatalf("missed %v at position %d", bad, pos)
			}
		}
	}
}

func BenchmarkHasNaNOrInf(b *testing.B) {
	x := make([]float64, 134794) // PaperMLP d: one monitor tick's check
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	for i := 0; i < b.N; i++ {
		if HasNaNOrInf(x) {
			b.Fatal("false positive")
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := MatFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMat(2, 2)
	MatMul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range dst.Data {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", dst.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2))
}

// Property: (A*B)*x == A*(B*x) for random matrices.
func TestMatMulAssociatesWithMatVec(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b := NewMat(m, k), NewMat(k, n)
		x := make([]float64, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		for i := range x {
			x[i] = r.NormFloat64()
		}
		ab := NewMat(m, n)
		MatMul(ab, a, b)
		lhs := make([]float64, m)
		MatVec(lhs, ab, x)
		bx := make([]float64, k)
		MatVec(bx, b, x)
		rhs := make([]float64, m)
		MatVec(rhs, a, bx)
		for i := range lhs {
			if !almostEq(lhs[i], rhs[i], 1e-8) {
				t.Fatalf("(AB)x != A(Bx) at %d: %v vs %v", i, lhs[i], rhs[i])
			}
		}
	}
}

func TestMatVecAndTranspose(t *testing.T) {
	a := MatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1, 1}
	dst := make([]float64, 2)
	MatVec(dst, a, x)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MatVec = %v", dst)
	}
	y := []float64{1, 2}
	dt := make([]float64, 3)
	MatTVec(dt, a, y)
	// aT*y = [1+8, 2+10, 3+12]
	if dt[0] != 9 || dt[1] != 12 || dt[2] != 15 {
		t.Fatalf("MatTVec = %v", dt)
	}
}

// Property: xᵀ(A y) == (Aᵀ x)ᵀ y — adjoint identity that backprop relies on.
func TestAdjointIdentity(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 30; trial++ {
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		a := NewMat(m, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		x := make([]float64, m)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		ay := make([]float64, m)
		MatVec(ay, a, y)
		atx := make([]float64, n)
		MatTVec(atx, a, x)
		if !almostEq(Dot(x, ay), Dot(atx, y), 1e-8) {
			t.Fatalf("adjoint identity violated: %v vs %v", Dot(x, ay), Dot(atx, y))
		}
	}
}

func TestOuterAdd(t *testing.T) {
	a := NewMat(2, 2)
	OuterAdd(a, 2, []float64{1, 2}, []float64{3, 4})
	want := []float64{6, 8, 12, 16}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("OuterAdd = %v, want %v", a.Data, want)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1 channel, 3x3 image, k=3 -> single column equal to the image.
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	dst := NewMat(9, 1)
	Im2Col(dst, src, 1, 3, 3, 3)
	for i := range src {
		if dst.Data[i] != src[i] {
			t.Fatalf("Im2Col k=h: col = %v", dst.Data)
		}
	}
}

func TestIm2ColSliding(t *testing.T) {
	// 1 channel, 2x3 image, k=2: outH=1, outW=2.
	src := []float64{
		1, 2, 3,
		4, 5, 6,
	}
	dst := NewMat(4, 2)
	Im2Col(dst, src, 1, 2, 3, 2)
	// Column 0: receptive field at (0,0): 1,2,4,5; column 1: 2,3,5,6.
	want := []float64{
		1, 2,
		2, 3,
		4, 5,
		5, 6,
	}
	for i, v := range dst.Data {
		if v != want[i] {
			t.Fatalf("Im2Col = %v, want %v", dst.Data, want)
		}
	}
}

func TestIm2ColMultiChannel(t *testing.T) {
	// 2 channels of a 2x2 image, k=2 -> 8x1.
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	dst := NewMat(8, 1)
	Im2Col(dst, src, 2, 2, 2, 2)
	for i := range src {
		if dst.Data[i] != src[i] {
			t.Fatalf("multi-channel Im2Col = %v", dst.Data)
		}
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d", got)
	}
	if got := ArgMax([]float64{2, 2}); got != 0 {
		t.Fatalf("ArgMax tie = %d, want 0", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("Sum = %v", got)
	}
}

// quick-based property for Axpy: Axpy(a, x, y) == y + a*x element-wise.
func TestAxpyQuick(t *testing.T) {
	f := func(alpha float64, pairs []struct{ X, Y float64 }) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		x := make([]float64, 0, len(pairs))
		y := make([]float64, 0, len(pairs))
		for _, p := range pairs {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				return true
			}
			x = append(x, p.X)
			y = append(y, p.Y)
		}
		want := make([]float64, len(y))
		for i := range y {
			want[i] = y[i] + alpha*x[i]
		}
		Axpy(alpha, x, y)
		for i := range y {
			if y[i] != want[i] && !almostEq(y[i], want[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDot1k(b *testing.B) {
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	a := NewMat(64, 64)
	c := NewMat(64, 64)
	dst := NewMat(64, 64)
	r := rng.New(1)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		c.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}

func BenchmarkIm2ColMNIST(b *testing.B) {
	src := make([]float64, 28*28)
	dst := NewMat(9, 26*26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(dst, src, 1, 28, 28, 3)
	}
}
