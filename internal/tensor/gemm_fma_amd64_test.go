//go:build amd64 && !noasm

package tensor

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"leashedsgd/internal/rng"
)

// remainderShapes hit every tile/remainder combination of both tiers (odd
// rows, sub-tile columns, reduction tails, multi-block reductions).
var remainderShapes = [][3]int{
	{1, 1, 1}, {2, 4, 8}, {2, 5, 9}, {3, 7, 10}, {5, 3, 17},
	{8, 16, 24}, {7, 13, 15}, {2, gemmBlockK + 5, 11},
	{4, 2*gemmBlockK + 2, 9}, {32, 784, 128}, {32, 33, 6},
}

// TestFMAKernelsMatchPortable pins the drivers init selected — whatever
// tier that is on this host — to the portable kernels element-by-element
// through the package's own dispatch variables. Skipped on hosts without
// AVX2+FMA, where the portable kernels are the only path.
func TestFMAKernelsMatchPortable(t *testing.T) {
	if gemmTierSelected == nil {
		t.Skip("AVX2+FMA not available; portable kernels are the only path")
	}
	r := rng.New(21)
	for _, sh := range remainderShapes {
		t.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(t *testing.T) {
			checkOrientations(t, r, sh[0], sh[1], sh[2], matMulAddImpl, matMulATBImpl, matMulABTImpl)
		})
	}
}

type gemmImpl = func(dst, a, b Mat)

// checkOrientations compares A·B (store and accumulate), Aᵀ·B and A·Bᵀ
// (store) for an m×k×n product against the portable kernels to 1e-10. The
// store runs start from a NaN-filled dst: a kernel that adds where it should
// store fails.
func checkOrientations(t *testing.T, r *rng.Rand, m, k, n int, ab func(dst, a, b Mat, accumulate bool), atb, abt gemmImpl) {
	t.Helper()
	a, b := randMat(r, m, k), randMat(r, k, n)
	aT, bT := randMat(r, k, m), randMat(r, n, k)
	seed := randMat(r, m, n)
	mode := func(f func(dst, a, b Mat, accumulate bool), acc bool) gemmImpl {
		return func(dst, a, b Mat) { f(dst, a, b, acc) }
	}
	cases := []struct {
		name      string
		got, want gemmImpl
		x, y      Mat
		acc       bool
	}{
		{"AB", mode(ab, false), mode(matMulAddGo, false), a, b, false},
		{"AB/acc", mode(ab, true), mode(matMulAddGo, true), a, b, true},
		{"ATB", atb, matMulATBGo, aT, b, false},
		{"ABT", abt, matMulABTGo, a, bT, false},
	}
	for _, c := range cases {
		got, want := NewMat(m, n), NewMat(m, n)
		if c.acc {
			copy(got.Data, seed.Data)
			copy(want.Data, seed.Data)
		} else {
			Fill(got.Data, math.NaN())
		}
		c.got(got, c.x, c.y)
		c.want(want, c.x, c.y)
		matsAlmostEq(t, c.name, got, want, 1e-10)
	}
}

// paperGEMMShapes lists every (m, k, n) product a PaperMLP or PaperCNN
// gradient runs at batch b, in the orientation-free form the drivers see:
// Dense forward (Out×In · In×b), weight gradient (Out×b · b×In), input
// gradient (b×Out · Out×In); and Conv2D's one GEMM, each image's column
// gradient (ckk×F · F×OutH·InW) — its forward and filter gradient are run
// products, which checkRuns covers.
func paperGEMMShapes(b int) [][3]int {
	var out [][3]int
	dense := func(in, o int) {
		out = append(out, [3]int{o, in, b}, [3]int{o, b, in}, [3]int{b, o, in})
	}
	dense(784, 128)
	dense(128, 128)
	dense(128, 10)
	out = append(out, [3]int{4 * 9, 8, 11 * 13})
	dense(200, 128)
	return out
}

// TestGEMMTier drives every tier of the table — not only the one init
// selected — through the three orientations in both modes, over the
// remainder shapes plus every GEMM of the paper's two networks at b ∈
// {1, 8, 32}. A tier the host lacks skips by name, so a run's -v log says
// which kernels this machine did not test.
func TestGEMMTier(t *testing.T) {
	sel := "portable"
	if gemmTierSelected != nil {
		sel = gemmTierSelected.name
	}
	t.Logf("init selected tier: %s", sel)
	shapes := append([][3]int(nil), remainderShapes...)
	for _, b := range []int{1, 8, 32} {
		shapes = append(shapes, paperGEMMShapes(b)...)
	}
	for _, tier := range gemmTiers {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.supported(hostCPU) {
				t.Skipf("tier %s not supported by this CPU/OS: UNTESTED here", tier.name)
			}
			r := rng.New(22)
			for _, sh := range shapes {
				checkOrientations(t, r, sh[0], sh[1], sh[2], tier.matMulAdd, tier.matMulATB, matMulABTFMA)
				if t.Failed() {
					t.Fatalf("shape %v", sh)
				}
			}
			checkRuns(t, tier, r)
		})
	}
}

// checkRuns drives a tier's offset-table tile (matMulRuns) and its
// filter-gradient tiles (runsGrad, one image) against a portable reference
// that lowers explicitly: the tile must equal the same tier's gemm over the
// lowered matrix bit for bit and the portable kernel to 1e-10, and the
// filter-gradient tiles must add what matMulABTGo adds over the lowering, to
// 1e-10. The cases are runsCases plus, with NaN guard bands around a dst
// whose rows are longer than n, every m ≤ 2·MR+1 against every n ≤ 2·NR+1
// (masked rows and lanes, and every tail of the filter-gradient tile) at
// k = 5.
func checkRuns(t *testing.T, tier *gemmTier, r *rng.Rand) {
	t.Helper()
	check := func(name string, m, n int, b []float64, off []int) {
		k := len(off)
		a, lowered := randMat(r, m, k), lowerRuns(b, off, n)
		same, port := NewMat(m, n), NewMat(m, n)
		tier.matMulAdd(same, a, lowered, false)
		matMulAddGo(port, a, lowered, false)
		const guard, pad = 24, 5
		ldc := n + pad
		buf := make([]float64, 2*guard+m*ldc)
		Fill(buf, math.NaN())
		tier.matMulRuns(buf[guard:], ldc, m, n, a.Data, k, b, off)
		for p, v := range buf {
			q := p - guard
			inside := q >= 0 && q < m*ldc && q%ldc < n
			switch {
			case inside && math.Float64bits(v) != math.Float64bits(same.At(q/ldc, q%ldc)):
				t.Fatalf("%s: runs[%d][%d] = %v, %s on the lowering %v", name, q/ldc, q%ldc, v, tier.name, same.At(q/ldc, q%ldc))
			case inside && !almostEq(v, port.At(q/ldc, q%ldc), 1e-10):
				t.Fatalf("%s: runs[%d][%d] = %v, portable %v", name, q/ldc, q%ldc, v, port.At(q/ldc, q%ldc))
			case !inside && !math.IsNaN(v):
				t.Fatalf("%s: guard element %d overwritten with %v", name, q, v)
			}
		}
		dOut := randMat(r, m, n+pad)
		dOutN := NewMat(m, n)
		for i := 0; i < m; i++ {
			copy(dOutN.Row(i), dOut.Row(i)[:n])
		}
		got, want := randMat(r, m, k), NewMat(m, k)
		copy(want.Data, got.Data)
		park := make([]float64, tier.runsParkLen(m, k))
		tier.runsGrad(got.Data, k, m, dOut.Data, n+pad, m*(n+pad), n, b, len(b), off, 1, park)
		prod := NewMat(m, k)
		matMulABTGo(prod, dOutN, lowered)
		for i, v := range prod.Data {
			want.Data[i] += v
		}
		matsAlmostEq(t, name+": ABT runs", got, want, 1e-10)
	}
	for _, c := range runsCases(r) {
		check(c.name, c.m, c.n, c.b, c.off)
	}
	const k = 5
	for m := 1; m <= 2*tier.mr+1; m++ {
		for n := 1; n <= 2*tier.nr+1; n++ {
			b := randMat(r, 1, n+2*k).Data
			off := make([]int, k)
			for q := range off {
				off[q] = r.Intn(len(b) - n + 1)
			}
			check(fmt.Sprintf("m=%d n=%d", m, n), m, n, b, off)
		}
	}
}

// TestAxpyToTier drives the AxpyTo kernel of every tier of the table, not
// only the selected one, through checkAxpyTo; a tier the host lacks skips by
// name like TestGEMMTier's.
func TestAxpyToTier(t *testing.T) {
	for _, tier := range gemmTiers {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.supported(hostCPU) {
				t.Skipf("tier %s not supported by this CPU/OS: UNTESTED here", tier.name)
			}
			checkAxpyTo(t, tier.axpyTo, true)
		})
	}
}

// TestGEMMTierCanary embeds dst in a larger slice with NaN guard bands in
// front, behind, and between the rows' logical ends (ldc > n): the kernels
// store whole vectors into θ-shaped flat buffers, where an over-wide store
// would silently corrupt the next layer's block. Every m ≤ 2·MR+1 and
// n ≤ 2·NR+1 is tried in both modes and both stride orders.
func TestGEMMTierCanary(t *testing.T) {
	const guard, pad, k = 24, 5, 7
	for _, tier := range gemmTiers {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.supported(hostCPU) {
				t.Skipf("tier %s not supported by this CPU/OS: UNTESTED here", tier.name)
			}
			r := rng.New(23)
			for m := 1; m <= 2*tier.mr+1; m++ {
				for n := 1; n <= 2*tier.nr+1; n++ {
					a, aT, b := randMat(r, m, k), randMat(r, k, m), randMat(r, k, n)
					want, wantT := NewMat(m, n), NewMat(m, n)
					matMulAddGo(want, a, b, false)
					matMulATBGo(wantT, aT, b)
					ldc := n + pad
					for _, acc := range []bool{false, true} {
						for _, trans := range []bool{false, true} {
							buf := make([]float64, 2*guard+m*ldc)
							Fill(buf, math.NaN())
							c := buf[guard:]
							base := 0.0
							if acc {
								base = 1.5
								for i := 0; i < m; i++ {
									Fill(c[i*ldc:i*ldc+n], base)
								}
							}
							w := want
							if trans {
								tier.gemm(c, ldc, m, n, k, aT.Data, 1, m, b.Data, n, acc)
								w = wantT
							} else {
								tier.gemm(c, ldc, m, n, k, a.Data, k, 1, b.Data, n, acc)
							}
							for p, v := range buf {
								q := p - guard
								inside := q >= 0 && q < m*ldc && q%ldc < n
								switch {
								case inside && !almostEq(v, base+w.At(q/ldc, q%ldc), 1e-10):
									t.Fatalf("m=%d n=%d acc=%v trans=%v: c[%d][%d] = %v, want %v",
										m, n, acc, trans, q/ldc, q%ldc, v, base+w.At(q/ldc, q%ldc))
								case !inside && !math.IsNaN(v):
									t.Fatalf("m=%d n=%d acc=%v trans=%v: guard element %d overwritten with %v",
										m, n, acc, trans, q, v)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestGEMMTierDetect pins the selection rule: the AVX2 tier needs FMA,
// OSXSAVE, AVX, AVX2 and XCR0[2:1]; the AVX-512 tier additionally AVX512F
// (CPUID.7.0:EBX[16]) AND XCR0 & 0xE6 == 0xE6 — the instructions alone, on
// an OS that does not save opmask/ZMM state, must stay on AVX2.
func TestGEMMTierDetect(t *testing.T) {
	const (
		ecxAVX2 = 1<<12 | 1<<27 | 1<<28
		ebxAVX2 = 1 << 5
		ebx512F = 1 << 16
	)
	cases := []struct {
		name           string
		f              cpuFeatures
		wantY, wantZ   bool
		wantFirstMatch string
	}{
		{"none", cpuFeatures{}, false, false, ""},
		{"avx2", cpuFeatures{ecxAVX2, ebxAVX2, 0x7}, true, false, "ymm4x8"},
		{"avx2/no-fma", cpuFeatures{ecxAVX2 &^ (1 << 12), ebxAVX2, 0x7}, false, false, ""},
		{"avx2/no-osxsave", cpuFeatures{ecxAVX2 &^ (1 << 27), ebxAVX2, 0}, false, false, ""},
		{"avx2/ymm-state-off", cpuFeatures{ecxAVX2, ebxAVX2, 0x3}, false, false, ""},
		{"avx512", cpuFeatures{ecxAVX2, ebxAVX2 | ebx512F, 0xE7}, true, true, "zmm8x16"},
		{"avx512/os-saves-ymm-only", cpuFeatures{ecxAVX2, ebxAVX2 | ebx512F, 0x7}, true, false, "ymm4x8"},
		{"avx512/no-opmask-state", cpuFeatures{ecxAVX2, ebxAVX2 | ebx512F, 0xC7}, true, false, "ymm4x8"},
		{"avx512/half-zmm-state", cpuFeatures{ecxAVX2, ebxAVX2 | ebx512F, 0x67}, true, false, "ymm4x8"},
		{"avx512f-bit-clear", cpuFeatures{ecxAVX2, ebxAVX2, 0xE7}, true, false, "ymm4x8"},
	}
	for _, c := range cases {
		if got := c.f.avx2FMA(); got != c.wantY {
			t.Errorf("%s: avx2FMA = %v, want %v", c.name, got, c.wantY)
		}
		if got := c.f.avx512(); got != c.wantZ {
			t.Errorf("%s: avx512 = %v, want %v", c.name, got, c.wantZ)
		}
		first := ""
		for _, tier := range gemmTiers {
			if tier.supported(c.f) {
				first = tier.name
				break
			}
		}
		if first != c.wantFirstMatch {
			t.Errorf("%s: first supported tier = %q, want %q", c.name, first, c.wantFirstMatch)
		}
	}
	// The host's own answer must agree with what init dispatched.
	for _, tier := range gemmTiers {
		if tier.supported(hostCPU) {
			if gemmTierSelected != tier {
				t.Fatalf("host supports %s but init selected %v", tier.name, gemmTierSelected)
			}
			return
		}
	}
	if gemmTierSelected != nil {
		t.Fatalf("host supports no tier but init selected %s", gemmTierSelected.name)
	}
}

// TestGEMMTierVZeroUpper reads the kernel sources: every RET of a routine
// that touches a YMM/ZMM register must be preceded by VZEROUPPER, or the Go
// code that runs next pays the SSE/AVX transition penalty on every scalar
// float instruction.
func TestGEMMTierVZeroUpper(t *testing.T) {
	vec := regexp.MustCompile(`\b[YZ]([0-9]|[12][0-9]|3[01])\b`)
	for _, file := range []string{"gemm_fma_amd64.s", "sparse_fma_amd64.s", "cnn_amd64.s"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var routine, prev string
		usesVec := false
		for n, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			code = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(code), "\\"))
			code = strings.TrimSuffix(code, ";")
			switch {
			case code == "" || strings.HasPrefix(code, "#") || strings.HasSuffix(code, ":"):
				continue
			case strings.HasPrefix(code, "TEXT"):
				routine, usesVec = code, false
			case vec.MatchString(code) || strings.HasPrefix(code, "ZROW") || strings.HasPrefix(code, "YROWS"):
				usesVec = true
			case code == "RET" && usesVec && prev != "VZEROUPPER":
				t.Errorf("%s:%d: RET after %q without VZEROUPPER in %s", file, n+1, prev, routine)
			}
			prev = code
		}
	}
}
