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

type gemmImpl = func(dst, a, b Mat, accumulate bool)

// checkOrientations compares {A·B, Aᵀ·B, A·Bᵀ} × {store, accumulate} for an
// m×k×n product against the portable kernels to 1e-10. The store runs start
// from a NaN-filled dst: a kernel that adds where it should store fails.
func checkOrientations(t *testing.T, r *rng.Rand, m, k, n int, ab, atb, abt gemmImpl) {
	t.Helper()
	a, b := randMat(r, m, k), randMat(r, k, n)
	aT, bT := randMat(r, k, m), randMat(r, n, k)
	seed := randMat(r, m, n)
	cases := []struct {
		name      string
		got, want gemmImpl
		x, y      Mat
	}{
		{"AB", ab, matMulAddGo, a, b},
		{"ATB", atb, matMulATBGo, aT, b},
		{"ABT", abt, matMulABTGo, a, bT},
	}
	for _, c := range cases {
		for _, acc := range []bool{false, true} {
			got, want := NewMat(m, n), NewMat(m, n)
			if acc {
				copy(got.Data, seed.Data)
				copy(want.Data, seed.Data)
			} else {
				Fill(got.Data, math.NaN())
			}
			c.got(got, c.x, c.y, acc)
			c.want(want, c.x, c.y, acc)
			matsAlmostEq(t, fmt.Sprintf("%s/acc=%v", c.name, acc), got, want, 1e-10)
		}
	}
}

// paperGEMMShapes lists every (m, k, n) product a PaperMLP or PaperCNN
// gradient runs at batch b, in the orientation-free form the drivers see:
// Dense forward (Out×In · In×b), weight gradient (Out×b · b×In), input
// gradient (b×Out · Out×In); Conv2D forward (F×ckk · ckk×b·ohw), weight
// gradient (F × b·ohw × ckk) and column gradient (ckk×F · F×b·ohw).
func paperGEMMShapes(b int) [][3]int {
	var out [][3]int
	dense := func(in, o int) {
		out = append(out, [3]int{o, in, b}, [3]int{o, b, in}, [3]int{b, o, in})
	}
	conv := func(f, ckk, ohw int) {
		out = append(out, [3]int{f, ckk, b * ohw}, [3]int{f, b * ohw, ckk}, [3]int{ckk, f, b * ohw})
	}
	dense(784, 128)
	dense(128, 128)
	dense(128, 10)
	conv(4, 9, 26*26)
	conv(8, 36, 11*11)
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
		})
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
					matMulATBGo(wantT, aT, b, false)
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
	for _, file := range []string{"gemm_fma_amd64.s", "sparse_fma_amd64.s"} {
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
