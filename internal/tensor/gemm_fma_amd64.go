//go:build amd64 && !noasm

package tensor

// FMA drivers for the three GEMM orientations.
//
// A·B and Aᵀ·B share ONE driver over ONE microkernel contract
// (gemm_fma_amd64.s): a destination tile C[MR×NR] (= | +=)
// Σ_q A(i,q)·B[q][0:NR] with A read by broadcast at arbitrary (row, k)
// element strides — so the transposed orientation is the same call with the
// two strides swapped — B rows contiguous, and the tile kept in vector
// registers for the whole reduction and written straight into dst. B's rows
// are sb apart, or wherever an offset table puts them (MatMulRuns: the
// convolution's lowering rows, read in place from the input). Two
// kernels implement the contract, an 8×16 AVX-512 one and a 4×8 AVX2 one;
// init picks the widest the CPU and the OS support, from CPUID and XCR0
// alone. Edge tiles go through the same kernels (rows and lanes past the
// edge are masked in the assembly), so no shape falls back to scalar loops.
//
// A·Bᵀ, where both operands are long in the reduction dimension (the
// convolution weight gradient over input runs, single-row forward passes),
// keeps its 2×4 dot tile.
//
// Results differ from the portable kernels only in floating-point summation
// order. The whole dispatch sits behind the `noasm` build tag (`-tags noasm`
// compiles the portable Go kernels alone, on amd64 too), which is how the CI
// portable matrix leg exercises the fallback path on every push instead of
// only on non-amd64 hosts.

// tileFunc is the microkernel contract; see gemm_fma_amd64.s. Strides are
// in bytes, add != 0 accumulates into C, and a non-nil off reads B[q] at
// b[off[q]] instead of q·sb bytes past b.
type tileFunc func(c *float64, sc uintptr, a *float64, sar, sak uintptr, b *float64, sb uintptr, k, mr, nr, add int, off *int)

// gemmTier is one implementation of the tile contract.
type gemmTier struct {
	name   string
	mr, nr int
	tile   tileFunc
	// axpyTo is the tier's AxpyTo kernel: the same register width, chosen
	// by the same test.
	axpyTo func(dst, src []float64, alpha float64, x []float64)
	// supported reports whether the CPU has the instructions and the OS
	// saves the registers the kernel uses.
	supported func(cpuFeatures) bool
}

// gemmTiers lists the kernels widest first; init selects the first one the
// host supports. The table exists so the tests can drive every tier the
// host has, not to be chosen from by callers.
var gemmTiers = []*gemmTier{
	{name: "zmm8x16", mr: 8, nr: 16, tile: gemmTileZMM, axpyTo: axpyToZMM, supported: cpuFeatures.avx512},
	{name: "ymm4x8", mr: 4, nr: 8, tile: gemmTileYMM, axpyTo: axpyToYMM, supported: cpuFeatures.avx2FMA},
}

// gemmTierSelected is the broadcast-tile tier init dispatched to; nil when
// the host has no AVX2+FMA and the portable kernels are the only path.
var gemmTierSelected *gemmTier

func init() {
	for _, t := range gemmTiers {
		if t.supported(hostCPU) {
			gemmTierSelected = t
			matMulAddImpl, matMulATBImpl, axpyToImpl = t.matMulAdd, t.matMulATB, t.axpyTo
			matMulRunsImpl = t.matMulRuns
			// Every tier implies AVX2+FMA, which is all the dot tile needs.
			matMulABTImpl, matMulABTRunsImpl = matMulABTFMA, matMulABTRunsFMA
			return
		}
	}
}

// cpuFeatures is what tier selection reads: CPUID.1:ECX, CPUID.7.0:EBX and
// XCR0 (zero when the OS has not enabled XSAVE).
type cpuFeatures struct {
	ecx1, ebx7 uint32
	xcr0       uint64
}

// hostCPU is read once, before any init function runs.
var hostCPU = hostFeatures()

func hostFeatures() cpuFeatures {
	var f cpuFeatures
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, f.ecx1, _ = cpuid(1, 0)
	if maxLeaf >= 7 {
		_, f.ebx7, _, _ = cpuid(7, 0)
	}
	if f.ecx1&(1<<27) != 0 { // OSXSAVE: XGETBV is available
		f.xcr0 = xgetbv0()
	}
	return f
}

// avx2FMA reports FMA (CPUID.1:ECX[12]), OSXSAVE [27], AVX [28] and AVX2
// (CPUID.7.0:EBX[5]) with the SSE and AVX state components OS-enabled
// (XCR0[2:1]).
func (f cpuFeatures) avx2FMA() bool {
	const need1 = 1<<12 | 1<<27 | 1<<28
	return f.ecx1&need1 == need1 && f.ebx7&(1<<5) != 0 && f.xcr0&0x6 == 0x6
}

// avx512 additionally requires AVX512F (CPUID.7.0:EBX[16]) and the opmask
// and both ZMM state components OS-enabled (XCR0 bits 5, 6, 7 on top of 1
// and 2): a CPU with the instructions under an OS that does not save the
// registers must stay on the AVX2 tier.
func (f cpuFeatures) avx512() bool {
	return f.avx2FMA() && f.ebx7&(1<<16) != 0 && f.xcr0&0xE6 == 0xE6
}

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() uint64

//go:noescape
func gemmTileZMM(c *float64, sc uintptr, a *float64, sar, sak uintptr, b *float64, sb uintptr, k, mr, nr, add int, off *int)

//go:noescape
func gemmTileYMM(c *float64, sc uintptr, a *float64, sar, sak uintptr, b *float64, sb uintptr, k, mr, nr, add int, off *int)

// fmaDot2x4 computes eight simultaneous dot products (2 a rows × 4 b rows,
// all contiguous) over k4 elements (k4 % 4 == 0): c[4r+t] = a_r·b_t.
//
//go:noescape
func fmaDot2x4(pa0, pa1, pb0, pb1, pb2, pb3 *float64, k4 int, c *[8]float64)

// axpyToZMM and axpyToYMM are the two AxpyTo kernels (contract in
// gemm_fma_amd64.s): one FMA per element, tail lanes masked.
//
//go:noescape
func axpyToZMM(dst, src []float64, alpha float64, x []float64)

//go:noescape
func axpyToYMM(dst, src []float64, alpha float64, x []float64)

// gemmPanelBytes bounds one reduction block's B panel (kb rows × NR
// float64s) so it stays L1-resident while the A rows stream past it.
const gemmPanelBytes = 24 << 10

// gemm is the one driver: c[m×n, row stride ldc] (= | +=) Σ_q A(i,q)·b[q],
// with A(i,q) = a[i·sar + q·sak] and b's rows ldb apart. Panel-outer,
// row-inner: for each reduction block and each NR-wide panel of b, every
// MR-row group of A streams past the panel. The callers have validated the
// shapes; the kernels read exactly the m×k elements of A and k×n of b the
// strides name and write exactly c's m×n.
func (t *gemmTier) gemm(c []float64, ldc, m, n, k int, a []float64, sar, sak int, b []float64, ldb int, accumulate bool) {
	if m == 0 || n == 0 || k == 0 {
		return // nothing to add; the exported store forms zero dst themselves
	}
	// Equal reduction blocks, each panel within the L1 budget.
	blocks := (k*t.nr*8 + gemmPanelBytes - 1) / gemmPanelBytes
	kb := (k + blocks - 1) / blocks
	add := 0
	if accumulate {
		add = 1
	}
	for k0 := 0; k0 < k; k0 += kb {
		kn := min(kb, k-k0)
		for j := 0; j < n; j += t.nr {
			nr := min(t.nr, n-j)
			pb := &b[k0*ldb+j]
			for i := 0; i < m; i += t.mr {
				t.tile(&c[i*ldc+j], uintptr(ldc)*8, &a[i*sar+k0*sak], uintptr(sar)*8, uintptr(sak)*8,
					pb, uintptr(ldb)*8, kn, min(t.mr, m-i), nr, add, nil)
			}
		}
		add = 1
	}
}

// matMulAdd is dst =(+)= a·b: A(i,q) = a[i][q].
func (t *gemmTier) matMulAdd(dst, a, b Mat, accumulate bool) {
	t.gemm(dst.Data, dst.Cols, a.Rows, b.Cols, a.Cols, a.Data, a.Cols, 1, b.Data, b.Cols, accumulate)
}

// matMulATB is dst =(+)= aᵀ·b: A(i,q) = a[q][i], the same call with the
// strides swapped.
func (t *gemmTier) matMulATB(dst, a, b Mat, accumulate bool) {
	t.gemm(dst.Data, dst.Cols, a.Cols, b.Cols, a.Rows, a.Data, 1, a.Cols, b.Data, b.Cols, accumulate)
}

// matMulRuns is c[i·ldc+j] = Σ_q a[i·lda+q]·b[off[q]+j] for i < m, j < n:
// one offset-table tile per (NR-column panel, MR-row group), over the whole
// reduction — the FMA chain from zero that gemm computes on the explicit
// lowering, so a convolution read in place is bit-identical to the lowered
// GEMM. No panel is blocked out: B's rows are runs of the input, not a
// packed panel that must fit L1.
func (t *gemmTier) matMulRuns(c []float64, ldc, m, n int, a []float64, lda int, b []float64, off []int) {
	k := len(off)
	for j := 0; j < n; j += t.nr {
		nr := min(t.nr, n-j)
		for i := 0; i < m; i += t.mr {
			t.tile(&c[i*ldc+j], uintptr(ldc)*8, &a[i*lda], uintptr(lda)*8, 8,
				&b[j], 0, k, min(t.mr, m-i), nr, 0, &off[0])
		}
	}
}

// matMulABTFMA is dst =(+)= a·bᵀ with 2×4 FMA dot tiles, the reduction
// blocked at gemmBlockK.
func matMulABTFMA(dst, a, b Mat, accumulate bool) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		kb := min(gemmBlockK, k-k0)
		dotTiles(dst.Data, dst.Cols, m, n, a.Data[k0:], a.Cols, kb, b.Data[k0:], b.Cols, nil, accumulate || k0 > 0)
	}
}

// matMulABTRunsFMA is dst += a·Rᵀ, R's row q the run b[off[q]:off[q]+n].
func matMulABTRunsFMA(dst []float64, ldd, m int, a []float64, lda, n int, b []float64, off []int) {
	dotTiles(dst, ldd, m, len(off), a, lda, n, b, 0, off, true)
}

// dotTiles is dst[i][q] (=|+=) Σ_{p<kb} a[i·lda+p]·b[bRow(q)+p] for i < m,
// q < nq, dst's rows ldd apart, where b's row q starts at off[q], or at q·ldb
// when off is nil. Edge tiles run the same kernel: an odd last row of a is
// paired with itself and tile columns past the last row of b re-read that
// row, the surplus sums being dropped — so a single-row product (every GEMM
// of a b=1 forward pass) is vector code too. Only the kb%4 reduction tail is
// scalar.
func dotTiles(dst []float64, ldd, m, nq int, a []float64, lda, kb int, b []float64, ldb int, off []int, accumulate bool) {
	bRow := func(q int) []float64 {
		s := q * ldb
		if off != nil {
			s = off[q]
		}
		return b[s : s+kb]
	}
	k4 := kb &^ 3
	var c [8]float64
	for i := 0; i < m; i += 2 {
		rows := min(2, m-i)
		a0 := a[i*lda : i*lda+kb]
		a1 := a[(i+rows-1)*lda : (i+rows-1)*lda+kb]
		for j := 0; j < nq; j += 4 {
			cols := min(4, nq-j)
			b0 := bRow(j)
			b1 := bRow(min(j+1, nq-1))
			b2 := bRow(min(j+2, nq-1))
			b3 := bRow(min(j+3, nq-1))
			fmaDot2x4(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], k4, &c)
			for p := k4; p < kb; p++ {
				av0, av1 := a0[p], a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				c[0] += av0 * bv0
				c[1] += av0 * bv1
				c[2] += av0 * bv2
				c[3] += av0 * bv3
				c[4] += av1 * bv0
				c[5] += av1 * bv1
				c[6] += av1 * bv2
				c[7] += av1 * bv3
			}
			for r := 0; r < rows; r++ {
				d, s := dst[(i+r)*ldd+j:(i+r)*ldd+j+cols], c[4*r:4*r+cols]
				for t, v := range s {
					if accumulate {
						d[t] += v
					} else {
						d[t] = v
					}
				}
			}
		}
	}
}
