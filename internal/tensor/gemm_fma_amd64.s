//go:build amd64 && !noasm

#include "textflag.h"

// FMA microkernels for the GEMM drivers (gemm_fma_amd64.go): the two
// direct-to-C broadcast tile kernels (AVX-512 8×16, AVX2 4×8), the 2×4 dot
// tile of the A·Bᵀ orientation, and the two AxpyTo kernels. Every kernel
// ends in VZEROUPPER, and none touches memory outside the rows/lanes its
// mr/nr/k (or length) arguments name.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
//
// XCR0, the OS-enabled extended state mask. Only legal when CPUID.1:ECX
// reports OSXSAVE; the caller checks.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// The tile contract shared by both broadcast kernels:
//
//	C[i][j] (= | +=) Σ_{q<k} A(i,q)·B[q][j]    for i < mr, j < nr
//
// with A(i,q) the float64 at a + i·sar + q·sak, B[q] the nr contiguous
// float64s at b + q·sb and C[i] those at c + i·sc (all strides in bytes),
// k ≥ 1, 1 ≤ mr ≤ MR, 1 ≤ nr ≤ NR. add = 0 stores the tile, add ≠ 0 starts
// the accumulators from C instead of zero. The accumulators live in vector
// registers for the whole reduction and go straight to C.
//
// A non-nil off replaces sb with an offset table: B[q] is then the nr
// float64s at b + 8·off[q], so the rows of B may be any runs of one slice —
// the convolution's lowering rows read in place from the input image. The
// reduction is the same FMA chain either way.
//
// Edge tiles run the same loop: rows ≥ mr re-read row 0 (their A offsets
// are zeroed) and are never loaded from or stored to C; lanes ≥ nr are
// masked out of every B and C access, so nothing past the tile is touched.

// func gemmTileZMM(c *float64, sc uintptr, a *float64, sar, sak uintptr, b *float64, sb uintptr, k, mr, nr, add int, off *int)
//
// MR×NR = 8×16: Z0..Z15 accumulate (row i in Z(2i), Z(2i+1)), Z16/Z17 hold
// the B row, Z18/Z19 the broadcast A elements. K1/K2 mask lanes 0-7 / 8-15.
// Per k step: 2 B loads + 8 broadcasts feed 16 FMAs, i.e. the two 512-bit
// FMA ports stay busy and the load ports are at 10/16 of them.
#define ZROW(off, t, lo, hi) \
	VBROADCASTSD (AX)(off*1), t; \
	VFMADD231PD  Z16, t, lo; \
	VFMADD231PD  Z17, t, hi

#define ZROWN(off, t, lo) \
	VBROADCASTSD (AX)(off*1), t; \
	VFMADD231PD  Z16, t, lo

#define ZLOAD(n, lo, hi) \
	CMPQ R9, $n; \
	JLE  zsetup; \
	ADDQ SI, DI; \
	VMOVUPD.Z (DI), K1, lo; \
	VMOVUPD.Z 64(DI), K2, hi

#define ZSTORE(n, lo, hi) \
	CMPQ R9, $n; \
	JLE  zdone; \
	ADDQ SI, DI; \
	VMOVUPD lo, K1, (DI); \
	VMOVUPD hi, K2, 64(DI)

TEXT ·gemmTileZMM(SB), NOSPLIT, $0-96
	// K1 = lanes [0, min(nr,8)), K2 = lanes [8, nr): the low byte of each
	// is what an 8-lane float64 operation reads.
	MOVQ  nr+72(FP), CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	// Pull the tile's C lines towards L1 while the reduction runs, so the
	// stores at the end do not wait on 16 cache misses. Prefetches never
	// fault, so rows ≥ mr need no guard.
	MOVQ c+0(FP), DI
	MOVQ sc+8(FP), SI
	LEAQ (SI)(SI*2), AX
	PREFETCHT0 (DI)
	PREFETCHT0 64(DI)
	PREFETCHT0 (DI)(SI*1)
	PREFETCHT0 64(DI)(SI*1)
	PREFETCHT0 (DI)(SI*2)
	PREFETCHT0 64(DI)(SI*2)
	PREFETCHT0 (DI)(AX*1)
	PREFETCHT0 64(DI)(AX*1)
	LEAQ (DI)(SI*4), BX
	PREFETCHT0 (BX)
	PREFETCHT0 64(BX)
	PREFETCHT0 (BX)(SI*1)
	PREFETCHT0 64(BX)(SI*1)
	PREFETCHT0 (BX)(SI*2)
	PREFETCHT0 64(BX)(SI*2)
	PREFETCHT0 (BX)(AX*1)
	PREFETCHT0 64(BX)(AX*1)

	MOVQ mr+64(FP), R9
	MOVQ add+80(FP), AX
	TESTQ AX, AX
	JZ   zsetup
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	ZLOAD(1, Z2, Z3)
	ZLOAD(2, Z4, Z5)
	ZLOAD(3, Z6, Z7)
	ZLOAD(4, Z8, Z9)
	ZLOAD(5, Z10, Z11)
	ZLOAD(6, Z12, Z13)
	ZLOAD(7, Z14, Z15)

zsetup:
	// Row offsets i·sar in BX, CX, DX, SI, DI, R8, R10; zero for rows ≥ mr.
	MOVQ sar+24(FP), BX
	LEAQ (BX)(BX*1), CX
	LEAQ (CX)(BX*1), DX
	LEAQ (CX)(CX*1), SI
	LEAQ (SI)(BX*1), DI
	LEAQ (DX)(DX*1), R8
	LEAQ (R8)(BX*1), R10
	XORQ AX, AX
	CMPQ R9, $2
	CMOVQLT AX, BX
	CMPQ R9, $3
	CMOVQLT AX, CX
	CMPQ R9, $4
	CMOVQLT AX, DX
	CMPQ R9, $5
	CMOVQLT AX, SI
	CMPQ R9, $6
	CMOVQLT AX, DI
	CMPQ R9, $7
	CMOVQLT AX, R8
	CMPQ R9, $8
	CMOVQLT AX, R10

	MOVQ a+16(FP), AX
	MOVQ sak+32(FP), R12
	MOVQ b+40(FP), R11
	MOVQ sb+48(FP), R13
	MOVQ k+56(FP), R9
	MOVQ off+88(FP), R14
	TESTQ R14, R14
	JNZ  zoff
	CMPQ nr+72(FP), $8
	JLE  znloop

zloop:
	VMOVUPD.Z (R11), K1, Z16
	VMOVUPD.Z 64(R11), K2, Z17
	VBROADCASTSD (AX), Z18
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z17, Z18, Z1
	ZROW(BX, Z19, Z2, Z3)
	ZROW(CX, Z18, Z4, Z5)
	ZROW(DX, Z19, Z6, Z7)
	ZROW(SI, Z18, Z8, Z9)
	ZROW(DI, Z19, Z10, Z11)
	ZROW(R8, Z18, Z12, Z13)
	ZROW(R10, Z19, Z14, Z15)
	ADDQ R12, AX
	ADDQ R13, R11
	DECQ R9
	JNZ  zloop
	JMP  zstore

	// nr ≤ 8: lanes 8-15 are all masked out, so the upper accumulators stay
	// zero and their half of the FMAs is skipped (the 8-row evaluation
	// block, small batches).
znloop:
	VMOVUPD.Z (R11), K1, Z16
	VBROADCASTSD (AX), Z18
	VFMADD231PD  Z16, Z18, Z0
	ZROWN(BX, Z19, Z2)
	ZROWN(CX, Z18, Z4)
	ZROWN(DX, Z19, Z6)
	ZROWN(SI, Z18, Z8)
	ZROWN(DI, Z19, Z10)
	ZROWN(R8, Z18, Z12)
	ZROWN(R10, Z19, Z14)
	ADDQ R12, AX
	ADDQ R13, R11
	DECQ R9
	JNZ  znloop
	JMP  zstore

	// The offset-table loops: the same two loops with B[q] at R11 + 8·off[q],
	// the table walked by R14.
zoff:
	CMPQ nr+72(FP), $8
	JLE  zonloop

zoloop:
	MOVQ (R14), R13
	VMOVUPD.Z (R11)(R13*8), K1, Z16
	VMOVUPD.Z 64(R11)(R13*8), K2, Z17
	VBROADCASTSD (AX), Z18
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z17, Z18, Z1
	ZROW(BX, Z19, Z2, Z3)
	ZROW(CX, Z18, Z4, Z5)
	ZROW(DX, Z19, Z6, Z7)
	ZROW(SI, Z18, Z8, Z9)
	ZROW(DI, Z19, Z10, Z11)
	ZROW(R8, Z18, Z12, Z13)
	ZROW(R10, Z19, Z14, Z15)
	ADDQ R12, AX
	ADDQ $8, R14
	DECQ R9
	JNZ  zoloop
	JMP  zstore

zonloop:
	MOVQ (R14), R13
	VMOVUPD.Z (R11)(R13*8), K1, Z16
	VBROADCASTSD (AX), Z18
	VFMADD231PD  Z16, Z18, Z0
	ZROWN(BX, Z19, Z2)
	ZROWN(CX, Z18, Z4)
	ZROWN(DX, Z19, Z6)
	ZROWN(SI, Z18, Z8)
	ZROWN(DI, Z19, Z10)
	ZROWN(R8, Z18, Z12)
	ZROWN(R10, Z19, Z14)
	ADDQ R12, AX
	ADDQ $8, R14
	DECQ R9
	JNZ  zonloop

zstore:
	MOVQ c+0(FP), DI
	MOVQ sc+8(FP), SI
	MOVQ mr+64(FP), R9
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	ZSTORE(1, Z2, Z3)
	ZSTORE(2, Z4, Z5)
	ZSTORE(3, Z6, Z7)
	ZSTORE(4, Z8, Z9)
	ZSTORE(5, Z10, Z11)
	ZSTORE(6, Z12, Z13)
	ZSTORE(7, Z14, Z15)

zdone:
	VZEROUPPER
	RET

// Lane masks for the AVX2 kernel: the 8 quadwords starting at index 8−nr
// are all-ones exactly in lanes < nr.
DATA gemmLaneMask<>+0(SB)/8, $-1
DATA gemmLaneMask<>+8(SB)/8, $-1
DATA gemmLaneMask<>+16(SB)/8, $-1
DATA gemmLaneMask<>+24(SB)/8, $-1
DATA gemmLaneMask<>+32(SB)/8, $-1
DATA gemmLaneMask<>+40(SB)/8, $-1
DATA gemmLaneMask<>+48(SB)/8, $-1
DATA gemmLaneMask<>+56(SB)/8, $-1
DATA gemmLaneMask<>+64(SB)/8, $0
DATA gemmLaneMask<>+72(SB)/8, $0
DATA gemmLaneMask<>+80(SB)/8, $0
DATA gemmLaneMask<>+88(SB)/8, $0
DATA gemmLaneMask<>+96(SB)/8, $0
DATA gemmLaneMask<>+104(SB)/8, $0
DATA gemmLaneMask<>+112(SB)/8, $0
DATA gemmLaneMask<>+120(SB)/8, $0
GLOBL gemmLaneMask<>(SB), RODATA|NOPTR, $128

// func gemmTileYMM(c *float64, sc uintptr, a *float64, sar, sak uintptr, b *float64, sb uintptr, k, mr, nr, add int, off *int)
//
// MR×NR = 4×8: Y0..Y7 accumulate (row i in Y(2i), Y(2i+1)), Y8/Y9 hold the
// B row, Y10/Y11 the broadcast A elements, Y12/Y13 the lane masks. Full
// tiles (nr = 8) use plain B loads and C stores; narrower ones go through
// VMASKMOVPD, which neither reads nor writes (nor faults on) masked lanes.
#define YROWS \
	VBROADCASTSD (AX), Y10; \
	VFMADD231PD  Y8, Y10, Y0; \
	VFMADD231PD  Y9, Y10, Y1; \
	VBROADCASTSD (AX)(BX*1), Y11; \
	VFMADD231PD  Y8, Y11, Y2; \
	VFMADD231PD  Y9, Y11, Y3; \
	VBROADCASTSD (AX)(CX*1), Y10; \
	VFMADD231PD  Y8, Y10, Y4; \
	VFMADD231PD  Y9, Y10, Y5; \
	VBROADCASTSD (AX)(DX*1), Y11; \
	VFMADD231PD  Y8, Y11, Y6; \
	VFMADD231PD  Y9, Y11, Y7

#define YLOAD(n, lo, hi) \
	CMPQ R9, $n; \
	JLE  ysetup; \
	ADDQ SI, DI; \
	VMASKMOVPD (DI), Y12, lo; \
	VMASKMOVPD 32(DI), Y13, hi

#define YSTORE(n, lo, hi) \
	CMPQ R9, $n; \
	JLE  ydone; \
	ADDQ SI, DI; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 32(DI)

#define YSTOREM(n, lo, hi) \
	CMPQ R9, $n; \
	JLE  ydone; \
	ADDQ SI, DI; \
	VMASKMOVPD lo, Y12, (DI); \
	VMASKMOVPD hi, Y13, 32(DI)

TEXT ·gemmTileYMM(SB), NOSPLIT, $0-96
	MOVQ $8, AX
	SUBQ nr+72(FP), AX
	LEAQ gemmLaneMask<>(SB), BX
	VMOVDQU (BX)(AX*8), Y12
	VMOVDQU 32(BX)(AX*8), Y13

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	// C prefetch, as in the AVX-512 kernel.
	MOVQ c+0(FP), DI
	MOVQ sc+8(FP), SI
	LEAQ (SI)(SI*2), AX
	PREFETCHT0 (DI)
	PREFETCHT0 56(DI)
	PREFETCHT0 (DI)(SI*1)
	PREFETCHT0 56(DI)(SI*1)
	PREFETCHT0 (DI)(SI*2)
	PREFETCHT0 56(DI)(SI*2)
	PREFETCHT0 (DI)(AX*1)
	PREFETCHT0 56(DI)(AX*1)

	MOVQ mr+64(FP), R9
	MOVQ add+80(FP), AX
	TESTQ AX, AX
	JZ   ysetup
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	YLOAD(1, Y2, Y3)
	YLOAD(2, Y4, Y5)
	YLOAD(3, Y6, Y7)

ysetup:
	// Row offsets i·sar in BX, CX, DX; zero for rows ≥ mr.
	MOVQ sar+24(FP), BX
	LEAQ (BX)(BX*1), CX
	LEAQ (CX)(BX*1), DX
	XORQ AX, AX
	CMPQ R9, $2
	CMOVQLT AX, BX
	CMPQ R9, $3
	CMOVQLT AX, CX
	CMPQ R9, $4
	CMOVQLT AX, DX

	MOVQ a+16(FP), AX
	MOVQ sak+32(FP), R12
	MOVQ b+40(FP), R11
	MOVQ sb+48(FP), R13
	MOVQ k+56(FP), R9
	MOVQ c+0(FP), DI
	MOVQ sc+8(FP), SI
	MOVQ nr+72(FP), R8
	MOVQ off+88(FP), R14
	TESTQ R14, R14
	JNZ  yoff
	CMPQ R8, $8
	JNE  ymloop

yloop:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	YROWS
	ADDQ R12, AX
	ADDQ R13, R11
	DECQ R9
	JNZ  yloop

yfull:
	MOVQ mr+64(FP), R9
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	YSTORE(1, Y2, Y3)
	YSTORE(2, Y4, Y5)
	YSTORE(3, Y6, Y7)
	JMP  ydone

ymloop:
	VMASKMOVPD (R11), Y12, Y8
	VMASKMOVPD 32(R11), Y13, Y9
	YROWS
	ADDQ R12, AX
	ADDQ R13, R11
	DECQ R9
	JNZ  ymloop

ymasked:
	MOVQ mr+64(FP), R9
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	YSTOREM(1, Y2, Y3)
	YSTOREM(2, Y4, Y5)
	YSTOREM(3, Y6, Y7)
	JMP  ydone

	// The offset-table loops: B[q] at R11 + 8·off[q], the table walked by
	// R14; each ends in its store sequence above.
yoff:
	CMPQ R8, $8
	JNE  yomloop

yoloop:
	MOVQ (R14), R13
	VMOVUPD (R11)(R13*8), Y8
	VMOVUPD 32(R11)(R13*8), Y9
	YROWS
	ADDQ R12, AX
	ADDQ $8, R14
	DECQ R9
	JNZ  yoloop
	JMP  yfull

yomloop:
	MOVQ (R14), R13
	VMASKMOVPD (R11)(R13*8), Y12, Y8
	VMASKMOVPD 32(R11)(R13*8), Y13, Y9
	YROWS
	ADDQ R12, AX
	ADDQ $8, R14
	DECQ R9
	JNZ  yomloop
	JMP  ymasked

ydone:
	VZEROUPPER
	RET

// func fmaDot2x4(pa0, pa1, pb0, pb1, pb2, pb3 *float64, k4 int, c *[8]float64)
//
// Eight simultaneous dot products over k4 elements: the 2×4 tile pairs a
// rows {pa0, pa1} with b rows {pb0..pb3}, all contiguous, and c[4·r+t]
// receives a_r·b_t. k4 must be a multiple of 4 (the Go driver handles the
// scalar tail; 0 yields zeros); each iteration consumes 4 float64s from all
// six streams feeding 8 independent FMA chains, and the lane partials are
// folded here so the driver gets finished sums.
#define DOTFOLD(p0, p1, p2, p3, t0, t1, t2) \
	VHADDPD    p1, p0, t0;       \
	VHADDPD    p3, p2, t1;       \
	VPERM2F128 $0x20, t1, t0, t2; \
	VPERM2F128 $0x31, t1, t0, t0; \
	VADDPD     t2, t0, t0

TEXT ·fmaDot2x4(SB), NOSPLIT, $0-64
	MOVQ pa0+0(FP), AX
	MOVQ pa1+8(FP), BX
	MOVQ pb0+16(FP), CX
	MOVQ pb1+24(FP), DX
	MOVQ pb2+32(FP), SI
	MOVQ pb3+40(FP), DI
	MOVQ k4+48(FP), R9
	MOVQ c+56(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ R9, R9
	JZ    fold

loop4:
	VMOVUPD     (AX), Y8
	VMOVUPD     (BX), Y9
	VMOVUPD     (CX), Y10
	VMOVUPD     (DX), Y11
	VMOVUPD     (SI), Y12
	VMOVUPD     (DI), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, R9
	JNZ  loop4

fold:
	DOTFOLD(Y0, Y1, Y2, Y3, Y8, Y9, Y10)
	DOTFOLD(Y4, Y5, Y6, Y7, Y11, Y12, Y13)
	VMOVUPD Y8, (R8)
	VMOVUPD Y11, 32(R8)
	VZEROUPPER
	RET

// The AxpyTo contract shared by both kernels:
//
//	dst[i] = src[i] + alpha·x[i]    for i < len(dst)
//
// one FMA per element, whatever its position: the bulk runs four vectors per
// iteration, then single vectors, and the last len%lanes elements go through
// the same instruction under a lane mask (masked-off lanes are neither loaded
// nor stored, so nothing past the slices is touched and every element rounds
// once). dst may be src: each vector is loaded before it is stored. The Go
// side has checked that the three lengths agree; only dst's is read.

// func axpyToZMM(dst, src []float64, alpha float64, x []float64)
TEXT ·axpyToZMM(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Z0
	MOVQ x_base+56(FP), DX

	CMPQ CX, $32
	JLT  z8

z32:
	VMOVUPD     (SI), Z1
	VMOVUPD     64(SI), Z2
	VMOVUPD     128(SI), Z3
	VMOVUPD     192(SI), Z4
	VFMADD231PD (DX), Z0, Z1
	VFMADD231PD 64(DX), Z0, Z2
	VFMADD231PD 128(DX), Z0, Z3
	VFMADD231PD 192(DX), Z0, Z4
	VMOVUPD     Z1, (DI)
	VMOVUPD     Z2, 64(DI)
	VMOVUPD     Z3, 128(DI)
	VMOVUPD     Z4, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DX
	ADDQ $256, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  z32

z8:
	CMPQ CX, $8
	JLT  zmask
	VMOVUPD     (SI), Z1
	VFMADD231PD (DX), Z0, Z1
	VMOVUPD     Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  z8

zmask:
	TESTQ CX, CX
	JZ    zend
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	VMOVUPD.Z   (SI), K1, Z1
	VMOVUPD.Z   (DX), K1, Z2
	VFMADD231PD Z2, Z0, Z1
	VMOVUPD     Z1, K1, (DI)

zend:
	VZEROUPPER
	RET

// func axpyToYMM(dst, src []float64, alpha float64, x []float64)
TEXT ·axpyToYMM(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Y0
	MOVQ x_base+56(FP), DX

	CMPQ CX, $16
	JLT  y4

y16:
	VMOVUPD     (SI), Y1
	VMOVUPD     32(SI), Y2
	VMOVUPD     64(SI), Y3
	VMOVUPD     96(SI), Y4
	VFMADD231PD (DX), Y0, Y1
	VFMADD231PD 32(DX), Y0, Y2
	VFMADD231PD 64(DX), Y0, Y3
	VFMADD231PD 96(DX), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  y16

y4:
	CMPQ CX, $4
	JLT  ymask
	VMOVUPD     (SI), Y1
	VFMADD231PD (DX), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  y4

ymask:
	TESTQ CX, CX
	JZ    yend
	// Lanes [0, CX) of the mask are set: the table is eight −1 words then
	// eight zeros, read from word 8−CX.
	MOVQ $8, AX
	SUBQ CX, AX
	LEAQ gemmLaneMask<>(SB), BX
	VMOVDQU     (BX)(AX*8), Y5
	VMASKMOVPD  (SI), Y5, Y1
	VMASKMOVPD  (DX), Y5, Y2
	VFMADD231PD Y2, Y0, Y1
	VMASKMOVPD  Y1, Y5, (DI)

yend:
	VZEROUPPER
	RET
