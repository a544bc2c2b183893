//go:build amd64 && !noasm

#include "textflag.h"

// The CNN kernels besides the forward GEMM (drivers in cnn_amd64.go, Go
// bodies in cnn.go): the AVX-512 2×2 max-pool and its backward pass, the
// AVX-512 ReLU and its backward pass, and the filter-gradient tile at both
// widths. Every kernel ends in VZEROUPPER, and none touches memory outside
// what its arguments name: partial vectors are masked, and masked-off lanes
// are neither loaded nor stored. None writes BP.

// 2·lane: the even lanes of a pair of vectors, and each lane's offset
// within a window row pair.
DATA cnnEven<>+0(SB)/8, $0
DATA cnnEven<>+8(SB)/8, $2
DATA cnnEven<>+16(SB)/8, $4
DATA cnnEven<>+24(SB)/8, $6
DATA cnnEven<>+32(SB)/8, $8
DATA cnnEven<>+40(SB)/8, $10
DATA cnnEven<>+48(SB)/8, $12
DATA cnnEven<>+56(SB)/8, $14
GLOBL cnnEven<>(SB), RODATA|NOPTR, $64

DATA cnnOdd<>+0(SB)/8, $1
DATA cnnOdd<>+8(SB)/8, $3
DATA cnnOdd<>+16(SB)/8, $5
DATA cnnOdd<>+24(SB)/8, $7
DATA cnnOdd<>+32(SB)/8, $9
DATA cnnOdd<>+40(SB)/8, $11
DATA cnnOdd<>+48(SB)/8, $13
DATA cnnOdd<>+56(SB)/8, $15
GLOBL cnnOdd<>(SB), RODATA|NOPTR, $64

// Interleave lanes 0-3 / 4-7 of two vectors: a, b → a0 b0 a1 b1 …
DATA cnnZipLo<>+0(SB)/8, $0
DATA cnnZipLo<>+8(SB)/8, $8
DATA cnnZipLo<>+16(SB)/8, $1
DATA cnnZipLo<>+24(SB)/8, $9
DATA cnnZipLo<>+32(SB)/8, $2
DATA cnnZipLo<>+40(SB)/8, $10
DATA cnnZipLo<>+48(SB)/8, $3
DATA cnnZipLo<>+56(SB)/8, $11
GLOBL cnnZipLo<>(SB), RODATA|NOPTR, $64

DATA cnnZipHi<>+0(SB)/8, $4
DATA cnnZipHi<>+8(SB)/8, $12
DATA cnnZipHi<>+16(SB)/8, $5
DATA cnnZipHi<>+24(SB)/8, $13
DATA cnnZipHi<>+32(SB)/8, $6
DATA cnnZipHi<>+40(SB)/8, $14
DATA cnnZipHi<>+48(SB)/8, $7
DATA cnnZipHi<>+56(SB)/8, $15
GLOBL cnnZipHi<>(SB), RODATA|NOPTR, $64

// AVX2 lane masks: the 4 quadwords from index 8−c are all-ones exactly in
// lanes < c, for c ≤ 8.
DATA cnnLaneMask<>+0(SB)/8, $-1
DATA cnnLaneMask<>+8(SB)/8, $-1
DATA cnnLaneMask<>+16(SB)/8, $-1
DATA cnnLaneMask<>+24(SB)/8, $-1
DATA cnnLaneMask<>+32(SB)/8, $-1
DATA cnnLaneMask<>+40(SB)/8, $-1
DATA cnnLaneMask<>+48(SB)/8, $-1
DATA cnnLaneMask<>+56(SB)/8, $-1
DATA cnnLaneMask<>+64(SB)/8, $0
DATA cnnLaneMask<>+72(SB)/8, $0
DATA cnnLaneMask<>+80(SB)/8, $0
DATA cnnLaneMask<>+88(SB)/8, $0
DATA cnnLaneMask<>+96(SB)/8, $0
DATA cnnLaneMask<>+104(SB)/8, $0
DATA cnnLaneMask<>+112(SB)/8, $0
DATA cnnLaneMask<>+120(SB)/8, $0
GLOBL cnnLaneMask<>(SB), RODATA|NOPTR, $128

// CNT8MASK sets k to the lowest c bits, c = min(8, outW − R9) the outputs
// left in the row, and k2/k3 to the lowest 2c bits split into the two
// 8-lane halves: the window pairs' input lanes. Clobbers AX, CX.
#define CNT8MASK(k, k2, k3) \
	MOVQ  outW+40(FP), CX; \
	SUBQ  R9, CX; \
	MOVQ  $8, AX; \
	CMPQ  CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, k; \
	ADDQ  CX, CX; \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, k2; \
	SHRQ  $8, AX; \
	KMOVW AX, k3

// func poolZMM(out *float64, argmax *int, in *float64, planes, outH, outW, rs, h int)
//
// MaxPool2x2 over planes h×w planes (outH = h/2, outW = w/2), rows rs
// apart: eight windows per step. The two rows' 16 inputs are split into
// the windows' four corners by VPERMT2PD, and the max builtin is rebuilt
// lane for lane from the instructions the Go compiler emits for it —
// max(x, y) = −min(−x, −y), min(x, y) = MINSD(MINSD(x, y), x) | MINSD(x, y)
// — so the value is the same bits, NaN payloads and the sign of a zero
// included. Working on the negated corners, the chain needs one negation
// at the end. The winner's offset, 0, 1, rs or rs+1, is selected by the
// three ordered compares of the Go body, done as < on the negated values.
TEXT ·poolZMM(SB), NOSPLIT, $0-64
	MOVQ $0x8000000000000000, AX
	VPBROADCASTQ AX, Z31
	MOVQ $1, AX
	VPBROADCASTQ AX, Z28
	MOVQ rs+48(FP), AX
	VPBROADCASTQ AX, Z27
	VMOVDQU64 cnnEven<>(SB), Z30
	VMOVDQU64 cnnOdd<>(SB), Z29

	MOVQ out+0(FP), DI
	MOVQ argmax+8(FP), R8
	MOVQ rs+48(FP), DX
	SHLQ $3, DX
	MOVQ planes+24(FP), R14
	XORQ R13, R13

fplane:
	MOVQ R13, R12
	MOVQ outH+32(FP), BX

frow:
	// Row pair at element i0 = R12: SI, R11 point at its two rows.
	MOVQ in+16(FP), SI
	LEAQ (SI)(R12*8), SI
	LEAQ (SI)(DX*1), R11
	XORQ R9, R9
	XORQ R10, R10

fchunk:
	CNT8MASK(K1, K2, K3)
	VMOVUPD.Z (SI)(R10*8), K2, Z0
	VMOVUPD.Z 64(SI)(R10*8), K3, Z1
	VMOVUPD.Z (R11)(R10*8), K2, Z2
	VMOVUPD.Z 64(R11)(R10*8), K3, Z3
	VPXORQ Z31, Z0, Z0
	VPXORQ Z31, Z1, Z1
	VPXORQ Z31, Z2, Z2
	VPXORQ Z31, Z3, Z3
	VMOVAPD Z0, Z4
	VPERMT2PD Z1, Z30, Z0 // −v0
	VPERMT2PD Z1, Z29, Z4 // −v1
	VMOVAPD Z2, Z5
	VPERMT2PD Z3, Z30, Z2 // −v2
	VPERMT2PD Z3, Z29, Z5 // −v3

	// −m01 = min(−v0, −v1), −m23 = min(−v2, −v3), −o = min(−m01, −m23).
	VMINPD Z4, Z0, Z6
	VMINPD Z0, Z6, Z7
	VPORQ  Z7, Z6, Z6
	VMINPD Z5, Z2, Z8
	VMINPD Z2, Z8, Z9
	VPORQ  Z9, Z8, Z8
	VMINPD Z8, Z6, Z10
	VMINPD Z6, Z10, Z11
	VPORQ  Z11, Z10, Z10
	VPXORQ Z31, Z10, Z10

	// v1 > v0, v3 > v2, m23 > m01 (LT_OQ on the negations: false on NaN).
	VCMPPD $0x11, Z0, Z4, K4
	VCMPPD $0x11, Z2, Z5, K5
	VCMPPD $0x11, Z6, Z8, K6

	LEAQ (R12)(R10*1), AX
	VPBROADCASTQ AX, Z12
	VPADDQ Z30, Z12, Z12         // i0 + 2·ox
	VMOVDQA64.Z Z28, K4, Z13     // d01 = v1 > v0
	VMOVDQA64 Z27, Z14
	VPADDQ Z28, Z27, K5, Z14     // d23 = rs + (v3 > v2)
	VMOVDQA64 Z14, K6, Z13       // m23 > m01 ? d23 : d01
	VPADDQ Z13, Z12, Z12

	VMOVUPD Z10, K1, (DI)(R9*8)
	VMOVDQU64 Z12, K1, (R8)(R9*8)
	ADDQ $8, R9
	ADDQ $16, R10
	CMPQ R9, outW+40(FP)
	JLT  fchunk

	MOVQ outW+40(FP), AX
	LEAQ (DI)(AX*8), DI
	LEAQ (R8)(AX*8), R8
	MOVQ rs+48(FP), AX
	LEAQ (R12)(AX*2), R12
	DECQ BX
	JNZ  frow

	MOVQ h+56(FP), AX
	IMULQ rs+48(FP), AX
	ADDQ AX, R13
	DECQ R14
	JNZ  fplane
	VZEROUPPER
	RET

// func poolBackZMM(dIn, dOut *float64, argmax *int, planes, outH, outW, rs, h int)
//
// MaxPool2x2Backward, dense: every element of every plane is written once.
// Eight windows per step: the gradient g + 0 (the Go body's 0 + g, so −0
// becomes +0) goes to the corner whose offset from the window's (0,0) its
// winner names, +0 to the other three, and the corners are interleaved back
// into the two rows by VPERMT2PD. The columns past 2·outW of both rows, and
// after a plane's last row pair the odd row the pool does not read, are
// zeroed in the same pass.
TEXT ·poolBackZMM(SB), NOSPLIT, $0-64
	VPXORQ Z31, Z31, Z31
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ rs+48(FP), AX
	VPBROADCASTQ AX, Z27
	INCQ AX
	VPBROADCASTQ AX, Z26
	VMOVDQU64 cnnEven<>(SB), Z30
	VMOVDQU64 cnnZipLo<>(SB), Z29
	VMOVDQU64 cnnZipHi<>(SB), Z28

	MOVQ dOut+8(FP), DI
	MOVQ argmax+16(FP), R8
	MOVQ rs+48(FP), DX
	SHLQ $3, DX
	MOVQ planes+24(FP), R14
	XORQ R13, R13

bplane:
	MOVQ R13, R12
	MOVQ outH+32(FP), BX

brow:
	MOVQ dIn+0(FP), SI
	LEAQ (SI)(R12*8), SI
	LEAQ (SI)(DX*1), R11
	XORQ R9, R9
	XORQ R10, R10

bchunk:
	CNT8MASK(K1, K2, K3)
	VMOVUPD.Z (DI)(R9*8), K1, Z0
	VADDPD Z0, Z31, Z0
	VMOVDQU64.Z (R8)(R9*8), K1, Z1
	LEAQ (R12)(R10*1), AX
	VPBROADCASTQ AX, Z2
	VPADDQ Z30, Z2, Z2
	VPSUBQ Z2, Z1, Z1            // winner − window origin; < 0 past cnt
	VPCMPEQQ Z31, Z1, K4
	VPCMPEQQ Z25, Z1, K5
	VPCMPEQQ Z27, Z1, K6
	VPCMPEQQ Z26, Z1, K7
	VMOVAPD.Z Z0, K4, Z3
	VMOVAPD.Z Z0, K5, Z4
	VMOVAPD.Z Z0, K6, Z5
	VMOVAPD.Z Z0, K7, Z6
	VMOVAPD Z3, Z7
	VPERMT2PD Z4, Z29, Z3
	VPERMT2PD Z4, Z28, Z7
	VMOVAPD Z5, Z8
	VPERMT2PD Z6, Z29, Z5
	VPERMT2PD Z6, Z28, Z8
	VMOVUPD Z3, K2, (SI)(R10*8)
	VMOVUPD Z7, K3, 64(SI)(R10*8)
	VMOVUPD Z5, K2, (R11)(R10*8)
	VMOVUPD Z8, K3, 64(R11)(R10*8)
	ADDQ $8, R9
	ADDQ $16, R10
	CMPQ R9, outW+40(FP)
	JLT  bchunk

	// Zero [2·outW, rs) of the first row (SI, R9 elements) and of the
	// second (R11, R10 elements), the second run extended over the rows
	// the pool skips when this is the plane's last pair.
	MOVQ outW+40(FP), AX
	SHLQ $4, AX
	ADDQ AX, SI
	ADDQ AX, R11
	MOVQ rs+48(FP), R9
	SUBQ outW+40(FP), R9
	SUBQ outW+40(FP), R9
	MOVQ R9, R10
	CMPQ BX, $1
	JNE  bz0
	MOVQ h+56(FP), AX
	SUBQ outH+32(FP), AX
	SUBQ outH+32(FP), AX
	IMULQ rs+48(FP), AX
	ADDQ AX, R10

bz0:
	CMPQ R9, $8
	JLT  bz0m
	VMOVUPD Z31, (SI)
	ADDQ $64, SI
	SUBQ $8, R9
	JMP  bz0

bz0m:
	MOVQ R9, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPD Z31, K1, (SI)

bz1:
	CMPQ R10, $8
	JLT  bz1m
	VMOVUPD Z31, (R11)
	ADDQ $64, R11
	SUBQ $8, R10
	JMP  bz1

bz1m:
	MOVQ R10, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPD Z31, K1, (R11)

	MOVQ outW+40(FP), AX
	LEAQ (DI)(AX*8), DI
	LEAQ (R8)(AX*8), R8
	MOVQ rs+48(FP), AX
	LEAQ (R12)(AX*2), R12
	DECQ BX
	JNZ  brow

	MOVQ h+56(FP), AX
	IMULQ rs+48(FP), AX
	ADDQ AX, R13
	DECQ R14
	JNZ  bplane
	VZEROUPPER
	RET

// func reluZMM(out, in []float64)
//
// ReLU: each value AND NOT its sign-extended sign bit (VPSRAQ $63), four
// vectors per step, then single vectors, then a masked tail.
#define RELU(z) \
	VPSRAQ  $63, z, Z8; \
	VPANDNQ z, Z8, z

TEXT ·reluZMM(SB), NOSPLIT, $0-48
	MOVQ out_base+0(FP), DI
	MOVQ in_base+24(FP), SI
	MOVQ in_len+32(FP), CX

r32:
	CMPQ CX, $32
	JLT  r8
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	RELU(Z0)
	RELU(Z1)
	RELU(Z2)
	RELU(Z3)
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, CX
	JMP  r32

r8:
	CMPQ CX, $8
	JLT  rtail
	VMOVDQU64 (SI), Z0
	RELU(Z0)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  r8

rtail:
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVDQU64.Z (SI), K1, Z0
	RELU(Z0)
	VMOVDQU64 Z0, K1, (DI)
	VZEROUPPER
	RET

// func reluBackZMM(dIn, in, dOut []float64)
//
// ReLU's backward: dOut where in > 0 as a signed integer (VPCMPGTQ against
// zero; the sign bit clear and another bit set), +0 elsewhere, by a
// zero-masked load of dOut.
TEXT ·reluBackZMM(SB), NOSPLIT, $0-72
	MOVQ dIn_base+0(FP), DI
	MOVQ in_base+24(FP), SI
	MOVQ in_len+32(FP), CX
	MOVQ dOut_base+48(FP), DX
	VPXORQ Z31, Z31, Z31

b32:
	CMPQ CX, $32
	JLT  b8
	VMOVDQU64 (SI), Z4
	VMOVDQU64 64(SI), Z5
	VMOVDQU64 128(SI), Z6
	VMOVDQU64 192(SI), Z7
	VPCMPGTQ Z31, Z4, K2
	VPCMPGTQ Z31, Z5, K3
	VPCMPGTQ Z31, Z6, K4
	VPCMPGTQ Z31, Z7, K5
	VMOVDQU64.Z (DX), K2, Z0
	VMOVDQU64.Z 64(DX), K3, Z1
	VMOVDQU64.Z 128(DX), K4, Z2
	VMOVDQU64.Z 192(DX), K5, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DX
	ADDQ $256, DI
	SUBQ $32, CX
	JMP  b32

b8:
	CMPQ CX, $8
	JLT  btail
	VMOVDQU64 (SI), Z4
	VPCMPGTQ Z31, Z4, K2
	VMOVDQU64.Z (DX), K2, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  b8

btail:
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVDQU64.Z (SI), K1, Z1
	VPCMPGTQ Z31, Z1, K1, K2
	VMOVDQU64.Z (DX), K2, Z0
	VMOVDQU64 Z0, K1, (DI)
	VZEROUPPER
	RET

// The filter-gradient tile contract shared by both widths:
//
//	park[t][r][c][:] += lanes-wide partials of Σ_{j<n} A_r[j]·x[off[q]+j]
//
// for every run tile t (runs q = t·MQ + c, c < MQ) of the nq runs, r < MF.
// A_r is the row at a + r·lda (rows ≥ mf re-read row 0) and a tile's runs
// past nq re-read the last run; their slots are the driver's to ignore.
// Lane l of a slot gathers the terms with j ≡ l mod lanes, the tail's
// included, so nothing is folded here: the driver folds once per batch.

// func runsTileZMM(park, a *float64, lda uintptr, mf int, x *float64, off *int, nq, n int)
//
// MF×MQ = 4×3: Z0..Z11 hold slot (r, c) in Z(3r+c), Z12..Z15 the four rows'
// chunk, Z16..Z18 the three runs'. Per 8 columns: 7 loads, 12 FMAs.
#define RG4(za, s0, s1, s2) \
	VFMADD231PD Z16, za, s0; \
	VFMADD231PD Z17, za, s1; \
	VFMADD231PD Z18, za, s2

TEXT ·runsTileZMM(SB), NOSPLIT, $0-64
	MOVQ n+56(FP), CX
	ANDQ $7, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1

	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ mf+24(FP), SI
	LEAQ (AX)(R8*1), BX
	LEAQ (BX)(R8*1), CX
	LEAQ (CX)(R8*1), DX
	CMPQ SI, $2
	CMOVQLT AX, BX
	CMPQ SI, $3
	CMOVQLT AX, CX
	CMPQ SI, $4
	CMOVQLT AX, DX

	MOVQ park+0(FP), DI
	MOVQ off+40(FP), R14
	XORQ R13, R13

ztile:
	// Runs q0, q0+1, q0+2, clamped to nq−1, at R10, R11, R12.
	MOVQ nq+48(FP), SI
	DECQ SI
	MOVQ x+32(FP), R8
	MOVQ (R14)(R13*8), R10
	LEAQ (R8)(R10*8), R10
	LEAQ 1(R13), R9
	CMPQ R9, SI
	CMOVQGT SI, R9
	MOVQ (R14)(R9*8), R11
	LEAQ (R8)(R11*8), R11
	LEAQ 2(R13), R9
	CMPQ R9, SI
	CMOVQGT SI, R9
	MOVQ (R14)(R9*8), R12
	LEAQ (R8)(R12*8), R12

	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	VMOVUPD 512(DI), Z8
	VMOVUPD 576(DI), Z9
	VMOVUPD 640(DI), Z10
	VMOVUPD 704(DI), Z11

	MOVQ n+56(FP), SI
	SUBQ $8, SI
	XORQ R9, R9

zj:
	CMPQ R9, SI
	JGT  zjtail
	VMOVUPD (R10)(R9*8), Z16
	VMOVUPD (R11)(R9*8), Z17
	VMOVUPD (R12)(R9*8), Z18
	VMOVUPD (AX)(R9*8), Z12
	VMOVUPD (BX)(R9*8), Z13
	VMOVUPD (CX)(R9*8), Z14
	VMOVUPD (DX)(R9*8), Z15
	RG4(Z12, Z0, Z1, Z2)
	RG4(Z13, Z3, Z4, Z5)
	RG4(Z14, Z6, Z7, Z8)
	RG4(Z15, Z9, Z10, Z11)
	ADDQ $8, R9
	JMP  zj

zjtail:
	KORTESTW K1, K1
	JZ   zjdone
	VMOVUPD.Z (R10)(R9*8), K1, Z16
	VMOVUPD.Z (R11)(R9*8), K1, Z17
	VMOVUPD.Z (R12)(R9*8), K1, Z18
	VMOVUPD.Z (AX)(R9*8), K1, Z12
	VMOVUPD.Z (BX)(R9*8), K1, Z13
	VMOVUPD.Z (CX)(R9*8), K1, Z14
	VMOVUPD.Z (DX)(R9*8), K1, Z15
	RG4(Z12, Z0, Z1, Z2)
	RG4(Z13, Z3, Z4, Z5)
	RG4(Z14, Z6, Z7, Z8)
	RG4(Z15, Z9, Z10, Z11)

zjdone:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	ADDQ $768, DI
	ADDQ $3, R13
	CMPQ R13, nq+48(FP)
	JLT  ztile
	VZEROUPPER
	RET

// func runsTileYMM(park, a *float64, lda uintptr, mf int, x *float64, off *int, nq, n int)
//
// MF×MQ = 4×2: Y0..Y7 hold slot (r, c) in Y(2r+c), Y8/Y9 the two runs'
// chunk, Y10 a row's, Y11 the tail's lane mask (VMASKMOVPD neither reads
// nor faults on masked lanes). Per 4 columns: 6 loads, 8 FMAs.
#define RG2(src, s0, s1) \
	VMOVUPD     src, Y10; \
	VFMADD231PD Y8, Y10, s0; \
	VFMADD231PD Y9, Y10, s1

#define RG2M(src, s0, s1) \
	VMASKMOVPD  src, Y11, Y10; \
	VFMADD231PD Y8, Y10, s0; \
	VFMADD231PD Y9, Y10, s1

TEXT ·runsTileYMM(SB), NOSPLIT, $0-64
	MOVQ n+56(FP), CX
	ANDQ $3, CX
	MOVQ $8, AX
	SUBQ CX, AX
	LEAQ cnnLaneMask<>(SB), R8
	VMOVDQU (R8)(AX*8), Y11

	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ mf+24(FP), SI
	LEAQ (AX)(R8*1), BX
	LEAQ (BX)(R8*1), CX
	LEAQ (CX)(R8*1), DX
	CMPQ SI, $2
	CMOVQLT AX, BX
	CMPQ SI, $3
	CMOVQLT AX, CX
	CMPQ SI, $4
	CMOVQLT AX, DX

	MOVQ park+0(FP), DI
	MOVQ off+40(FP), R14
	XORQ R13, R13

ytile:
	MOVQ nq+48(FP), SI
	DECQ SI
	MOVQ x+32(FP), R8
	MOVQ (R14)(R13*8), R10
	LEAQ (R8)(R10*8), R10
	LEAQ 1(R13), R9
	CMPQ R9, SI
	CMOVQGT SI, R9
	MOVQ (R14)(R9*8), R11
	LEAQ (R8)(R11*8), R11

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

	MOVQ n+56(FP), SI
	SUBQ $4, SI
	XORQ R9, R9

yj:
	CMPQ R9, SI
	JGT  yjtail
	VMOVUPD (R10)(R9*8), Y8
	VMOVUPD (R11)(R9*8), Y9
	RG2((AX)(R9*8), Y0, Y1)
	RG2((BX)(R9*8), Y2, Y3)
	RG2((CX)(R9*8), Y4, Y5)
	RG2((DX)(R9*8), Y6, Y7)
	ADDQ $4, R9
	JMP  yj

yjtail:
	MOVQ n+56(FP), R12
	ANDQ $3, R12
	JZ   yjdone
	VMASKMOVPD (R10)(R9*8), Y11, Y8
	VMASKMOVPD (R11)(R9*8), Y11, Y9
	RG2M((AX)(R9*8), Y0, Y1)
	RG2M((BX)(R9*8), Y2, Y3)
	RG2M((CX)(R9*8), Y4, Y5)
	RG2M((DX)(R9*8), Y6, Y7)

yjdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $2, R13
	CMPQ R13, nq+48(FP)
	JLT  ytile
	VZEROUPPER
	RET
