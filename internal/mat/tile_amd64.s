// The register tile of the layer-1 pair decode (see pairTiles64 in
// simd_amd64.go), one kernel per precision. Both walk W1 in panels of
// 16 quads (64 rows) and keep the eight pairs' sums in registers over
// a panel: zeroed in the first panel, loaded from the pairs' rows
// after that, and stored back once the panel's quads are in. Each quad
// loads its four W1 rows once for all eight pairs. The coefficients
// are quad-interleaved: at the start of a quad SI points at pair 0's
// four, and pair p's follow 4p values later.
//
// At float64 a pass covers one 8-lane column chunk: Z0-Z7 hold the
// sums, Z8-Z11 the chunk of the quad's rows, and each pair's quad is
// (a0*w0 + a1*w1) + (a2*w2 + a3*w3) with embedded broadcasts, then
// added to its sum, as mulAddRows4AVX512 computes it. K3 masks the
// chunk's lanes, all of them except in a partial last chunk.
//
// At float32 each multiply-add of a quad is one FMA into the pair's
// sum, as quadFMAGo computes it. Four dependent FMAs per quad would
// leave eight sums latency-bound, so a pass covers two 16-lane column
// chunks: Z0-Z7 hold the sums of the first, Z8-Z15 of the second,
// Z16-Z19 and Z20-Z23 the two chunks of the quad's rows, and one
// broadcast of each coefficient serves both chunks. K3 and K4 mask
// the two chunks' lanes, all of them except in a partial last pass.
//
// Masked lanes are never read or written, so every memory access stays
// inside the rows. Every output element sees its pair's quads in order
// with the arithmetic of the per-quad kernels, so the bits match
// theirs wherever the per-quad kernels skip no quad.

#include "textflag.h"

// TILE64_PAIR adds pair quad (a0*w0 + a1*w1) + (a2*w2 + a3*w3) to acc,
// the a's at off(SI).
#define TILE64_PAIR(off, acc) \
	VMULPD.BCST off(SI), Z8, Z12; \
	VMULPD.BCST off+8(SI), Z9, Z13; \
	VADDPD      Z13, Z12, Z12; \
	VMULPD.BCST off+16(SI), Z10, Z13; \
	VMULPD.BCST off+24(SI), Z11, Z14; \
	VADDPD      Z14, Z13, Z13; \
	VADDPD      Z13, Z12, Z12; \
	VADDPD      Z12, acc, acc

// TILE32_PAIR adds the float32 quad to both chunks of a pair's sums,
// the a's at off(SI): acc = fma(a_i, w_i, acc) for i = 0..3 in order.
#define TILE32_PAIR(off, acc, acc2) \
	VBROADCASTSS off(SI), Z24; \
	VFMADD231PS  Z24, Z16, acc; \
	VFMADD231PS  Z24, Z20, acc2; \
	VBROADCASTSS off+4(SI), Z25; \
	VFMADD231PS  Z25, Z17, acc; \
	VFMADD231PS  Z25, Z21, acc2; \
	VBROADCASTSS off+8(SI), Z26; \
	VFMADD231PS  Z26, Z18, acc; \
	VFMADD231PS  Z26, Z22, acc2; \
	VBROADCASTSS off+12(SI), Z27; \
	VFMADD231PS  Z27, Z19, acc; \
	VFMADD231PS  Z27, Z23, acc2

// TILE64_STORE stores acc to pair p's row chunk unless p is padding
// (p >= n, n in R9): the row pointers are at R8, the chunk at byte
// offset R14.
#define TILE64_STORE(p, acc, done) \
	CMPQ R9, $p; \
	JLE  done; \
	MOVQ (p*8)(R8), AX; \
	VMOVUPD acc, K3, (AX)(R14*1)

// TILE64_LOAD loads pair p's row chunk into acc.
#define TILE64_LOAD(p, acc) \
	MOVQ (p*8)(R8), AX; \
	VMOVUPD.Z (AX)(R14*1), K3, acc

// TILE32_STORE stores both chunks of pair p's sums, as TILE64_STORE.
#define TILE32_STORE(p, acc, acc2, done) \
	CMPQ R9, $p; \
	JLE  done; \
	MOVQ (p*8)(R8), AX; \
	VMOVUPS acc, K3, (AX)(R14*1); \
	VMOVUPS acc2, K4, 64(AX)(R14*1)

// TILE32_LOAD loads both chunks of pair p's sums.
#define TILE32_LOAD(p, acc, acc2) \
	MOVQ (p*8)(R8), AX; \
	VMOVUPS.Z (AX)(R14*1), K3, acc; \
	VMOVUPS.Z 64(AX)(R14*1), K4, acc2

// func pairTileAVX512(rows *[8]*float64, n int, coef, w []float64, h int)
//
// rows[p] is pair p's h-wide row (padding pairs p >= n point at a real
// row and are never stored); coef holds 32 coefficients per quad, for
// len(coef)/32 quads, and w the quads' W1 rows, h apart.
TEXT ·pairTileAVX512(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ coef_base+16(FP), R10   // R10 = the panel's first quad of coef
	MOVQ coef_len+24(FP), R13
	SHRQ $5, R13                 // R13 = quads left, this panel's included
	MOVQ w_base+40(FP), R11      // R11 = the panel's first W1 row
	MOVQ h+64(FP), CX
	MOVQ CX, DX
	SHLQ $3, DX                  // DX = W1 row stride in bytes
	LEAQ (DX)(DX*2), R12         // R12 = three rows
	ANDQ $7, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2                 // K2 = the lanes of a partial last chunk
	MOVL $0xFF, AX
	KMOVW AX, K1                 // K1 = a full chunk

t64_panel:
	XORQ R14, R14                // R14 = byte offset of the chunk

t64_chunk:
	KMOVW K1, K3
	MOVQ  DX, AX
	SUBQ  R14, AX
	CMPQ  AX, $64
	JGE   t64_init
	KMOVW K2, K3

t64_init:
	CMPQ R10, coef_base+16(FP)
	JNE  t64_reload
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP  t64_quads

t64_reload:
	TILE64_LOAD(0, Z0)
	TILE64_LOAD(1, Z1)
	TILE64_LOAD(2, Z2)
	TILE64_LOAD(3, Z3)
	TILE64_LOAD(4, Z4)
	TILE64_LOAD(5, Z5)
	TILE64_LOAD(6, Z6)
	TILE64_LOAD(7, Z7)

t64_quads:
	MOVQ    R10, SI
	LEAQ    (R11)(R14*1), DI
	MOVQ    $16, BX
	CMPQ    R13, BX
	CMOVQLT R13, BX              // BX = quads in this panel

t64_quad:
	VMOVUPD.Z (DI), K3, Z8
	VMOVUPD.Z (DI)(DX*1), K3, Z9
	VMOVUPD.Z (DI)(DX*2), K3, Z10
	VMOVUPD.Z (DI)(R12*1), K3, Z11
	TILE64_PAIR(0, Z0)
	TILE64_PAIR(32, Z1)
	TILE64_PAIR(64, Z2)
	TILE64_PAIR(96, Z3)
	TILE64_PAIR(128, Z4)
	TILE64_PAIR(160, Z5)
	TILE64_PAIR(192, Z6)
	TILE64_PAIR(224, Z7)
	ADDQ $256, SI
	LEAQ (DI)(DX*4), DI
	DECQ BX
	JNZ  t64_quad

	MOVQ    (R8), AX
	VMOVUPD Z0, K3, (AX)(R14*1)
	TILE64_STORE(1, Z1, t64_stored)
	TILE64_STORE(2, Z2, t64_stored)
	TILE64_STORE(3, Z3, t64_stored)
	TILE64_STORE(4, Z4, t64_stored)
	TILE64_STORE(5, Z5, t64_stored)
	TILE64_STORE(6, Z6, t64_stored)
	TILE64_STORE(7, Z7, t64_stored)

t64_stored:
	ADDQ $64, R14
	CMPQ R14, DX
	JLT  t64_chunk

	ADDQ $4096, R10              // 16 quads of coefficients
	MOVQ DX, AX
	SHLQ $6, AX
	ADDQ AX, R11                 // 64 rows of W1
	SUBQ $16, R13
	JGT  t64_panel
	VZEROUPPER
	RET

// func pairTileAVX512F32(rows *[8]*float32, n int, coef, w []float32, h int)
//
// pairTileAVX512 at float32: one FMA per multiply-add, two 16-lane
// chunks a pass.
TEXT ·pairTileAVX512F32(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ coef_base+16(FP), R10
	MOVQ coef_len+24(FP), R13
	SHRQ $5, R13
	MOVQ w_base+40(FP), R11
	MOVQ h+64(FP), CX
	MOVQ CX, DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R12
	ANDQ $31, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX                      // AX = the lanes of a partial last pass
	KMOVW AX, K5                 // K5 = its first chunk's
	SHRL $16, AX
	KMOVW AX, K6                 // K6 = its second chunk's
	MOVL $0xFFFF, AX
	KMOVW AX, K1

t32_panel:
	XORQ R14, R14                // R14 = byte offset of the pass's first chunk

t32_pass:
	KMOVW K1, K3
	KMOVW K1, K4
	MOVQ  DX, AX
	SUBQ  R14, AX
	CMPQ  AX, $128
	JGE   t32_init
	KMOVW K5, K3
	KMOVW K6, K4

t32_init:
	CMPQ R10, coef_base+16(FP)
	JNE  t32_reload
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	JMP  t32_quads

t32_reload:
	TILE32_LOAD(0, Z0, Z8)
	TILE32_LOAD(1, Z1, Z9)
	TILE32_LOAD(2, Z2, Z10)
	TILE32_LOAD(3, Z3, Z11)
	TILE32_LOAD(4, Z4, Z12)
	TILE32_LOAD(5, Z5, Z13)
	TILE32_LOAD(6, Z6, Z14)
	TILE32_LOAD(7, Z7, Z15)

t32_quads:
	MOVQ    R10, SI
	LEAQ    (R11)(R14*1), DI
	MOVQ    $16, BX
	CMPQ    R13, BX
	CMOVQLT R13, BX

t32_quad:
	VMOVUPS.Z (DI), K3, Z16
	VMOVUPS.Z (DI)(DX*1), K3, Z17
	VMOVUPS.Z (DI)(DX*2), K3, Z18
	VMOVUPS.Z (DI)(R12*1), K3, Z19
	VMOVUPS.Z 64(DI), K4, Z20
	VMOVUPS.Z 64(DI)(DX*1), K4, Z21
	VMOVUPS.Z 64(DI)(DX*2), K4, Z22
	VMOVUPS.Z 64(DI)(R12*1), K4, Z23
	TILE32_PAIR(0, Z0, Z8)
	TILE32_PAIR(16, Z1, Z9)
	TILE32_PAIR(32, Z2, Z10)
	TILE32_PAIR(48, Z3, Z11)
	TILE32_PAIR(64, Z4, Z12)
	TILE32_PAIR(80, Z5, Z13)
	TILE32_PAIR(96, Z6, Z14)
	TILE32_PAIR(112, Z7, Z15)
	ADDQ $128, SI
	LEAQ (DI)(DX*4), DI
	DECQ BX
	JNZ  t32_quad

	MOVQ    (R8), AX
	VMOVUPS Z0, K3, (AX)(R14*1)
	VMOVUPS Z8, K4, 64(AX)(R14*1)
	TILE32_STORE(1, Z1, Z9, t32_stored)
	TILE32_STORE(2, Z2, Z10, t32_stored)
	TILE32_STORE(3, Z3, Z11, t32_stored)
	TILE32_STORE(4, Z4, Z12, t32_stored)
	TILE32_STORE(5, Z5, Z13, t32_stored)
	TILE32_STORE(6, Z6, Z14, t32_stored)
	TILE32_STORE(7, Z7, Z15, t32_stored)

t32_stored:
	ADDQ $128, R14
	CMPQ R14, DX
	JLT  t32_pass

	ADDQ $2048, R10
	MOVQ DX, AX
	SHLQ $6, AX
	ADDQ AX, R11
	SUBQ $16, R13
	JGT  t32_panel
	VZEROUPPER
	RET

// func quadProductsAVX2(c, x, y []float64) (ok bool)
//
// The coefficients of pair p's x⊙y quads for a tile block: for each
// full quad q of x, c[32q:32q+4] = x[4q:4q+4] * y[4q:4q+4] (c starts
// at pair p's first coefficient, and quads are 32 coefficients apart).
// ok is false, and c partly written, when a quad is all zero.
TEXT ·quadProductsAVX2(SB), NOSPLIT, $0-73
	MOVQ   c_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	MOVQ   y_base+48(FP), DX
	SHRQ   $2, CX
	VXORPD Y1, Y1, Y1
	JZ     qp64_ok

qp64_loop:
	VMOVUPD   (SI), Y0
	VMULPD    (DX), Y0, Y0       // x[k:k+4] * y[k:k+4]
	VMOVUPD   Y0, (DI)
	VCMPPD    $0, Y1, Y0, Y2     // a == 0 per lane (EQ_OQ)
	VMOVMSKPD Y2, AX
	CMPL      AX, $15
	JEQ       qp64_zero
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $256, DI
	DECQ      CX
	JNZ       qp64_loop

qp64_ok:
	VZEROUPPER
	MOVB $1, ok+72(FP)
	RET

qp64_zero:
	VZEROUPPER
	MOVB $0, ok+72(FP)
	RET

// func quadProductsAVX2F32(c, x, y []float32) (ok bool)
//
// quadProductsAVX2 at float32: quads are 32 coefficients (128 bytes)
// apart.
TEXT ·quadProductsAVX2F32(SB), NOSPLIT, $0-73
	MOVQ   c_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	MOVQ   y_base+48(FP), DX
	SHRQ   $2, CX
	VXORPS X1, X1, X1
	JZ     qp32_ok

qp32_loop:
	VMOVUPS   (SI), X0
	VMULPS    (DX), X0, X0
	VMOVUPS   X0, (DI)
	VCMPPS    $0, X1, X0, X2
	VMOVMSKPS X2, AX
	CMPL      AX, $15
	JEQ       qp32_zero
	ADDQ      $16, SI
	ADDQ      $16, DX
	ADDQ      $128, DI
	DECQ      CX
	JNZ       qp32_loop

qp32_ok:
	MOVB $1, ok+72(FP)
	RET

qp32_zero:
	MOVB $0, ok+72(FP)
	RET
