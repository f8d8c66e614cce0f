// AVX2/AVX-512 micro-kernels for the dense matmul inner loops. Each
// function mirrors its *Go reference in simd.go exactly: vector lanes
// are independent output elements (or, for dot4, exactly the scalar
// code's four interleaved accumulators), and scalar tails replicate
// the same operation grouping. Multiplies and adds are separate
// instructions except in the float32 pair-decode kernels, whose FMAs
// into the running sum quadFMAGo reproduces step for step with an
// exactly rounded fma32. Results are bitwise identical to the Go
// fallback for every input.

#include "textflag.h"

// func cpuSupportsAVX2() bool
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  cpu_no

	// XGETBV(0): OS must have enabled XMM (bit 1) and YMM (bit 2)
	// state saving.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  cpu_no

	// CPUID leaf 7, subleaf 0: EBX bit 5 = AVX2.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    cpu_no

	MOVB $1, ret+0(FP)
	RET

cpu_no:
	MOVB $0, ret+0(FP)
	RET

// func cpuSupportsFMA() bool
TEXT ·cpuSupportsFMA(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 12 = FMA.
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $12, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

// func mulAddRows4AVX2(dst, b4 []float64, a0, a1, a2, a3 float64)
//
// dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j]) with the
// four b-rows of length len(dst) stored back to back in b4.
TEXT ·mulAddRows4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ CX, DX
	SHLQ $3, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = start of row 2

	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3

	CMPQ CX, $4
	JL   mar4_tail_start

mar4_loop:
	VMOVUPD (DI), Y4
	VMULPD  Y4, Y0, Y4       // a0*b0
	VMOVUPD (DI)(DX*1), Y5
	VMULPD  Y5, Y1, Y5       // a1*b1
	VADDPD  Y5, Y4, Y4       // a0*b0 + a1*b1
	VMOVUPD (R9), Y6
	VMULPD  Y6, Y2, Y6       // a2*b2
	VMOVUPD (R9)(DX*1), Y7
	VMULPD  Y7, Y3, Y7       // a3*b3
	VADDPD  Y7, Y6, Y6       // a2*b2 + a3*b3
	VADDPD  Y6, Y4, Y4       // (low) + (high)
	VMOVUPD (SI), Y8
	VADDPD  Y4, Y8, Y8       // dst += sum
	VMOVUPD Y8, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     mar4_loop

mar4_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar4_done

mar4_tail:
	MOVSD (DI), X4
	MULSD X0, X4
	MOVSD (DI)(DX*1), X5
	MULSD X1, X5
	ADDSD X5, X4
	MOVSD (R9), X6
	MULSD X2, X6
	MOVSD (R9)(DX*1), X7
	MULSD X3, X7
	ADDSD X7, X6
	ADDSD X6, X4
	MOVSD (SI), X8
	ADDSD X4, X8
	MOVSD X8, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R9
	DECQ  CX
	JNZ   mar4_tail

mar4_done:
	RET

// func mulAddRow1AVX2(dst, b []float64, a float64)
//
// dst[j] += a*b[j].
TEXT ·mulAddRow1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VBROADCASTSD a+48(FP), Y0

	CMPQ CX, $4
	JL   mar1_tail_start

mar1_loop:
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (SI), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     mar1_loop

mar1_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar1_done

mar1_tail:
	MOVSD (DI), X1
	MULSD X0, X1
	MOVSD (SI), X2
	ADDSD X1, X2
	MOVSD X2, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   mar1_tail

mar1_done:
	RET

// func dot4AVX2(a, b []float64) float64
//
// Four-accumulator dot product: vector lane i accumulates exactly the
// scalar reference's s_i; the tail adds into s0 before the final
// (s0+s1)+(s2+s3) combine, as in dot4Go.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VXORPD Y0, Y0, Y0        // [s0, s1, s2, s3]

	CMPQ CX, $4
	JL   dot4_reduce

dot4_loop:
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VMULPD  Y2, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     dot4_loop

dot4_reduce:
	VEXTRACTF128 $1, Y0, X1  // X1 = [s2, s3]; X0 = [s0, s1]
	VZEROUPPER
	TESTQ        CX, CX
	JZ           dot4_combine

dot4_tail:
	MOVSD (SI), X4
	MOVSD (DI), X5
	MULSD X5, X4
	ADDSD X4, X0             // s0 += a[k]*b[k]
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   dot4_tail

dot4_combine:
	MOVAPD   X0, X2
	UNPCKHPD X0, X2          // X2 lane0 = s1
	ADDSD    X2, X0          // s0 + s1
	MOVAPD   X1, X3
	UNPCKHPD X1, X3          // X3 lane0 = s3
	ADDSD    X3, X1          // s2 + s3
	ADDSD    X1, X0          // (s0+s1) + (s2+s3)
	MOVSD    X0, ret+48(FP)
	RET

// func hadamardIntoAVX2(dst, a, b []float64)
//
// dst[i] = a[i]*b[i].
TEXT ·hadamardIntoAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DI

	CMPQ CX, $4
	JL   had_tail_start

had_loop:
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VMULPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     had_loop

had_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    had_done

had_tail:
	MOVSD (SI), X1
	MOVSD (DI), X2
	MULSD X2, X1
	MOVSD X1, (R8)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R8
	DECQ  CX
	JNZ   had_tail

had_done:
	RET

// func cpuSupportsAVX512() bool
TEXT ·cpuSupportsAVX512(SB), NOSPLIT, $0-1
	// OSXSAVE + AVX as for AVX2.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  cpu512_no

	// XCR0: XMM+YMM (bits 1-2) and opmask+ZMM state (bits 5-7).
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  cpu512_no

	// CPUID leaf 7, subleaf 0: EBX bit 16 = AVX512F.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x10000, BX
	JZ    cpu512_no

	MOVB $1, ret+0(FP)
	RET

cpu512_no:
	MOVB $0, ret+0(FP)
	RET

// func mulAddRows4AVX512(dst, b4 []float64, a0, a1, a2, a3 float64)
//
// The 512-bit flavor of mulAddRows4: 8 lanes per step, then the
// 4-lane step, then the scalar tail — every output element sees the
// identical multiply/add sequence regardless of which step handles
// it, so the result matches the scalar reference bit for bit.
TEXT ·mulAddRows4AVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ CX, DX
	SHLQ $3, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = start of row 2

	VBROADCASTSD a0+48(FP), Z0
	VBROADCASTSD a1+56(FP), Z1
	VBROADCASTSD a2+64(FP), Z2
	VBROADCASTSD a3+72(FP), Z3

	CMPQ CX, $8
	JL   m512_quad_start

m512_loop:
	VMOVUPD (DI), Z4
	VMULPD  Z4, Z0, Z4       // a0*b0
	VMOVUPD (DI)(DX*1), Z5
	VMULPD  Z5, Z1, Z5       // a1*b1
	VADDPD  Z5, Z4, Z4       // a0*b0 + a1*b1
	VMOVUPD (R9), Z6
	VMULPD  Z6, Z2, Z6       // a2*b2
	VMOVUPD (R9)(DX*1), Z7
	VMULPD  Z7, Z3, Z7       // a3*b3
	VADDPD  Z7, Z6, Z6       // a2*b2 + a3*b3
	VADDPD  Z6, Z4, Z4       // (low) + (high)
	VMOVUPD (SI), Z8
	VADDPD  Z4, Z8, Z8       // dst += sum
	VMOVUPD Z8, (SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R9
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     m512_loop

m512_quad_start:
	CMPQ CX, $4
	JL   m512_tail_start

	// One 4-lane step (the Y registers alias the Z broadcasts).
	VMOVUPD (DI), Y4
	VMULPD  Y4, Y0, Y4
	VMOVUPD (DI)(DX*1), Y5
	VMULPD  Y5, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9), Y6
	VMULPD  Y6, Y2, Y6
	VMOVUPD (R9)(DX*1), Y7
	VMULPD  Y7, Y3, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD (SI), Y8
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y8, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, CX

m512_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    m512_done

m512_tail:
	MOVSD (DI), X4
	MULSD X0, X4
	MOVSD (DI)(DX*1), X5
	MULSD X1, X5
	ADDSD X5, X4
	MOVSD (R9), X6
	MULSD X2, X6
	MOVSD (R9)(DX*1), X7
	MULSD X3, X7
	ADDSD X7, X6
	ADDSD X6, X4
	MOVSD (SI), X8
	ADDSD X4, X8
	MOVSD X8, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R9
	DECQ  CX
	JNZ   m512_tail

m512_done:
	RET

// func addBiasLeakyAVX2(dst, bias []float64, slope float64)
//
// dst[i] = v > 0 ? v : slope*v, with v = dst[i] + bias[i]. The blend
// selects the exact scalar-formula result per lane (including signed
// zeros and NaNs), so this matches addBiasLeakyGo bit for bit.
TEXT ·addBiasLeakyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ bias_base+24(FP), DI

	VBROADCASTSD slope+48(FP), Y0
	VXORPD       Y1, Y1, Y1  // zero

	CMPQ CX, $4
	JL   abl_tail_start

abl_loop:
	VMOVUPD   (SI), Y2
	VMOVUPD   (DI), Y3
	VADDPD    Y3, Y2, Y2     // v = dst + bias
	VMULPD    Y2, Y0, Y3     // slope*v
	VCMPPD    $0x1E, Y1, Y2, Y4 // v > 0 (GT_OQ)
	VBLENDVPD Y4, Y2, Y3, Y2 // v > 0 ? v : slope*v
	VMOVUPD   Y2, (SI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	CMPQ      CX, $4
	JGE       abl_loop

abl_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    abl_done

abl_tail:
	MOVSD  (SI), X2
	MOVSD  (DI), X3
	ADDSD  X3, X2            // v
	MOVAPD X2, X3
	MULSD  X0, X3            // slope*v
	XORPS  X4, X4
	UCOMISD X4, X2           // compare v with 0
	JA     abl_keep
	MOVAPD X3, X2
abl_keep:
	MOVSD X2, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   abl_tail

abl_done:
	RET

// ---------------------------------------------------------------------
// float32 kernels — the serving engine's quantized twins. Lanes are
// independent output elements or dot8's exact interleaved
// accumulators, scalar tails replicate the vector grouping, 8 float32
// lanes per ymm (16 per zmm). Bitwise identical to the float32 *Go
// references in simd.go for every input.

// func mulAddRow1AVX2F32(dst, b []float32, a float32)
//
// dst[j] += a*b[j].
TEXT ·mulAddRow1AVX2F32(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VBROADCASTSS a+48(FP), Y0

	CMPQ CX, $8
	JL   mar1f_tail_start

mar1f_loop:
	VMOVUPS (DI), Y1
	VMULPS  Y1, Y0, Y1
	VMOVUPS (SI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     mar1f_loop

mar1f_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar1f_done

mar1f_tail:
	MOVSS (DI), X1
	MULSS X0, X1
	MOVSS (SI), X2
	ADDSS X1, X2
	MOVSS X2, (SI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   mar1f_tail

mar1f_done:
	RET

// func dot8AVX2F32(a, b []float32) float32
//
// Eight-accumulator dot product: vector lane i accumulates exactly the
// scalar reference's s_i; the tail adds into s0 before the final
// ((s0+s2)+(s1+s3)) + ((s4+s6)+(s5+s7)) combine, as in dot8Go32.
TEXT ·dot8AVX2F32(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VXORPS Y0, Y0, Y0        // [s0..s7]

	CMPQ CX, $8
	JL   dot8f_reduce

dot8f_loop:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	VMULPS  Y2, Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     dot8f_loop

dot8f_reduce:
	VEXTRACTF128 $1, Y0, X1  // X1 = [s4..s7]; X0 = [s0..s3]
	VZEROUPPER
	TESTQ        CX, CX
	JZ           dot8f_combine

dot8f_tail:
	MOVSS (SI), X4
	MOVSS (DI), X5
	MULSS X5, X4
	ADDSS X4, X0             // s0 += a[k]*b[k]
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   dot8f_tail

dot8f_combine:
	MOVAPS  X0, X2
	MOVHLPS X0, X2           // X2 = [s2, s3]
	ADDPS   X2, X0           // X0 = [s0+s2, s1+s3, ..]
	MOVAPS  X0, X3
	SHUFPS  $0x55, X3, X3    // X3 lane0 = s1+s3
	ADDSS   X3, X0           // (s0+s2) + (s1+s3)
	MOVAPS  X1, X4
	MOVHLPS X1, X4           // X4 = [s6, s7]
	ADDPS   X4, X1           // X1 = [s4+s6, s5+s7, ..]
	MOVAPS  X1, X5
	SHUFPS  $0x55, X5, X5    // X5 lane0 = s5+s7
	ADDSS   X5, X1           // (s4+s6) + (s5+s7)
	ADDSS   X1, X0           // low + high
	MOVSS   X0, ret+48(FP)
	RET

// func addBiasLeakyAVX2F32(dst, bias []float32, slope float32)
//
// dst[i] = v > 0 ? v : slope*v, with v = dst[i] + bias[i]. The blend
// selects the exact scalar-formula result per lane (including signed
// zeros and NaNs), so this matches addBiasLeakyGo[float32] bit for bit.
TEXT ·addBiasLeakyAVX2F32(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ bias_base+24(FP), DI

	VBROADCASTSS slope+48(FP), Y0
	VXORPS       Y1, Y1, Y1  // zero

	CMPQ CX, $8
	JL   ablf_tail_start

ablf_loop:
	VMOVUPS   (SI), Y2
	VMOVUPS   (DI), Y3
	VADDPS    Y3, Y2, Y2     // v = dst + bias
	VMULPS    Y2, Y0, Y3     // slope*v
	VCMPPS    $0x1E, Y1, Y2, Y4 // v > 0 (GT_OQ)
	VBLENDVPS Y4, Y2, Y3, Y2 // v > 0 ? v : slope*v
	VMOVUPS   Y2, (SI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       ablf_loop

ablf_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    ablf_done

ablf_tail:
	MOVSS  (SI), X2
	MOVSS  (DI), X3
	ADDSS  X3, X2            // v
	MOVAPS X2, X3
	MULSS  X0, X3            // slope*v
	XORPS  X4, X4
	UCOMISS X4, X2           // compare v with 0
	JA     ablf_keep
	MOVAPS X3, X2
ablf_keep:
	MOVSS X2, (SI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   ablf_tail

ablf_done:
	RET

// func pairQuadsAVX2F32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32)
//
// pairQuadsGo with quadFMAGo in one call: for each quad k (outermost)
// and each pair i, a = x[k:k+4] ⊙ ys[i][k:k+4] is formed in a register
// (lane 3 = ts[i] when the quad is the last one and len(x) % 4 == 3),
// all-zero quads are skipped, and every element of dst[i] gets
// dst = fma(a0,w0,dst), then fma(a1,w1,dst), fma(a2,w2,dst) and
// fma(a3,w3,dst) — 8 lanes a step, then scalar; needs FMA. Requires
// len(dst) == len(ys) == len(ts) >= 1, every dst row len(dst[0])
// wide, every ys row len(x) long, and len(x)+1 rows in w.
TEXT ·pairQuadsAVX2F32(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), DX
	MOVQ 8(R8), R13
	SHLQ $2, R13
	MOVQ ys_base+48(FP), R9
	MOVQ ts_base+72(FP), R10
	MOVQ w_base+96(FP), R12
	XORQ R11, R11
	VXORPS X9, X9, X9
	MOVQ x_len+32(FP), R14
	SHRQ $2, R14
	TESTQ R14, R14
	JZ   pq2_tquad

pq2_quad:
	MOVQ    x_base+24(FP), AX
	VMOVUPS (AX)(R11*1), X8

pq2_block:
	XORQ BX, BX

pq2_pair:
	LEAQ  (BX)(BX*2), SI
	MOVQ  (R9)(SI*8), AX
	MOVQ  (R8)(SI*8), SI
	TESTQ R14, R14
	JZ    pq2_tcoef
	VMULPS (AX)(R11*1), X8, X4
	JMP   pq2_coef

pq2_tcoef:
	VMOVSD    (AX)(R11*1), X4
	VINSERTPS $0x20, 8(AX)(R11*1), X4, X4
	VMULPS    X8, X4, X4
	VINSERTPS $0x30, (R10)(BX*4), X4, X4

pq2_coef:
	VCMPPS    $0, X9, X4, X5
	VMOVMSKPS X5, AX
	CMPL      AX, $15
	JEQ       pq2_next
	VBROADCASTSS X4, Y0
	VPERMILPS    $0x55, X4, X5
	VBROADCASTSS X5, Y1
	VPERMILPS    $0xAA, X4, X5
	VBROADCASTSS X5, Y2
	VPERMILPS    $0xFF, X4, X5
	VBROADCASTSS X5, Y3
	MOVQ R12, DI
	LEAQ (R12)(R13*2), AX
	MOVQ R13, CX
	SHRQ $2, CX
	CMPQ CX, $8
	JL   pq2_tail

pq2_loop:
	VMOVUPS     (SI), Y4
	VFMADD231PS (DI), Y0, Y4
	VFMADD231PS (DI)(R13*1), Y1, Y4
	VFMADD231PS (AX), Y2, Y4
	VFMADD231PS (AX)(R13*1), Y3, Y4
	VMOVUPS     Y4, (SI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	ADDQ        $32, AX
	SUBQ        $8, CX
	CMPQ        CX, $8
	JGE         pq2_loop

pq2_tail:
	TESTQ CX, CX
	JZ    pq2_next

pq2_tail_loop:
	VMOVSS      (SI), X4
	VFMADD231SS (DI), X0, X4
	VFMADD231SS (DI)(R13*1), X1, X4
	VFMADD231SS (AX), X2, X4
	VFMADD231SS (AX)(R13*1), X3, X4
	VMOVSS      X4, (SI)
	ADDQ        $4, SI
	ADDQ        $4, DI
	ADDQ        $4, AX
	DECQ        CX
	JNZ         pq2_tail_loop

pq2_next:
	INCQ  BX
	CMPQ  BX, DX
	JLT   pq2_pair
	TESTQ R14, R14
	JZ    pq2_done
	ADDQ  $16, R11
	LEAQ  (R12)(R13*4), R12
	DECQ  R14
	JNZ   pq2_quad

pq2_tquad:
	MOVQ      x_len+32(FP), AX
	ANDQ      $3, AX
	CMPQ      AX, $3
	JNE       pq2_done
	MOVQ      x_base+24(FP), AX
	VMOVSD    (AX)(R11*1), X8
	VINSERTPS $0x20, 8(AX)(R11*1), X8, X8
	JMP       pq2_block

pq2_done:
	VZEROUPPER
	RET
