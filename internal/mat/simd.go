package mat

// SIMD micro-kernels. The accumulation patterns below are the inner
// loops of every dense kernel in this package:
//
//	mulAddRows4   dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
//	mulAddRow1    dst[j] += a*b[j]
//	addBiasLeaky  dst[i] = leaky(dst[i] + bias[i])
//	dot4          four-accumulator float64 dot product (see dot4 in parallel.go)
//	dot8          eight-accumulator float32 dot product
//	hadamardInto  dst[i] = a[i]*b[i]
//
// On amd64 with AVX2 they dispatch to hand-written vector assembly
// (simd_amd64.s), at float64 (4 lanes a ymm) and, for the first three
// and dot8, at float32 (8 lanes). The vector forms are bitwise
// identical to the scalar forms: lanes are independent output elements
// or exactly the interleaved accumulators of the scalar code, and
// every lane performs the same IEEE-754 operations in the same order
// as the scalar loop. No FMA is used — fused multiply-add skips the
// intermediate rounding and would change results. The *Go reference
// implementations in this file are the fallback for other
// architectures (and for CPUs without AVX2), and the oracle the
// assembly is tested against; the ones that exist at both precisions
// are generic.

// Float is the element type of the kernels that run at both serving
// precisions.
type Float interface{ float32 | float64 }

// kernels is the per-type table through which generic code reaches the
// vector dispatchers of simd_amd64.go / simd_generic.go: the
// arithmetic around them is written once, the assembly stays per type.
type kernels[T Float] struct {
	mulAddRows4  func(dst, b4 []T, a0, a1, a2, a3 T)
	mulAddRow1   func(dst, b []T, a T)
	addBiasLeaky func(dst, bias []T, slope T)
	dotCol       func(a, w []T) T
}

var (
	kernels64 = kernels[float64]{mulAddRows4, mulAddRow1, addBiasLeaky, quadDot}
	kernels32 = kernels[float32]{mulAddRows432, mulAddRow132, addBiasLeaky32, dot8x32}
)

// kernelsOf returns T's kernel table.
func kernelsOf[T Float]() *kernels[T] {
	var k any = &kernels64
	if _, f32 := any((*T)(nil)).(*float32); f32 {
		k = &kernels32
	}
	return k.(*kernels[T])
}

// AddBiasLeakyInto computes dst[i] = leaky(dst[i] + bias[i]) in one
// fused, branch-free vector pass — the epilogue of a linear layer
// followed by LeakyReLU, bitwise identical to the separate bias-add
// and activation steps.
func AddBiasLeakyInto[T Float](dst, bias []T, slope T) {
	if len(bias) < len(dst) {
		panic("mat: AddBiasLeakyInto bias shorter than dst")
	}
	kernelsOf[T]().addBiasLeaky(dst, bias[:len(dst)], slope)
}

// DotCol is the product of row a with the single weight column w —
// the output layer of a scalar decoder. The accumulation is per type:
// at float64 it is MulRowInto's single-column sum (so it matches the
// batched forward bit for bit), at float32 the eight-accumulator dot8
// kernel. Bitwise identical with the vector path on or off.
func DotCol[T Float](a, w []T) T {
	if len(a) != len(w) {
		panic("mat: DotCol length mismatch")
	}
	return kernelsOf[T]().dotCol(a, w)
}

// mulAddRows4Go is the scalar reference of the four-row
// multiply-accumulate. b4 holds four consecutive rows of length
// len(dst), back to back.
func mulAddRows4Go[T Float](dst, b4 []T, a0, a1, a2, a3 T) {
	n := len(dst)
	b0 := b4[:n]
	b1 := b4[n : 2*n]
	b2 := b4[2*n : 3*n]
	b3 := b4[3*n : 4*n]
	for j, bv := range b0 {
		dst[j] += (a0*bv + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
	}
}

// mulAddRow1Go is the scalar reference of the single-row
// multiply-accumulate.
func mulAddRow1Go[T Float](dst, b []T, a T) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] += a * bv
	}
}

// addBiasLeakyGo is the scalar reference of the fused bias-add +
// LeakyReLU epilogue: dst[i] = leaky(dst[i] + bias[i]) with
// leaky(v) = v if v > 0 else slope*v — the exact element formulas of
// AddRowInto followed by the LeakyReLU activation.
func addBiasLeakyGo[T Float](dst, bias []T, slope T) {
	bias = bias[:len(dst)]
	for i := range dst {
		v := dst[i] + bias[i]
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = slope * v
		}
	}
}

// dot4Go is the scalar reference of the four-accumulator dot product.
// It reassociates the sum relative to the plain Dot (which the tape's
// RowSum must keep matching), so it is private to the matmul kernels.
func dot4Go(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	b = b[:len(a)]
	for ; k+3 < len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot8Go32 is the scalar reference of the eight-accumulator float32
// dot product: accumulator s_i is vector lane i of the AVX2 kernel,
// the tail adds into s0, and the final combine matches the kernel's
// in-register reduction order exactly.
func dot8Go32(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	k := 0
	b = b[:len(a)]
	for ; k+7 < len(a); k += 8 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
		s4 += a[k+4] * b[k+4]
		s5 += a[k+5] * b[k+5]
		s6 += a[k+6] * b[k+6]
		s7 += a[k+7] * b[k+7]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * b[k]
	}
	return ((s0 + s2) + (s1 + s3)) + ((s4 + s6) + (s5 + s7))
}

// hadamardIntoGo is the scalar reference of the element-wise product.
func hadamardIntoGo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}
