package mat

import "math"

// SIMD micro-kernels. The accumulation patterns below are the inner
// loops of every dense kernel in this package:
//
//	mulAddRows4   dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
//	quadFMA       t = a0*b0[j]; t = fma(a1, b1[j], t); t = fma(a2, b2[j], t);
//	              t = fma(a3, b3[j], t); dst[j] += t        (float32 only)
//	mulAddRow1    dst[j] += a*b[j]
//	addBiasLeaky  dst[i] = leaky(dst[i] + bias[i])
//	dot4          four-accumulator float64 dot product (see dot4 in parallel.go)
//	dot8          eight-accumulator float32 dot product
//	hadamardInto  dst[i] = a[i]*b[i]
//
// On amd64 with AVX2 they dispatch to hand-written vector assembly
// (simd_amd64.s), at float64 (4 lanes a ymm) and, for mulAddRow1,
// addBiasLeaky and dot8, at float32 (8 lanes). At AVX-512 the pair
// decode's quads run through a register tile instead (tile_amd64.s,
// see MulRowsHadamardInto), which applies mulAddRows4's and
// quadFMA's per-element operations with eight pairs' sums held in
// registers. The vector forms are bitwise identical to the scalar
// forms: lanes are independent output elements or exactly the
// interleaved accumulators of the scalar code, and every lane performs
// the same IEEE-754 operations in the same order as the scalar loop.
//
// No FMA is used at float64, so the f64 kernels stay bitwise identical
// to the batched reference path. The float32 pair decode (pairQuads32)
// runs one FMA chain per quad, quadFMA above: f32 has no bitwise
// contract with the batched path, only the precision gate against the
// f64 oracle. Its Go reference rounds each step exactly as the FMA
// instructions do (fma32), so f32 bits are identical at every level
// too. Both assembly forms run only where the CPU has FMA.
//
// The *Go reference implementations in this file are the fallback for
// other architectures (and for CPUs without AVX2), and the oracle the
// assembly is tested against; the ones that exist at both precisions
// are generic. Every product in them is wrapped in an explicit
// conversion, because the Go spec lets a compiler fuse x*y + z into
// one FMA (arm64 does) unless a conversion rounds x*y first; with the
// conversions every architecture produces the same bits.

// Float is the element type of the kernels that run at both serving
// precisions.
type Float interface{ float32 | float64 }

// kernels is the per-type table through which generic code reaches the
// vector dispatchers of simd_amd64.go / simd_generic.go: the
// arithmetic around them is written once, the assembly stays per type.
type kernels[T Float] struct {
	pairQuads    func(dst [][]T, x []T, ys [][]T, ts []T, w, coef []T)
	mulAddRow1   func(dst, b []T, a T)
	addBiasLeaky func(dst, bias []T, slope T)
	dotCol       func(a, w []T) T
}

var (
	kernels64 = kernels[float64]{pairQuads64, mulAddRow1, addBiasLeaky, quadDot}
	kernels32 = kernels[float32]{pairQuads32, mulAddRow132, addBiasLeaky32, dot8x32}
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
		dst[j] += (T(a0*bv) + T(a1*b1[j])) + (T(a2*b2[j]) + T(a3*b3[j]))
	}
}

// pairQuadsGo runs every full quad of the concatenated rows
// concat(x⊙ys[i], ts[i]) of a pair block through quad: the quads of
// x⊙y and, when len(x) % 4 == 3, the last one, which ts[i] closes.
// The coefficients are formed on the fly, all-zero quads are skipped,
// and the quad loop is outermost so each 4-row slab of w serves the
// whole block while it is cache-hot. dst rows are len(dst[0]) wide and
// w holds len(x)+1 of them.
func pairQuadsGo[T Float](dst [][]T, x []T, ys [][]T, ts []T, w []T, quad func(dst, w4 []T, a0, a1, a2, a3 T)) {
	d, h := len(x), len(dst[0])
	for k := 0; k+3 <= d; k += 4 {
		w4 := w[k*h : (k+4)*h]
		for i, y := range ys {
			a3 := ts[i]
			if k+3 < d {
				a3 = x[k+3] * y[k+3]
			}
			a0, a1, a2 := x[k]*y[k], x[k+1]*y[k+1], x[k+2]*y[k+2]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			quad(dst[i], w4, a0, a1, a2, a3)
		}
	}
}

// quadFMAGo is the scalar reference of the float32 pair-decode quad:
// t = a0*b0[j], then t = fma(a, b[j], t) for the other three rows,
// then one add into dst[j]. b4 holds the four rows back to back.
func quadFMAGo(dst, b4 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	b0, b1, b2, b3 := b4[:n], b4[n:2*n], b4[2*n:3*n], b4[3*n:4*n]
	for j, bv := range b0 {
		t := float32(a0 * bv)
		t = fma32(a1, b1[j], t)
		t = fma32(a2, b2[j], t)
		t = fma32(a3, b3[j], t)
		dst[j] += t
	}
}

// fma32 returns a*b + c rounded once to float32, as the vector
// kernels' FMA instructions compute it: the float64 product of two
// float32 values is exact, TwoSum recovers the error of the float64
// sum s, and rounding s to odd before the conversion keeps the result
// from being rounded twice. float32(math.FMA(a, b, c)) rounds twice
// and is wrong whenever s lands exactly on a float32 midpoint, the
// only case where the two roundings can differ — and one that needs
// the low 28 bits of s to be zero, so other sums skip the fix-up.
func fma32(a, b, c float32) float32 {
	p, z := float64(float64(a)*float64(b)), float64(c)
	s := p + z
	if bits := math.Float64bits(s); bits&(1<<28-1) == 0 && bits>>52&0x7FF != 0x7FF {
		// s is even and finite: if it is inexact, step to its odd
		// neighbour on the side of the exact sum.
		bv := s - p
		if e := (p - (s - bv)) + (z - bv); e != 0 {
			if (e > 0) == (s > 0) {
				bits++
			} else {
				bits--
			}
			s = math.Float64frombits(bits)
		}
	}
	return float32(s)
}

// mulAddRow1Go is the scalar reference of the single-row
// multiply-accumulate.
func mulAddRow1Go[T Float](dst, b []T, a T) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] += T(a * bv)
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
		s0 += float64(a[k] * b[k])
		s1 += float64(a[k+1] * b[k+1])
		s2 += float64(a[k+2] * b[k+2])
		s3 += float64(a[k+3] * b[k+3])
	}
	for ; k < len(a); k++ {
		s0 += float64(a[k] * b[k])
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
		s0 += float32(a[k] * b[k])
		s1 += float32(a[k+1] * b[k+1])
		s2 += float32(a[k+2] * b[k+2])
		s3 += float32(a[k+3] * b[k+3])
		s4 += float32(a[k+4] * b[k+4])
		s5 += float32(a[k+5] * b[k+5])
		s6 += float32(a[k+6] * b[k+6])
		s7 += float32(a[k+7] * b[k+7])
	}
	for ; k < len(a); k++ {
		s0 += float32(a[k] * b[k])
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
