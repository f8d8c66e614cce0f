//go:build amd64

package mat

import "os"

// useAVX2, useFMA and useAVX512 gate the vector kernels. They are
// detected once at startup (CPUID + XGETBV, see simd_amd64.s) and only
// ever disabled after that — the equivalence tests flip them to prove
// the scalar and vector paths produce identical bits. useFMA (AVX2
// plus the FMA extension) gates the float32 pair decode. The
// DSSDDI_SIMD environment variable caps the level ("off", "avx2", or
// the default "avx512"), for deployments where 512-bit frequency
// licensing is a concern; every level produces identical bits.
var useAVX2, useFMA, useAVX512 = detectSIMD()

func detectSIMD() (avx2, fma, avx512 bool) {
	avx2 = cpuSupportsAVX2()
	fma = avx2 && cpuSupportsFMA()
	avx512 = avx2 && cpuSupportsAVX512()
	switch os.Getenv("DSSDDI_SIMD") {
	case "off":
		avx2, fma, avx512 = false, false, false
	case "avx2":
		avx512 = false
	}
	return avx2, fma, avx512
}

// cpuSupportsAVX2 reports AVX2 with OS-enabled YMM state.
func cpuSupportsAVX2() bool

// cpuSupportsFMA reports the FMA extension (CPUID.1:ECX bit 12); only
// meaningful once cpuSupportsAVX2 holds.
func cpuSupportsFMA() bool

// cpuSupportsAVX512 reports AVX512F with OS-enabled ZMM state.
func cpuSupportsAVX512() bool

//go:noescape
func mulAddRows4AVX512(dst, b4 []float64, a0, a1, a2, a3 float64)

// The assembly kernels require len(dst) >= 1 and the b operands laid
// out exactly as their Go references document. They are only called
// through the wrappers below.

//go:noescape
func mulAddRows4AVX2(dst, b4 []float64, a0, a1, a2, a3 float64)

//go:noescape
func mulAddRow1AVX2(dst, b []float64, a float64)

//go:noescape
func dot4AVX2(a, b []float64) float64

//go:noescape
func hadamardIntoAVX2(dst, a, b []float64)

//go:noescape
func addBiasLeakyAVX2(dst, bias []float64, slope float64)

// mulAddRows4 computes dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] +
// a3*b3[j]) where b4 holds the four b-rows back to back. Bitwise
// identical with the vector path on or off.
func mulAddRows4(dst, b4 []float64, a0, a1, a2, a3 float64) {
	if len(b4) < 4*len(dst) {
		panic("mat: mulAddRows4 needs 4*len(dst) b values")
	}
	switch {
	case useAVX512 && len(dst) > 0:
		mulAddRows4AVX512(dst, b4, a0, a1, a2, a3)
	case useAVX2 && len(dst) > 0:
		mulAddRows4AVX2(dst, b4, a0, a1, a2, a3)
	default:
		mulAddRows4Go(dst, b4, a0, a1, a2, a3)
	}
}

// mulAddRow1 computes dst[j] += a*b[j].
func mulAddRow1(dst, b []float64, a float64) {
	if useAVX2 && len(dst) > 0 {
		mulAddRow1AVX2(dst, b[:len(dst)], a)
		return
	}
	mulAddRow1Go(dst, b, a)
}

// dot4 is the four-accumulator dot product of the transposed-matmul
// kernels.
func dot4(a, b []float64) float64 {
	if useAVX2 && len(a) >= 4 {
		return dot4AVX2(a, b[:len(a)])
	}
	return dot4Go(a, b)
}

// addBiasLeaky computes dst[i] = leaky(dst[i] + bias[i]); len(bias)
// == len(dst).
func addBiasLeaky(dst, bias []float64, slope float64) {
	if useAVX2 && len(dst) > 0 {
		addBiasLeakyAVX2(dst, bias, slope)
		return
	}
	addBiasLeakyGo(dst, bias, slope)
}

// hadamardSlices computes dst[i] = a[i]*b[i].
func hadamardSlices(dst, a, b []float64) {
	if useAVX2 && len(dst) > 0 {
		hadamardIntoAVX2(dst, a[:len(dst)], b[:len(dst)])
		return
	}
	hadamardIntoGo(dst, a, b)
}

// The float32 kernels share the gates (and the DSSDDI_SIMD cap) with
// the float64 set: one environment knob governs both precisions, and
// every level produces identical f32 bits.

//go:noescape
func pairQuadsAVX512F32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32)

//go:noescape
func pairQuadsAVX2F32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32)

//go:noescape
func mulAddRow1AVX2F32(dst, b []float32, a float32)

//go:noescape
func dot8AVX2F32(a, b []float32) float32

//go:noescape
func addBiasLeakyAVX2F32(dst, bias []float32, slope float32)

// pairQuads32 runs every full quad of a float32 pair block (see
// pairQuadsGo) as one quadFMA chain per quad, in a single assembly
// call where the CPU has FMA. The caller (MulRowsHadamardInto) has
// checked the shapes and that the block is not empty.
func pairQuads32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32) {
	switch {
	case useAVX512 && useFMA:
		pairQuadsAVX512F32(dst, x, ys, ts, w)
	case useFMA:
		pairQuadsAVX2F32(dst, x, ys, ts, w)
	default:
		pairQuadsGo(dst, x, ys, ts, w, quadFMAGo)
	}
}

// mulAddRow132 is mulAddRow1 at float32.
func mulAddRow132(dst, b []float32, a float32) {
	if useAVX2 && len(dst) > 0 {
		mulAddRow1AVX2F32(dst, b[:len(dst)], a)
		return
	}
	mulAddRow1Go(dst, b, a)
}

// dot8x32 is the eight-accumulator float32 dot product.
func dot8x32(a, b []float32) float32 {
	if useAVX2 && len(a) >= 8 {
		return dot8AVX2F32(a, b[:len(a)])
	}
	return dot8Go32(a, b)
}

// addBiasLeaky32 is addBiasLeaky at float32.
func addBiasLeaky32(dst, bias []float32, slope float32) {
	if useAVX2 && len(dst) > 0 {
		addBiasLeakyAVX2F32(dst, bias, slope)
		return
	}
	addBiasLeakyGo(dst, bias, slope)
}

// SIMD names the active vector instruction set ("avx512", "avx2" or
// "none") so benchmark records can note what backed the kernels.
func SIMD() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	default:
		return "none"
	}
}

// simdEnabled and setSIMD are test hooks: the equivalence tests force
// the scalar path to prove it produces the same bits. Not safe to
// flip while kernels are running on other goroutines.
func simdEnabled() bool { return useAVX2 }

// setSIMD(true) restores the start-up level, DSSDDI_SIMD cap included.
func setSIMD(on bool) {
	useAVX2, useFMA, useAVX512 = false, false, false
	if on {
		useAVX2, useFMA, useAVX512 = detectSIMD()
	}
}
