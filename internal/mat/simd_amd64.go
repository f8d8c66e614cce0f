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
func pairQuadsAVX2F32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32)

//go:noescape
func mulAddRow1AVX2F32(dst, b []float32, a float32)

//go:noescape
func dot8AVX2F32(a, b []float32) float32

//go:noescape
func addBiasLeakyAVX2F32(dst, bias []float32, slope float32)

//go:noescape
func pairTileAVX512(rows *[tilePairs]*float64, n int, coef, w []float64, h int)

//go:noescape
func pairTileAVX512F32(rows *[tilePairs]*float32, n int, coef, w []float32, h int)

//go:noescape
func quadProductsAVX2(c, x, y []float64) (ok bool)

//go:noescape
func quadProductsAVX2F32(c, x, y []float32) (ok bool)

// pairQuads64 sets dst to the full quads of a float64 pair block:
// through the register tile at AVX-512, else through mulAddRows4 on
// cleared rows, so every pair accumulates exactly as MulRowInto would.
// The caller (MulRowsHadamardInto) has checked the shapes and sized
// coef.
func pairQuads64(dst [][]float64, x []float64, ys [][]float64, ts []float64, w, coef []float64) {
	if useAVX512 {
		pairTiles64(dst, x, ys, ts, w, coef)
		return
	}
	clearRows(dst)
	pairQuadsGo(dst, x, ys, ts, w, mulAddRows4)
}

// pairQuads32 sets dst to every full quad of a float32 pair block (see
// pairQuadsGo), each quad as quadFMA: through the register tile at
// AVX-512, else on cleared rows, in a single assembly call where the
// CPU has FMA.
func pairQuads32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w, coef []float32) {
	if useAVX512 && useFMA {
		pairTiles32(dst, x, ys, ts, w, coef)
		return
	}
	clearRows(dst)
	if useFMA {
		pairQuadsAVX2F32(dst, x, ys, ts, w)
		return
	}
	pairQuadsGo(dst, x, ys, ts, w, quadFMAGo)
}

// pairTiles64 runs a float64 pair block through the register tile,
// tilePairs pairs at a time; the tile sets its rows. A tile block in
// which a pair has an all-zero quad, which the tile would not skip,
// takes mulAddRows4 on cleared rows.
func pairTiles64(dst [][]float64, x []float64, ys [][]float64, ts []float64, w, coef []float64) {
	for lo := 0; lo < len(dst); lo += tilePairs {
		hi := min(lo+tilePairs, len(dst))
		var rows [tilePairs]*float64
		if nq := pairTileSetup(&rows, coef, dst[lo:hi], x, ys[lo:hi], ts[lo:hi], quadProductsAVX2); nq > 0 {
			pairTileAVX512(&rows, hi-lo, coef[:nq*4*tilePairs], w, len(dst[0]))
		} else {
			clearRows(dst[lo:hi])
			pairQuadsGo(dst[lo:hi], x, ys[lo:hi], ts[lo:hi], w, mulAddRows4)
		}
	}
}

// pairTiles32 is pairTiles64 at float32; a block with an all-zero quad
// takes pairQuadsAVX2F32.
func pairTiles32(dst [][]float32, x []float32, ys [][]float32, ts []float32, w, coef []float32) {
	for lo := 0; lo < len(dst); lo += tilePairs {
		hi := min(lo+tilePairs, len(dst))
		var rows [tilePairs]*float32
		if nq := pairTileSetup(&rows, coef, dst[lo:hi], x, ys[lo:hi], ts[lo:hi], quadProductsAVX2F32); nq > 0 {
			pairTileAVX512F32(&rows, hi-lo, coef[:nq*4*tilePairs], w, len(dst[0]))
		} else {
			clearRows(dst[lo:hi])
			pairQuadsAVX2F32(dst[lo:hi], x, ys[lo:hi], ts[lo:hi], w)
		}
	}
}

// pairTileSetup prepares a block of at most tilePairs pairs for a tile
// kernel and returns its quad count: the full quads of
// concat(x⊙ys[p], ts[p]) as pairQuadsGo walks them (the last one
// closed by ts[p] when len(x) % 4 == 3). It writes their coefficients
// to coef quad-interleaved, coef[(q·tilePairs+p)·4+i] the i-th of pair
// p's quad q, formed exactly as pairQuadsGo forms them (the x⊙y quads
// by products), with zeros for the padding pairs p >= len(ys). rows[p]
// is dst[p]'s first element, and a padding pair's the last real
// pair's (the kernel reads it but never stores it). It returns 0 when
// there is no quad or a pair has an all-zero quad, which the tile
// would not skip.
func pairTileSetup[T Float](rows *[tilePairs]*T, coef []T, dst [][]T, x []T, ys [][]T, ts []T, products func(c, x, y []T) bool) (nq int) {
	d, n := len(x), len(ys)
	if nq = (d + 1) / 4; nq == 0 {
		return 0
	}
	for p := range tilePairs {
		c := coef[4*p : 4*tilePairs*nq]
		if p >= n {
			for k := 0; k < 4*nq; k += 4 {
				clear(c[8*k : 8*k+4])
			}
			continue
		}
		y := ys[p]
		if !products(c, x, y) {
			return 0
		}
		if k := d &^ 3; d%4 == 3 {
			a0, a1, a2, a3 := x[k]*y[k], x[k+1]*y[k+1], x[k+2]*y[k+2], ts[p]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				return 0
			}
			c[8*k], c[8*k+1], c[8*k+2], c[8*k+3] = a0, a1, a2, a3
		}
		rows[p] = &dst[p][0]
	}
	for p := n; p < tilePairs; p++ {
		rows[p] = rows[n-1]
	}
	return nq
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
