package mat

import "fmt"

// MulRowInto computes dst = arow * b for a single input row: dst[j] =
// Σ_k arow[k]*b[k][j]. It runs the exact k-blocked, 4-way-unrolled,
// zero-skipping accumulation of MatMulInto restricted to one output
// row, so the result is bitwise identical to
// MatMulInto(dst1x, arow1x, b) for any worker count — the fused
// scoring engine relies on this to score (patient, drug) pairs
// without materializing the pair matrix while reproducing the batched
// path bit for bit.
//
// Runs entirely on the calling goroutine (callers partition their own
// row loops) and allocates nothing.
func MulRowInto(dst, arow []float64, b *Dense) {
	if len(arow) != b.rows || len(dst) != b.cols {
		panic(fmt.Sprintf("mat: MulRowInto shape mismatch dst[%d] = arow[%d] * %dx%d",
			len(dst), len(arow), b.rows, b.cols))
	}
	if b.cols == 1 {
		// Single-column b (e.g. a scalar-output decoder layer): the
		// j-loop of every panel has one element, so vector dispatch
		// only costs overhead. b's rows are consecutive elements of
		// its data.
		dst[0] = quadDot(arow, b.data)
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	K := len(arow)
	for kb := 0; kb < K; kb += blockK {
		ke := kb + blockK
		if ke > K {
			ke = K
		}
		panel := arow[kb:ke]
		k := 0
		for ; k+3 < len(panel); k += 4 {
			a0, a1, a2, a3 := panel[k], panel[k+1], panel[k+2], panel[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			mulAddRows4(dst, b.data[(kb+k)*b.cols:(kb+k+4)*b.cols], a0, a1, a2, a3)
		}
		for ; k < len(panel); k++ {
			av := panel[k]
			if av == 0 {
				continue
			}
			mulAddRow1(dst, b.Row(kb+k), av)
		}
	}
}

// quadDot is MulRowInto's accumulation for a single column w: the
// quad grouping (a0*w0 + a1*w1) + (a2*w2 + a3*w3) scalar-side, with
// all-zero quads and zero tail elements skipped. blockK is a multiple
// of four, so MulRowInto's panels split no quad and leave the order
// of this flat loop unchanged.
func quadDot(a, w []float64) float64 {
	w = w[:len(a)]
	var s float64
	k := 0
	for ; k+3 < len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		s += (float64(a0*w[k]) + float64(a1*w[k+1])) + (float64(a2*w[k+2]) + float64(a3*w[k+3]))
	}
	for ; k < len(a); k++ {
		if av := a[k]; av != 0 {
			s += float64(av * w[k])
		}
	}
	return s
}

// tilePairs is the pair count of the layer-1 register tile: its
// kernels keep one accumulator register per pair.
const tilePairs = 8

// PairCoefLen is the length of the coefficient scratch that
// MulRowsHadamardInto needs at interaction width d.
func PairCoefLen(d int) int { return tilePairs * (d + 1) }

// MulRowsHadamardInto is the fused layer-1 projection of a pair
// decoder, for a block of pairs sharing x:
//
//	dst[i] = concat(x⊙ys[i], ts[i]) * w
//
// with w the row-major (len(x)+1) x len(dst[i]) weight matrix. The
// coefficients of each concatenated input row — x[k]*ys[i][k] for
// k < d = len(x), then ts[i] — are formed on the fly, so neither the
// Hadamard product nor the concatenation exists. They are accumulated
// in MulRowInto's grouping: four rows of w at a time (when d % 4 == 3
// the treatment coefficient closes the last quad), then the remaining
// rows one at a time through mulAddRow1, skipping zero coefficients.
//
// At AVX-512 the quads run through a register tile, tilePairs pairs at
// a time: the pairs' coefficients are formed once into coef, and for
// each column chunk of a 16-quad panel of w (two chunks a pass at
// float32) the pairs' sums stay in registers while each row of the
// chunk is loaded once for all of them. The tile sets its rows. It
// does not skip all-zero quads, and adding one is exact only for
// finite w and a sum that is not −0: at float64 a sum starts at +0 and
// never becomes −0, but at float32 an FMA into +0 rounds to −0 when
// its product underflows, and a zero quad would turn that −0 into +0.
// A block in which a pair has an all-zero quad takes the per-quad
// kernel instead, which skips it, so the tile is exact for any w.
// Elsewhere the kernel table clears the rows and runs every quad of
// the block in one call, quad loop outermost, skipping all-zero quads,
// so each 4-row slab of w serves the whole block while it is
// cache-hot.
//
// At float64 every quad sums as mulAddRows4 does, so every output is
// bitwise identical to MulRowInto over the materialized row. At
// float32 each multiply-add of a quad is one FMA into the pair's sum
// (quadFMAGo), identical at every SIMD level.
//
// coef is scratch of at least PairCoefLen(len(x)) elements. Runs
// entirely on the calling goroutine and allocates nothing.
func MulRowsHadamardInto[T Float](dst [][]T, x []T, ys [][]T, ts []T, w, coef []T) {
	d, n := len(x), len(dst)
	if len(ys) != n || len(ts) != n {
		panic(fmt.Sprintf("mat: MulRowsHadamardInto got %d dst rows, %d y rows, %d t values", n, len(ys), len(ts)))
	}
	if len(coef) < PairCoefLen(d) {
		panic(fmt.Sprintf("mat: MulRowsHadamardInto coefficient scratch of %d, want %d", len(coef), PairCoefLen(d)))
	}
	if n == 0 {
		return
	}
	h := len(dst[0])
	for i, y := range ys {
		if len(y) != d || len(dst[i]) != h || len(w) != (d+1)*h {
			panic(fmt.Sprintf("mat: MulRowsHadamardInto shape mismatch dst[%d] = concat(x[%d]⊙y[%d], t) * w[%d]",
				len(dst[i]), d, len(y), len(w)))
		}
	}
	if h == 0 {
		return
	}
	ks := kernelsOf[T]()
	ks.pairQuads(dst, x, ys, ts, w, coef)
	if d%4 == 3 {
		return
	}
	for k := d &^ 3; k < d; k++ {
		wk := w[k*h : (k+1)*h]
		for i, y := range ys {
			if a := x[k] * y[k]; a != 0 {
				ks.mulAddRow1(dst[i], wk, a)
			}
		}
	}
	wt := w[d*h:]
	for i, t := range ts {
		if t != 0 {
			ks.mulAddRow1(dst[i], wt, t)
		}
	}
}

// Floats32 converts src to a fresh []float32, rounding each element to
// the nearest representable value (IEEE round-to-nearest-even — the
// conversion is deterministic, so the same snapshot always derives the
// same f32 serving state).
func Floats32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}
