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
	for j := range dst {
		dst[j] = 0
	}
	K := len(arow)
	if b.cols == 1 {
		// Single-column b (e.g. a scalar-output decoder layer): the
		// j-loop of every panel has one element, so vector dispatch
		// only costs overhead. Accumulate the identical quad grouping
		// scalar-side; b's rows are consecutive elements of its data.
		var s float64
		for kb := 0; kb < K; kb += blockK {
			ke := kb + blockK
			if ke > K {
				ke = K
			}
			panel := arow[kb:ke]
			bcol := b.data[kb:ke]
			k := 0
			for ; k+3 < len(panel); k += 4 {
				a0, a1, a2, a3 := panel[k], panel[k+1], panel[k+2], panel[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				s += (a0*bcol[k] + a1*bcol[k+1]) + (a2*bcol[k+2] + a3*bcol[k+3])
			}
			for ; k < len(panel); k++ {
				if av := panel[k]; av != 0 {
					s += av * bcol[k]
				}
			}
		}
		dst[0] = s
		return
	}
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

// MulRowsInto computes dst[i] = arows[i] * b for a block of rows. Each
// row gets exactly the operations MulRowInto runs for it — the same
// panels, quads, tails and zero-quad skips, in the same order — so
// every output is bitwise identical to the per-row kernel. Only the
// loop nesting differs: the quad loop is outermost, so each 4-row
// slab of b is applied to every row of the block while it is still
// cache-hot instead of being streamed once per row.
//
// Runs entirely on the calling goroutine and allocates nothing.
func MulRowsInto(dst, arows [][]float64, b *Dense) {
	if len(dst) != len(arows) {
		panic(fmt.Sprintf("mat: MulRowsInto got %d dst rows for %d input rows", len(dst), len(arows)))
	}
	for i, arow := range arows {
		if len(arow) != b.rows || len(dst[i]) != b.cols {
			panic(fmt.Sprintf("mat: MulRowsInto shape mismatch dst[%d] = arow[%d] * %dx%d",
				len(dst[i]), len(arow), b.rows, b.cols))
		}
	}
	for _, row := range dst {
		clear(row)
	}
	K := b.rows
	for kb := 0; kb < K; kb += blockK {
		ke := min(kb+blockK, K)
		k := kb
		for ; k+3 < ke; k += 4 {
			b4 := b.data[k*b.cols : (k+4)*b.cols]
			for i, arow := range arows {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				mulAddRows4(dst[i], b4, a0, a1, a2, a3)
			}
		}
		for ; k < ke; k++ {
			brow := b.Row(k)
			for i, arow := range arows {
				if av := arow[k]; av != 0 {
					mulAddRow1(dst[i], brow, av)
				}
			}
		}
	}
}

// HadamardRowInto computes dst[i] = a[i]*b[i] for plain slices — the
// row-level form of HadamardInto, sharing its element formula (and
// vector kernel) so fused consumers match the batched op bitwise.
func HadamardRowInto(dst, a, b []float64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("mat: HadamardRowInto length mismatch %d vs %d vs %d", len(dst), len(a), len(b)))
	}
	hadamardSlices(dst, a, b)
}
