package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestMulRowIntoMatchesMatMul checks the single-row kernel against the
// full blocked matmul, row by row and bit for bit, across shapes that
// cover the k-block boundary, the unroll tails and zero panels.
func TestMulRowIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range [][2]int{{1, 1}, {4, 9}, {48, 1}, {49, 48}, {65, 64}, {128, 17}, {130, 1}, {131, 33}, {260, 7}} {
		k, n := sh[0], sh[1]
		a := RandNormal(rng, 5, k, 1)
		// Sprinkle exact zeros so the zero-skip panels are exercised.
		ad := a.Data()
		for i := range ad {
			if rng.Intn(4) == 0 {
				ad[i] = 0
			}
		}
		b := RandNormal(rng, k, n, 1)
		want := MatMul(a, b)
		dst := make([]float64, n)
		for i := 0; i < a.Rows(); i++ {
			MulRowInto(dst, a.Row(i), b)
			wrow := want.Row(i)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(wrow[j]) {
					t.Fatalf("shape %v row %d col %d: MulRowInto %v != MatMul %v", sh, i, j, dst[j], wrow[j])
				}
			}
		}
	}
}

// TestMulRowsKernelsMatchPerRow checks the generic block kernel
// MulRowsHadamardInto at both types against a per-row scalar oracle,
// bit for bit, with the vector path on and off, at every block size
// from 1 to 9. The oracle materializes concat(x⊙y, t) and accumulates
// it in MulRowInto's grouping through the Go reference kernels (the
// quads through mulAddRows4Go at float64, through the FMA chain
// quadFMAGo at float32); at float64 it is itself checked against
// MulRowInto. The shapes put d
// off the quad grid (d % 4 == 3 included, where t closes the last
// quad) and off blockK, the widths off the eight-lane grid, and
// include a single-column layer. Even rows open with an all-zero quad
// and end in t = 0 (in an all-zero quad when d % 4 == 3), and both sit
// in front of an Inf weight: the zero skips must keep the Inf (and the
// NaN 0*Inf would make) out of those rows' sums. Blocks made of odd
// rows alone run the AVX-512 register tile.
func TestMulRowsKernelsMatchPerRow(t *testing.T) {
	defer setSIMD(simdEnabled())
	for _, simd := range []bool{true, false} {
		setSIMD(simd)
		for _, sh := range [][2]int{{1, 3}, {2, 5}, {3, 9}, {8, 17}, {23, 9}, {130, 33}, {383, 12}, {384, 12}, {129, 1}} {
			checkMulRowsHadamard[float64](t, simd, sh[0], sh[1])
			checkMulRowsHadamard[float32](t, simd, sh[0], sh[1])
		}
	}
}

func checkMulRowsHadamard[T Float](t *testing.T, simd bool, d, h int) {
	t.Helper()
	const rows = 9
	rng := rand.New(rand.NewSource(int64(19 + d*h)))
	vec := func(n int) []T {
		out := make([]T, n)
		for i, v := range randSlice(rng, n) {
			out[i] = T(v)
		}
		return out
	}
	w := vec((d + 1) * h)
	w[0], w[len(w)-1] = T(math.Inf(1)), T(math.Inf(-1))
	x := vec(d)
	ys := make([][]T, rows)
	ts := vec(rows)
	for i := range ys {
		ys[i] = vec(d)
		if i%2 == 0 {
			clear(ys[i][:min(4, d)])
			if d%4 == 3 { // t closes the last quad: zero all of it
				clear(ys[i][d-3:])
			}
			ts[i] = 0
		}
	}
	want := make([][]T, rows)
	for i, y := range ys {
		arow := make([]T, d+1)
		for k := range y {
			arow[k] = x[k] * y[k]
		}
		arow[d] = ts[i]
		want[i] = make([]T, h)
		mulRowRef(want[i], arow, w)
		if a64, ok := any(arow).([]float64); ok {
			per := make([]float64, h)
			MulRowInto(per, a64, NewFrom(d+1, h, any(w).([]float64)))
			for j, v := range per {
				if math.Float64bits(v) != math.Float64bits(float64(want[i][j])) {
					t.Fatalf("d=%d h=%d row %d col %d: oracle %v != MulRowInto %v", d, h, i, j, want[i][j], v)
				}
			}
		}
		for j, v := range want[i] {
			if fv := float64(v); i%2 == 0 && (math.IsNaN(fv) || math.IsInf(fv, 0)) {
				t.Fatalf("d=%d h=%d row %d col %d: the Inf behind a zero quad leaked in (%v)", d, h, i, j, v)
			}
		}
	}
	// Blocks of rows 0, 1, ... mix both kinds of row and take the
	// per-quad kernel; blocks of odd rows only have no all-zero quad,
	// so at AVX-512 they run the register tile (a full tile of 8 pairs,
	// then a 1-pair one).
	inOrder, oddOnly := make([]int, rows), make([]int, rows)
	for i := range inOrder {
		inOrder[i], oddOnly[i] = i, 1+2*(i%(rows/2))
	}
	for _, order := range [][]int{inOrder, oddOnly} {
		for nb := 1; nb <= rows; nb++ {
			got := make([][]T, nb)
			bys, bts := make([][]T, nb), make([]T, nb)
			for i, r := range order[:nb] {
				got[i] = make([]T, h)
				for j := range got[i] { // stale scratch must not leak in
					got[i][j] = T(math.NaN())
				}
				bys[i], bts[i] = ys[r], ts[r]
			}
			MulRowsHadamardInto(got, x, bys, bts, w, make([]T, PairCoefLen(d)))
			for i, r := range order[:nb] {
				for j, g := range got[i] {
					if math.Float64bits(float64(g)) != math.Float64bits(float64(want[r][j])) {
						t.Fatalf("%T simd=%v d=%d h=%d block %v row %d col %d: MulRowsHadamardInto %v != per-row %v",
							g, simd, d, h, order[:nb], r, j, g, want[r][j])
					}
				}
			}
		}
	}
}

// mulRowRef is the per-row scalar oracle of MulRowsHadamardInto:
// dst = arow * w accumulated in MulRowInto's grouping (quads with
// all-zero skips, then a zero-skipping tail) through the Go reference
// kernels of T.
func mulRowRef[T Float](dst, arow, w []T) {
	var q any = mulAddRows4Go[float64]
	if _, f32 := any(dst).([]float32); f32 {
		q = quadFMAGo
	}
	quad := q.(func(dst, b4 []T, a0, a1, a2, a3 T))
	h := len(dst)
	clear(dst)
	k := 0
	for ; k+3 < len(arow); k += 4 {
		a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		quad(dst, w[k*h:(k+4)*h], a0, a1, a2, a3)
	}
	for ; k < len(arow); k++ {
		if arow[k] != 0 {
			mulAddRow1Go(dst, w[k*h:(k+1)*h], arow[k])
		}
	}
}
