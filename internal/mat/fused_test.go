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

// TestHadamardRowIntoMatchesHadamard pins the row-level form to the
// batched kernel.
func TestHadamardRowIntoMatchesHadamard(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 3, 29, 1)
	b := RandNormal(rng, 3, 29, 1)
	want := Hadamard(a, b)
	dst := make([]float64, 29)
	for i := 0; i < 3; i++ {
		HadamardRowInto(dst, a.Row(i), b.Row(i))
		for j, v := range dst {
			if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("row %d col %d: %v != %v", i, j, v, want.At(i, j))
			}
		}
	}
}

// TestMulRowsKernelsMatchPerRow checks both block kernels against
// their per-row references bit for bit, with the vector path on and
// off, at every block size from 1 to 9: MulRowsInto against
// MulRowInto, and MulRowsHadamardInto32 (on d = K-1 with the last
// input as t) against MulRowHadamardInto32. The shapes put K off the
// quad and blockK grids and the widths off the eight-lane grid, and
// include the single-column layer. Even rows of every block open with
// an all-zero quad and end in t = 0, and both sit in front of an Inf
// weight: the zero skips must keep the Inf (and the NaN 0*Inf would
// make) out of those rows' sums, exactly as the per-row kernels do.
func TestMulRowsKernelsMatchPerRow(t *testing.T) {
	defer setSIMD(simdEnabled())
	const rows = 9
	for _, simd := range []bool{true, false} {
		setSIMD(simd)
		rng := rand.New(rand.NewSource(19))
		for _, sh := range [][2]int{{3, 5}, {9, 17}, {131, 33}, {385, 12}, {130, 1}} {
			K, n := sh[0], sh[1]
			b := RandNormal(rng, K, n, 1)
			b.Set(0, 0, math.Inf(1))
			b.Set(K-1, n-1, math.Inf(-1))
			b32 := Dense32From(b)
			a := RandNormal(rng, rows, K, 1)
			x := randSlice32(rng, K-1)
			ys := make([][]float32, rows)
			ts := make([]float32, rows)
			for i := range ys {
				ys[i] = randSlice32(rng, K-1)
				ts[i] = float32(a.At(i, K-1))
				if i%2 == 0 {
					for k := 0; k < min(4, K); k++ {
						a.Set(i, k, 0)
						if k < K-1 {
							ys[i][k] = 0
						}
					}
					a.Set(i, K-1, 0)
					ts[i] = 0
				}
			}
			want := New(rows, n)
			want32 := New32(rows, n)
			for i := 0; i < rows; i++ {
				MulRowInto(want.Row(i), a.Row(i), b)
				MulRowHadamardInto32(want32.Row(i), x, ys[i], ts[i], b32)
			}
			for nb := 1; nb <= rows; nb++ {
				arows := make([][]float64, nb)
				got := make([][]float64, nb)
				got32 := make([][]float32, nb)
				for i := range arows {
					arows[i] = a.Row(i)
					got[i] = make([]float64, n)
					got32[i] = make([]float32, n)
					for j := range got[i] { // stale scratch must not leak in
						got[i][j], got32[i][j] = math.NaN(), float32(math.NaN())
					}
				}
				MulRowsInto(got, arows, b)
				MulRowsHadamardInto32(got32, x, ys[:nb], ts[:nb], b32)
				for i := range got {
					for j := range got[i] {
						w, w32 := want.At(i, j), want32.Row(i)[j]
						if math.Float64bits(got[i][j]) != math.Float64bits(w) {
							t.Fatalf("simd=%v K=%d n=%d block %d row %d col %d: MulRowsInto %v != MulRowInto %v", simd, K, n, nb, i, j, got[i][j], w)
						}
						if math.Float32bits(got32[i][j]) != math.Float32bits(w32) {
							t.Fatalf("simd=%v d=%d h=%d block %d row %d col %d: MulRowsHadamardInto32 %v != MulRowHadamardInto32 %v", simd, K-1, n, nb, i, j, got32[i][j], w32)
						}
						if i%2 == 0 && (math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(float64(w32)) || math.IsInf(float64(w32), 0)) {
							t.Fatalf("simd=%v K=%d n=%d row %d col %d: the Inf behind a zero quad leaked in (%v, %v)", simd, K, n, i, j, w, w32)
						}
					}
				}
			}
		}
	}
}
