package mat

import (
	"math"
	"math/rand"
	"testing"
)

// tileCase is one input pattern of the register tile test.
type tileCase struct {
	name string
	// zeroQuad, when set, gives the last pair of every block an
	// all-zero quad, which sends the block to the per-quad kernel: it
	// returns the quad's first row at interaction width d, or -1 where
	// the case does not apply.
	zeroQuad func(d int) int
	// fill rewrites the inputs drawn for the case.
	fill func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int)
}

var tileCases = []tileCase{
	{name: "random"},
	{name: "signed zeros", fill: func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int) {
		// Exact ±0 coefficients everywhere, but no quad of them.
		for p, y := range ys {
			for k := range y {
				if k%5 == p%5 {
					y[k] = math.Copysign(0, float64(1-2*(k%2)))
				}
			}
			if p%3 == 0 {
				ts[p] = math.Copysign(0, float64(1-2*(p%2)))
			}
		}
	}},
	{name: "subnormal", fill: func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int) {
		// Coefficients and products below the normal range of both
		// precisions: x·y ≈ 1e-320 at float64, 1e-40 at float32
		// (scaled when narrowed).
		for k := range x {
			if k%3 != 0 {
				x[k] *= 1e-160
			}
		}
		for _, y := range ys {
			for k := range y {
				if k%2 == 0 {
					y[k] *= 1e-160
				}
			}
		}
	}},
	{name: "inf nan", fill: func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int) {
		// In the first and the last column, so no sum meets two NaNs,
		// whose payload order the Go reference leaves open.
		w[rng.Intn(len(w)/h)*h] = math.Inf(1)
		w[rng.Intn(len(w)/h)*h+h-1] = math.NaN()
	}},
	// Each zero quad has an Inf behind it: only a skip keeps it out.
	{name: "zero quad", zeroQuad: func(d int) int {
		if d < 8 {
			return -1
		}
		return 4
	}, fill: func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int) {
		if len(x) >= 8 {
			w[4*h] = math.Inf(1)
		}
	}},
	{name: "zero treatment quad", zeroQuad: func(d int) int {
		if d%4 != 3 {
			return -1
		}
		return d - 3
	}, fill: func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int) {
		w[len(x)*h] = math.Inf(1)
	}},
	// In column 0 every product of a pair underflows to −0 at float32,
	// so its first FMA, and every later step, leaves −0; only the last
	// full quad, all zero, sits in front of positive weights. Adding it
	// would turn the −0 into +0: only the skip keeps the −0.
	{name: "zero quad after −0", zeroQuad: lastQuad, fill: func(rng *rand.Rand, x []float64, ys [][]float64, ts, w []float64, h int) {
		d := len(x)
		k := lastQuad(d)
		if k < 0 {
			return
		}
		pos := func() float64 { return 1 + rng.Float64() }
		for i := range x {
			x[i] = pos()
		}
		for p, y := range ys {
			for i := range y {
				y[i] = pos() * 1e-30
			}
			ts[p] = pos() * 1e-30
		}
		for r := 0; r <= d; r++ {
			if w[r*h] = -pos() * 1e-20; r >= k && r < k+4 {
				w[r*h] = pos()
			}
		}
	}},
}

// lastQuad returns the first row of the last full quad at interaction
// width d, or -1 when there are fewer than two quads.
func lastQuad(d int) int {
	if nq := (d + 1) / 4; nq >= 2 {
		return 4 * (nq - 1)
	}
	return -1
}

// TestPairTileBitwise checks the register tile of the AVX-512 pair
// decode (pairTiles64 and pairTiles32) against pairQuadsGo over the Go
// reference quads, bit for bit: interaction widths d around the
// serving width 384 (every d % 4, so the treatment coefficient closes
// the last quad at 383) and small ones whose quads end inside a panel,
// hidden widths on and off the chunk grid (at float32 also widths
// whose last pass of two chunks has a full first chunk and a partial
// second, 24 and 56, or an empty second, 400), blocks of 1 to 8 pairs,
// and the inputs of tileCases. Where a block has no all-zero quad the
// tile must have run; where it has one, the per-quad kernel. Finally
// the kernels run zero quads themselves, which is exact for finite W1
// and sums that are not −0.
func TestPairTileBitwise(t *testing.T) {
	t.Logf("vector level %s; this CPU: AVX-512F %v, FMA %v", SIMD(), cpuSupportsAVX512(), cpuSupportsFMA())
	if !cpuSupportsAVX512() || !cpuSupportsFMA() {
		t.Skip("the CPU lacks AVX-512F or FMA, so the register tile never runs here")
	}
	ds := []int{3, 23, 70, 383, 384, 385, 386}
	t.Run("f64", func(t *testing.T) {
		checkPairTile(t, ds, []int{8, 13, 40, 384}, pairTiles64, pairTileAVX512, quadProductsAVX2, mulAddRows4Go[float64])
	})
	t.Run("f32", func(t *testing.T) {
		checkPairTile(t, ds, []int{8, 16, 24, 40, 48, 56, 384, 400}, pairTiles32, pairTileAVX512F32, quadProductsAVX2F32, quadFMAGo)
	})
}

func checkPairTile[T Float](t *testing.T, ds, hs []int,
	tiles func(dst [][]T, x []T, ys [][]T, ts []T, w, coef []T),
	kernel func(rows *[tilePairs]*T, n int, coef, w []T, h int),
	products func(c, x, y []T) bool,
	quad func(dst, w4 []T, a0, a1, a2, a3 T)) {
	rng := rand.New(rand.NewSource(31))
	narrow := func(v []float64) []T {
		out := make([]T, len(v))
		for i, f := range v {
			out[i] = T(f)
		}
		if _, f32 := any(out).([]float32); f32 {
			for i, f := range v { // the subnormal case's 1e-160 becomes 1e-20
				if f != 0 && math.Abs(f) < 1e-100 {
					out[i] = T(f * 1e140)
				}
			}
		}
		return out
	}
	for _, d := range ds {
		for _, h := range hs {
			for _, tc := range tileCases {
				x64, w64, ts64 := normals(rng, d), normals(rng, (d+1)*h), normals(rng, tilePairs)
				ys64 := make([][]float64, tilePairs)
				for p := range ys64 {
					ys64[p] = normals(rng, d)
				}
				if tc.fill != nil {
					tc.fill(rng, x64, ys64, ts64, w64, h)
				}
				x, w, ts := narrow(x64), narrow(w64), narrow(ts64)
				ys := make([][]T, tilePairs)
				for p := range ys {
					ys[p] = narrow(ys64[p])
				}
				want := tileRows[T](tilePairs, h, 0)
				pairQuadsGo(want, x, ys, ts, w, quad)
				for nb := 1; nb <= tilePairs; nb++ {
					bys, bts, ref := ys[:nb], ts[:nb], want[:nb]
					zero := tc.zeroQuad != nil
					if zero {
						k := tc.zeroQuad(d)
						if k < 0 {
							break
						}
						bys = append([][]T(nil), bys...)
						bys[nb-1] = append([]T(nil), bys[nb-1]...)
						clear(bys[nb-1][k:min(k+4, d)])
						if bts = append([]T(nil), bts...); k+3 == d {
							bts[nb-1] = 0
						}
						ref = tileRows[T](nb, h, 0)
						pairQuadsGo(ref, x, bys, bts, w, quad)
					}
					var rows [tilePairs]*T
					coef := make([]T, PairCoefLen(d))
					if ran := pairTileSetup(&rows, coef, ref, x, bys, bts, products) > 0; ran == zero {
						t.Fatalf("%T %s d=%d h=%d block %d: tile ran %v, want %v", T(0), tc.name, d, h, nb, ran, !zero)
					}
					got := tileRows[T](nb, h, T(math.NaN())) // both paths set the rows
					tiles(got, x, bys, bts, w, coef)
					compareTileRows(t, tc.name, d, h, nb, got, ref)
				}
			}
		}
	}

	// The kernels on their own, with all-zero quads in every pair,
	// finite W1 and products far from underflow: no sum is −0, so
	// adding a zero quad's ±0 changes no bit against pairQuadsGo, which
	// skips it. The rows start as NaN: the first panel must set them,
	// not add to them.
	for _, d := range ds {
		for _, h := range hs {
			x, w := narrow(normals(rng, d)), narrow(normals(rng, (d+1)*h))
			ys, ts := make([][]T, tilePairs), narrow(normals(rng, tilePairs))
			for p := range ys {
				ys[p] = narrow(normals(rng, d))
				for k := 4 * (p % 3); k+3 < d; k += 12 {
					clear(ys[p][k : k+4])
				}
			}
			want := tileRows[T](tilePairs, h, 0)
			pairQuadsGo(want, x, ys, ts, w, quad)
			nq := (d + 1) / 4
			coef := make([]T, PairCoefLen(d))
			for p, y := range ys {
				for k := 0; k < 4*nq; k++ {
					c := ts[p]
					if k < d {
						c = x[k] * y[k]
					}
					coef[(k/4*tilePairs+p)*4+k%4] = c
				}
			}
			for nb := 1; nb <= tilePairs; nb++ {
				got := tileRows[T](nb, h, T(math.NaN()))
				var rows [tilePairs]*T
				for p := range rows {
					rows[p] = &got[min(p, nb-1)][0]
				}
				pad := append([]T(nil), coef...) // padding pairs carry zero coefficients
				for q := 0; q < nq; q++ {
					clear(pad[(q*tilePairs+nb)*4 : (q+1)*tilePairs*4])
				}
				kernel(&rows, nb, pad[:nq*4*tilePairs], w, h)
				compareTileRows(t, "zero quads in the kernel", d, h, nb, got, want[:nb])
			}
		}
	}
}

// normals draws n standard normal values, about one in eight negated
// to a different magnitude so sums cancel.
func normals(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			out[i] *= -1e3
		}
	}
	return out
}

// tileRows returns n rows of width h filled with v.
func tileRows[T Float](n, h int, v T) [][]T {
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = make([]T, h)
		for j := range rows[i] {
			rows[i][j] = v
		}
	}
	return rows
}

func compareTileRows[T Float](t *testing.T, name string, d, h, nb int, got, want [][]T) {
	t.Helper()
	for p := range got {
		for j, g := range got[p] {
			if floatBits(g) != floatBits(want[p][j]) {
				t.Fatalf("%T %s d=%d h=%d block %d pair %d col %d: got %v (%#x), want %v (%#x)",
					g, name, d, h, nb, p, j, g, floatBits(g), want[p][j], floatBits(want[p][j]))
			}
		}
	}
}

// floatBits returns v's IEEE-754 encoding.
func floatBits[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}
