package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestSIMDKernels32Bitwise checks every float32 vector kernel against
// its scalar reference, bit for bit, across lengths that exercise the
// eight-lane loops and every tail size.
func TestSIMDKernels32Bitwise(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			a := randSlice32(rng, 1)
			b := randSlice32(rng, n)
			dst := randSlice32(rng, n)
			want := append([]float32(nil), dst...)
			mulAddRow1Go(want, b, a[0])
			mulAddRow1AVX2F32(dst, b, a[0])
			for j := range dst {
				if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
					t.Fatalf("mulAddRow132 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}

			x, y := randSlice32(rng, n), randSlice32(rng, n)
			if got, ref := dot8AVX2F32(x, y), dot8Go32(x, y); math.Float32bits(got) != math.Float32bits(ref) {
				t.Fatalf("dot8x32 n=%d: avx2 %v != go %v", n, got, ref)
			}

			dst = randSlice32(rng, n)
			bias := randSlice32(rng, n)
			if n > 4 {
				dst[0], dst[1], dst[2] = 0, float32(math.Copysign(0, -1)), float32(math.NaN())
				bias[3] = -dst[3]                                                              // v = +0 via cancellation
				dst[4], bias[4] = float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)) // v = -0
			}
			want = append(want[:0:0], dst...)
			addBiasLeakyGo(want, bias, 0.01)
			addBiasLeakyAVX2F32(dst, bias, 0.01)
			for j := range dst {
				if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
					t.Fatalf("addBiasLeaky32 n=%d j=%d: avx2 %v != go %v (in %v bias %v)", n, j, dst[j], want[j], dst, bias)
				}
			}
		}
	}
}

// pairQuadKernels32 lists the assembly forms of pairQuads32 this CPU
// can run: the AVX2 kernel, which adds to dst, and with tile set, on
// AVX-512, the register tile through pairTiles32, which sets dst.
func pairQuadKernels32(tile bool) map[string]func(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32) {
	ks := map[string]func(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32){}
	if !cpuSupportsAVX2() || !cpuSupportsFMA() {
		return ks
	}
	ks["avx2"] = pairQuadsAVX2F32
	if tile && cpuSupportsAVX512() {
		ks["tile"] = func(dst [][]float32, x []float32, ys [][]float32, ts []float32, w []float32) {
			pairTiles32(dst, x, ys, ts, w, make([]float32, PairCoefLen(len(x))))
		}
	}
	return ks
}

// TestPairQuadKernels32Bitwise checks the float32 block kernel that
// adds to dst, AVX2, against pairQuadsGo with quadFMAGo, bit for bit, for
// blocks of 1 to 9 pairs, widths h off the 16- and 8-lane grids and
// interaction widths d off the quad grid (d % 4 == 3 included, where
// ts closes the last quad). Odd pairs open with an all-zero quad —
// and, at d % 4 == 3, end in one — in front of ±Inf weights, which
// only the zero skip keeps out of their sums; dst starts non-zero, so
// the kernels must accumulate.
func TestPairQuadKernels32Bitwise(t *testing.T) {
	kernels := pairQuadKernels32(false)
	if len(kernels) == 0 {
		t.Skip("no FMA vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{3, 4, 7, 9, 23, 130, 383} {
		for _, h := range []int{1, 5, 8, 15, 16, 23, 33, 47} {
			w := randSlice32(rng, (d+1)*h)
			w[0], w[4*h-1] = float32(math.Inf(1)), float32(math.Inf(-1))
			w[d*h] = float32(math.Inf(1))
			x := randSlice32(rng, d)
			for nb := 1; nb <= 9; nb++ {
				ys := make([][]float32, nb)
				ts := randSlice32(rng, nb)
				init := make([][]float32, nb)
				for i := range ys {
					ys[i], init[i] = randSlice32(rng, d), randSlice32(rng, h)
					if i%2 == 1 {
						clear(ys[i][:min(4, d)])
						if d%4 == 3 {
							clear(ys[i][d-3:])
							ts[i] = 0
						}
					}
				}
				want := cloneRows(init)
				pairQuadsGo(want, x, ys, ts, w, quadFMAGo)
				for name, kernel := range kernels {
					got := cloneRows(init)
					kernel(got, x, ys, ts, w)
					for i := range got {
						for j, g := range got[i] {
							if math.Float32bits(g) != math.Float32bits(want[i][j]) {
								t.Fatalf("%s d=%d h=%d block %d pair %d col %d: %v != go %v", name, d, h, nb, i, j, g, want[i][j])
							}
							if fg := float64(g); i%2 == 1 && (math.IsInf(fg, 0) || math.IsNaN(fg)) {
								t.Fatalf("%s d=%d h=%d pair %d col %d: the Inf behind a zero quad leaked in (%v)", name, d, h, i, j, g)
							}
						}
					}
				}
			}
		}
	}
}

func cloneRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = append([]float32(nil), r...)
	}
	return out
}

// specials are the edge values of the fma32 check: zeros, extremes of
// the normal and subnormal ranges, values whose products overflow or
// land on float32 midpoints, and infinities.
var specials = []float32{0, 1, 1 + 0x1p-23, 3, math.MaxFloat32, 0x1p-126, 0x1p-149, 0x1p64, 0x1p-75, float32(math.Inf(1))}

// TestFMA32MatchesHardware checks the exactly rounded fma32 against the
// FMA instructions of the block kernels: pair i runs the quad
// (1, a_i, 0, 0) against rows (c, b, 0, 0) on a cleared row, so lane j
// computes fma(a_i, b[j], c[j]+0)+0+0 — the FMAs of 1·c and 0·0 only
// turn a -0 into +0, and fma(a, b, c+0)+0 = fma(a, b, c)+0 for every
// c. Inputs are random, then the double-rounding class —
// a*b an exact float32 midpoint (odd 13-bit significands whose product
// lies in [2^24, 2^25), scaled by a power of two) plus a tiny c of
// either sign, where float32(math.FMA(a, b, c)) rounds the wrong way
// — then products and sums in the subnormal range, and special values
// (NaN results compare by bits too: both sides give the default NaN).
func TestFMA32MatchesHardware(t *testing.T) {
	kernels := pairQuadKernels32(true)
	if len(kernels) == 0 {
		t.Skip("no FMA vector unit on this platform")
	}
	const pairs, h = 64, 1024
	rng := rand.New(rand.NewSource(29))
	pow2 := func(e int) float32 { return float32(math.Ldexp(1, e)) }
	sign := func(v float32) float32 {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	random := func() float32 { return float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(60)-30)) }
	// Odd 13-bit values below √2^25, so any two multiply into [2^24, 2^25).
	odd13 := func() float32 { return float32(1<<12 + 2*rng.Intn(848) + 1) }
	special := func() float32 { return sign(specials[rng.Intn(len(specials))]) }
	cases := []struct {
		name string
		// round draws one block's inputs: a per pair, (b, c) per lane.
		round func() (pair func() float32, lane func() (b, c float32))
	}{
		{"random", func() (func() float32, func() (float32, float32)) {
			return random, func() (float32, float32) { return random(), random() }
		}},
		{"midpoint", func() (func() float32, func() (float32, float32)) {
			s := rng.Intn(40) - 20
			return func() float32 { return sign(odd13() * pow2(s)) },
				func() (float32, float32) {
					return odd13(), sign(float32(rng.Float64()+0.5) * pow2(s-30-rng.Intn(20)))
				}
		}},
		{"subnormal", func() (func() float32, func() (float32, float32)) {
			return func() float32 { return random() * pow2(-100) },
				func() (float32, float32) { return random() * pow2(-40), random() * pow2(-130) }
		}},
		{"special", func() (func() float32, func() (float32, float32)) {
			return special, func() (float32, float32) { return special(), special() }
		}},
	}
	for _, tc := range cases {
		for round := 0; round < 4; round++ {
			pair, lane := tc.round()
			w := make([]float32, 5*h)
			for j := 0; j < h; j++ {
				w[h+j], w[j] = lane()
			}
			ys := make([][]float32, pairs)
			for i := range ys {
				ys[i] = []float32{1, pair(), 0, 0}
			}
			for name, kernel := range kernels {
				dst := make([][]float32, pairs)
				for i := range dst {
					dst[i] = make([]float32, h)
				}
				kernel(dst, []float32{1, 1, 0, 0}, ys, make([]float32, pairs), w)
				for i := range dst {
					for j, g := range dst[i] {
						a, b, c := ys[i][1], w[h+j], w[j]
						if want := fma32(a, b, c) + 0; math.Float32bits(g) != math.Float32bits(want) {
							t.Fatalf("%s %s: fma(%g, %g, %g): hardware %g (%#x) != fma32 %g (%#x)",
								tc.name, name, a, b, c, g, math.Float32bits(g), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}
