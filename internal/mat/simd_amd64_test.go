package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestSIMDKernelsBitwise checks every vector kernel against its scalar
// reference, bit for bit, across lengths that exercise the quad loops
// and every tail size.
func TestSIMDKernelsBitwise(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			b4 := randSlice(rng, 4*n)
			a := randSlice(rng, 4)
			dst := randSlice(rng, n)
			want := append([]float64(nil), dst...)
			mulAddRows4Go(want, b4, a[0], a[1], a[2], a[3])
			dst512 := append([]float64(nil), dst...)
			mulAddRows4AVX2(dst, b4, a[0], a[1], a[2], a[3])
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("mulAddRows4 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}
			if cpuSupportsAVX512() {
				mulAddRows4AVX512(dst512, b4, a[0], a[1], a[2], a[3])
				for j := range dst512 {
					if math.Float64bits(dst512[j]) != math.Float64bits(want[j]) {
						t.Fatalf("mulAddRows4 n=%d j=%d: avx512 %v != go %v", n, j, dst512[j], want[j])
					}
				}
			}

			b := randSlice(rng, n)
			dst = randSlice(rng, n)
			want = append(want[:0:0], dst...)
			mulAddRow1Go(want, b, a[0])
			mulAddRow1AVX2(dst, b, a[0])
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("mulAddRow1 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}

			x, y := randSlice(rng, n), randSlice(rng, n)
			if got, ref := dot4AVX2(x, y), dot4Go(x, y); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("dot4 n=%d: avx2 %v != go %v", n, got, ref)
			}

			dst = make([]float64, n)
			want = make([]float64, n)
			hadamardIntoGo(want, x, y)
			hadamardIntoAVX2(dst, x, y)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("hadamard n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}

			dst = randSlice(rng, n)
			bias := randSlice(rng, n)
			if n > 4 {
				dst[0], dst[1], dst[2] = 0, math.Copysign(0, -1), math.NaN()
				bias[3] = -dst[3]                                            // v = +0 via cancellation
				dst[4], bias[4] = math.Copysign(0, -1), math.Copysign(0, -1) // v = -0
			}
			want = append(want[:0:0], dst...)
			addBiasLeakyGo(want, bias, 0.01)
			addBiasLeakyAVX2(dst, bias, 0.01)
			for j := range dst {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("addBiasLeaky n=%d j=%d: avx2 %v != go %v (in %v bias %v)", n, j, dst[j], want[j], dst, bias)
				}
			}
		}
	}
}

// TestMulRowsHadamardIntoSetsRows checks that MulRowsHadamardInto sets
// its rows on every path of the pair decode, at both precisions, so
// that only the paths which add into the rows clear them: a run on
// rows pre-filled with NaN must match a run on cleared rows, bit for
// bit. Each case picks its path by the vector level (as DSSDDI_SIMD
// caps it) and its inputs, and skips where the level is not available.
func TestMulRowsHadamardIntoSetsRows(t *testing.T) {
	defer func(avx2, fma, avx512 bool) { useAVX2, useFMA, useAVX512 = avx2, fma, avx512 }(useAVX2, useFMA, useAVX512)
	cases := []struct {
		name, level string
		d           int
		zeroQuad    bool // pair 0 has an all-zero quad
	}{
		{"register tile", "avx512", 70, false},
		{"tile zero-quad fallback", "avx512", 70, true},
		{"no full quad", "avx512", 2, false},
		{"per-quad kernels", "avx2", 70, false},
		{"go", "none", 70, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			useAVX2, useFMA, useAVX512 = detectSIMD()
			switch tc.level {
			case "none":
				useAVX2, useFMA, useAVX512 = false, false, false
			case "avx2":
				useAVX512 = false
			}
			if SIMD() != tc.level || useAVX2 && !useFMA {
				t.Skipf("level %s is not available here", tc.level)
			}
			checkSetsRows[float64](t, tc.d, tc.zeroQuad)
			checkSetsRows[float32](t, tc.d, tc.zeroQuad)
		})
	}
}

func checkSetsRows[T Float](t *testing.T, d int, zeroQuad bool) {
	const pairs, h = 9, 40 // a full tile block, then one pair
	rng := rand.New(rand.NewSource(41))
	vec := func(n int) []T {
		out := make([]T, n)
		for i, v := range randSlice(rng, n) {
			out[i] = T(v)
		}
		return out
	}
	x, w, ts := vec(d), vec((d+1)*h), vec(pairs)
	ys := make([][]T, pairs)
	for i := range ys {
		ys[i] = vec(d)
	}
	if zeroQuad {
		clear(ys[0][:4])
	}
	run := func(fill T) [][]T {
		dst := tileRows(pairs, h, fill)
		MulRowsHadamardInto(dst, x, ys, ts, w, make([]T, PairCoefLen(d)))
		return dst
	}
	compareTileRows(t, "NaN-filled rows against cleared ones", d, h, pairs, run(T(math.NaN())), run(0))
}
