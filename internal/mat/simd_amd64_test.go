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
