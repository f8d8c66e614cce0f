package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		v := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		switch rng.Intn(16) {
		case 0:
			v = 0
		case 1:
			v = -v
		}
		out[i] = v
	}
	return out
}

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
			b4 := randSlice32(rng, 4*n)
			a := randSlice32(rng, 4)
			dst := randSlice32(rng, n)
			want := append([]float32(nil), dst...)
			mulAddRows4Go(want, b4, a[0], a[1], a[2], a[3])
			dst512 := append([]float32(nil), dst...)
			mulAddRows4AVX2F32(dst, b4, a[0], a[1], a[2], a[3])
			for j := range dst {
				if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
					t.Fatalf("mulAddRows432 n=%d j=%d: avx2 %v != go %v", n, j, dst[j], want[j])
				}
			}
			if cpuSupportsAVX512() {
				mulAddRows4AVX512F32(dst512, b4, a[0], a[1], a[2], a[3])
				for j := range dst512 {
					if math.Float32bits(dst512[j]) != math.Float32bits(want[j]) {
						t.Fatalf("mulAddRows432 n=%d j=%d: avx512 %v != go %v", n, j, dst512[j], want[j])
					}
				}
			}

			b := randSlice32(rng, n)
			dst = randSlice32(rng, n)
			want = append(want[:0:0], dst...)
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
