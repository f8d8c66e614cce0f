package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
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

func denseBitsEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	g, w := got.Data(), want.Data()
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s element %d: simd %v != scalar %v", name, i, g[i], w[i])
		}
	}
}

// TestMatMulSIMDOnOffBitwise proves whole-kernel outputs do not depend
// on the vector path: MatMul, both transposed matmuls, Hadamard and
// AddScaled produce identical bits with SIMD forced off.
func TestMatMulSIMDOnOffBitwise(t *testing.T) {
	if !simdEnabled() {
		t.Skip("no vector unit on this platform")
	}
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {64, 131, 48}, {10, 4, 4}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := RandNormal(rng, m, k, 1)
		b := RandNormal(rng, k, n, 1)
		bt := RandNormal(rng, n, k, 1)
		c := RandNormal(rng, m, n, 1)

		run := func() [5]*Dense {
			add := c.Clone()
			add.AddScaled(Hadamard(c, c), -0.7)
			return [5]*Dense{MatMul(a, b), MatMulTransA(a, c), MatMulTransB(a, bt), Hadamard(c, c), add}
		}
		got := run()
		setSIMD(false)
		want := run()
		setSIMD(true)
		for i, name := range []string{"MatMul", "MatMulTransA", "MatMulTransB", "Hadamard", "AddScaled"} {
			denseBitsEqual(t, name, got[i], want[i])
		}
	}
}
