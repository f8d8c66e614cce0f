package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWorkers compares the serial path against the pooled path; on a
// multi-core runner the /parallel variants should scale with cores.
var benchWorkers = []struct {
	name string
	n    int
}{
	{"serial", 1},
	{"parallel", 0}, // 0 = GOMAXPROCS
}

func benchMatMulInto(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, m, k)
	x := randDense(rng, k, n)
	dst := New(m, n)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.SetBytes(int64(8 * m * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, x)
			}
		})
	}
}

func BenchmarkMatMulInto128(b *testing.B) { benchMatMulInto(b, 128, 128, 128) }
func BenchmarkMatMulInto512(b *testing.B) { benchMatMulInto(b, 512, 512, 512) }
func BenchmarkMatMulIntoGCN(b *testing.B) { benchMatMulInto(b, 4157, 71, 64) } // paper-scale layer
func BenchmarkMatMulTransA(b *testing.B)  { benchTrans(b, MatMulTransA) }
func BenchmarkMatMulTransB(b *testing.B)  { benchTrans(b, MatMulTransB) }

func benchTrans(b *testing.B, f func(a, c *Dense) *Dense) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 512, 256)
	c := randDense(rng, 512, 256)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f(a, c)
			}
		})
	}
}

func BenchmarkHadamardInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 1024, 512)
	y := randDense(rng, 1024, 512)
	dst := New(1024, 512)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.SetBytes(int64(8 * 1024 * 512))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				HadamardInto(dst, x, y)
			}
		})
	}
}

func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 1024, 512)
	dst := New(1024, 512)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			SetWorkers(w.n)
			defer SetWorkers(0)
			b.ReportAllocs()
			b.SetBytes(int64(8 * 1024 * 512))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.AddScaled(x, 1e-9)
			}
		})
	}
}

// BenchmarkMulRowsHadamardInto is the layer-1 pair decode of one cold
// suggest at the serving shape (86 drugs against a 385x384 W1) at both
// precisions, in blocks of 1, 4, 8 and 16 drugs. Run it at -cpu 1.
func BenchmarkMulRowsHadamardInto(b *testing.B) {
	b.Run("f64", benchMulRowsHadamard[float64])
	b.Run("f32", benchMulRowsHadamard[float32])
}

func benchMulRowsHadamard[T Float](b *testing.B) {
	const drugs, d, h = 86, 384, 384
	rng := rand.New(rand.NewSource(1))
	vec := func(n int) []T {
		out := make([]T, n)
		for i := range out {
			out[i] = T(rng.NormFloat64())
		}
		return out
	}
	x, w, ts, coef := vec(d), vec((d+1)*h), vec(drugs), make([]T, PairCoefLen(d))
	ys, dst := make([][]T, drugs), make([][]T, drugs)
	for i := range ys {
		ys[i], dst[i] = vec(d), make([]T, h)
	}
	for _, block := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("block%d", block), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for lo := 0; lo < drugs; lo += block {
					hi := min(lo+block, drugs)
					MulRowsHadamardInto(dst[lo:hi], x, ys[lo:hi], ts[lo:hi], w, coef)
				}
			}
		})
	}
}
