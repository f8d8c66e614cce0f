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

// BenchmarkMulRowsInto is the layer-1 pair decode of one cold suggest
// at the serving shape (86 drugs against a 385x384 W1), one row at a
// time through MulRowInto and in blocks through MulRowsInto. Both
// produce the same bits; run it at -cpu 1.
func BenchmarkMulRowsInto(b *testing.B) {
	const drugs, k, h = 86, 385, 384
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, drugs, k)
	w := randDense(rng, k, h)
	dst := New(drugs, h)
	arows, drows := make([][]float64, drugs), make([][]float64, drugs)
	for i := range arows {
		arows[i], drows[i] = a.Row(i), dst.Row(i)
	}
	for _, block := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("block%d", block), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for lo := 0; lo < drugs; lo += block {
					hi := min(lo+block, drugs)
					if block == 1 {
						MulRowInto(drows[lo], arows[lo], w)
					} else {
						MulRowsInto(drows[lo:hi], arows[lo:hi], w)
					}
				}
			}
		})
	}
}
