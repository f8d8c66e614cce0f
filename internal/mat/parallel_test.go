package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// shapes covers the awkward cases: empty, scalar, odd, tall, wide, and
// zero inner dimension.
var shapes = []struct {
	name    string
	m, k, n int
}{
	{"empty", 0, 0, 0},
	{"scalar", 1, 1, 1},
	{"odd", 3, 5, 7},
	{"tall", 257, 3, 5},
	{"wide", 3, 5, 257},
	{"innerZero", 4, 0, 5},
	{"rowVec", 1, 64, 33},
	{"colVec", 65, 33, 1},
	{"square", 48, 48, 48},
	{"big", 130, 70, 90},
}

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			d[i] = 0 // exercise the zero-skip path
		}
	}
	return m
}

// withWorkers runs f under worker count w, restoring the default.
func withWorkers(w int, f func()) {
	SetWorkers(w)
	defer SetWorkers(0)
	f()
}

// serialThenParallel evaluates kernel once with 1 worker and once with
// 4, returning both results.
func serialThenParallel(kernel func() *Dense) (serial, parallel *Dense) {
	withWorkers(1, func() { serial = kernel() })
	withWorkers(4, func() { parallel = kernel() })
	return
}

func maxAbsDiff(t *testing.T, a, b *Dense) float64 {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	var mx float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if d := math.Abs(ad[i] - bd[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// TestParallelMatchesSerial is the table-driven serial-vs-parallel
// equivalence check across every matmul variant and shape. The kernels
// are designed to be bitwise identical, so the 1e-12 bound of the
// acceptance criteria is checked with margin to spare.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			a := randDense(rng, sh.m, sh.k)
			b := randDense(rng, sh.k, sh.n)
			at := randDense(rng, sh.k, sh.m) // for aᵀ*b with result m x n
			bt := randDense(rng, sh.n, sh.k) // for a*bᵀ with result m x n
			acc := randDense(rng, sh.m, sh.n)

			kernels := []struct {
				name string
				f    func() *Dense
			}{
				{"MatMul", func() *Dense { return MatMul(a, b) }},
				{"MatMulInto", func() *Dense {
					dst := New(sh.m, sh.n)
					MatMulInto(dst, a, b)
					return dst
				}},
				{"MatMulTransA", func() *Dense { return MatMulTransA(at, b) }},
				{"MatMulTransAAddInto", func() *Dense {
					dst := acc.Clone()
					MatMulTransAAddInto(dst, at, b)
					return dst
				}},
				{"MatMulTransB", func() *Dense { return MatMulTransB(a, bt) }},
				{"MatMulTransBAddInto", func() *Dense {
					dst := acc.Clone()
					MatMulTransBAddInto(dst, a, bt)
					return dst
				}},
			}
			for _, k := range kernels {
				s, p := serialThenParallel(k.f)
				if d := maxAbsDiff(t, s, p); d > 1e-12 {
					t.Errorf("%s: serial vs parallel max |diff| = %g", k.name, d)
				}
			}
		})
	}
}

// TestElementwiseParallelMatchesSerial covers the fused element-wise
// kernels over a size big enough to split across workers.
func TestElementwiseParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 300, 301)
	b := randDense(rng, 300, 301)
	c := randDense(rng, 300, 301)

	kernels := []struct {
		name string
		f    func() *Dense
	}{
		{"Hadamard", func() *Dense { return Hadamard(a, b) }},
		{"AddHadamard", func() *Dense {
			dst := c.Clone()
			dst.AddHadamard(a, b)
			return dst
		}},
		{"Apply", func() *Dense { return a.Apply(math.Exp) }},
		{"ApplyInPlace", func() *Dense {
			dst := a.Clone()
			dst.ApplyInPlace(Sigmoid)
			return dst
		}},
		{"AddScaled", func() *Dense {
			dst := c.Clone()
			dst.AddScaled(a, 0.37)
			return dst
		}},
		{"ZipAddInto", func() *Dense {
			dst := c.Clone()
			ZipAddInto(dst, a, b, func(x, y float64) float64 { return x * math.Tanh(y) })
			return dst
		}},
		{"GatherRows", func() *Dense {
			idx := make([]int, 500)
			for i := range idx {
				idx[i] = (i * 7) % a.Rows()
			}
			return a.GatherRows(idx)
		}},
		{"RepRowInto", func() *Dense {
			dst := New(400, a.Cols())
			RepRowInto(dst, a.Row(0))
			return dst
		}},
	}
	for _, k := range kernels {
		s, p := serialThenParallel(k.f)
		if d := maxAbsDiff(t, s, p); d != 0 {
			t.Errorf("%s: serial vs parallel max |diff| = %g, want bitwise identity", k.name, d)
		}
	}
}

// TestWorkerCountInvariance checks a chained computation (the shape of
// a GCN layer) is identical across several worker counts.
func TestWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randDense(rng, 97, 64)
	w := randDense(rng, 64, 32)
	var ref *Dense
	for _, workers := range []int{1, 2, 3, 4, 7} {
		var got *Dense
		withWorkers(workers, func() {
			h := MatMul(x, w)
			h.ApplyInPlace(math.Tanh)
			got = MatMulTransA(h, h)
		})
		if ref == nil {
			ref = got
			continue
		}
		if d := maxAbsDiff(t, ref, got); d != 0 {
			t.Fatalf("workers=%d: result differs from workers=1 by %g", workers, d)
		}
	}
}

// TestConcurrentMatMulInto hammers the kernels from many goroutines
// sharing input matrices (distinct outputs). Run with -race in CI.
func TestConcurrentMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 120, 80)
	b := randDense(rng, 80, 60)
	want := MatMul(a, b)

	withWorkers(4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 12; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := New(a.Rows(), b.Cols())
				for iter := 0; iter < 20; iter++ {
					MatMulInto(dst, a, b)
				}
				if d := maxAbsDiff(t, want, dst); d != 0 {
					t.Errorf("concurrent MatMulInto diverged by %g", d)
				}
			}()
		}
		wg.Wait()
	})
}
