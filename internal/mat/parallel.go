package mat

import (
	"sync"

	"dssddi/internal/par"
)

// The kernels in this file are the parallel, cache-blocked backend for
// the public API in mat.go. Parallelism is row-partitioned through the
// shared pool in internal/par: each goroutine owns a disjoint,
// contiguous range of output rows (or of the flat element slice for
// element-wise ops) and accumulates in the same per-element order as
// the serial loop, so results are bitwise identical for any worker
// count. SetWorkers(1) runs everything on the calling goroutine.
//
// Every kernel dispatches through a pooled kernTask worker rather than
// a func literal, so a kernel invocation performs no heap allocation —
// the hot training loop calls these hundreds of times per epoch.

// SetWorkers sets the process-wide worker count used by all mat and
// sparse kernels. n <= 0 resets to runtime.GOMAXPROCS(0); 1 restores
// exact-serial execution.
func SetWorkers(n int) { par.SetWorkers(n) }

// Workers returns the effective kernel worker count.
func Workers() int { return par.Workers() }

const (
	// blockK is the k-tile height of the blocked matmul kernels: a
	// blockK x cols panel of the streamed operand stays hot in cache
	// while being applied to the rows a goroutine owns.
	blockK = 128
	// minFlopsPerTask is the smallest amount of matmul work worth
	// shipping to another goroutine.
	minFlopsPerTask = 32768
	// ewGrain is the per-chunk element count for element-wise kernels.
	ewGrain = 1 << 15
)

// RowGrain returns the minimum rows per parallel task given the
// work (flops or elements moved) of a single row, so each task
// carries enough to amortise dispatch. Shared by the consumers that
// row-partition their own loops (internal/ag and friends).
func RowGrain(workPerRow int) int {
	if workPerRow <= 0 {
		return 1 << 30 // no per-row work: stay serial
	}
	g := minFlopsPerTask / workPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// rowGrain is the package-internal spelling.
func rowGrain(workPerRow int) int { return RowGrain(workPerRow) }

// Kernel kinds dispatched by kernTask.Chunk.
const (
	kMatMul uint8 = iota
	kTransAOver
	kTransAAdd
	kTransBOver
	kTransBAdd
	kHadamard
	kAddHadamard
	kAddScaled
	kApply
	kApplyInPlace
	kZipAdd
	kZipSet
	kGather
	kRepRow
	kAddRow
	kAddEl
	kSubEl
	kScaleEl
)

// kernTask carries one kernel invocation's operands through the worker
// pool. Instances are recycled via kernPool so kernels allocate
// nothing per call.
type kernTask struct {
	kind      uint8
	dst, a, b *Dense
	f         func(float64) float64
	zf        func(av, bv float64) float64
	s         float64
	idx       []int
	row       []float64
}

var kernPool = sync.Pool{New: func() any { return new(kernTask) }}

func getKern(kind uint8) *kernTask {
	t := kernPool.Get().(*kernTask)
	t.kind = kind
	return t
}

// run dispatches the task over [0, n) and recycles it.
func (t *kernTask) run(n, grain int) {
	par.Run(n, grain, t)
	*t = kernTask{}
	kernPool.Put(t)
}

// Chunk implements par.Worker.
func (t *kernTask) Chunk(lo, hi int) {
	switch t.kind {
	case kMatMul:
		matMulRange(t.dst, t.a, t.b, lo, hi)
	case kTransAOver:
		matMulTransARange(t.dst, t.a, t.b, lo, hi, true)
	case kTransAAdd:
		matMulTransARange(t.dst, t.a, t.b, lo, hi, false)
	case kTransBOver:
		matMulTransBRange(t.dst, t.a, t.b, lo, hi, true)
	case kTransBAdd:
		matMulTransBRange(t.dst, t.a, t.b, lo, hi, false)
	case kHadamard:
		dd, ad, bd := t.dst.data, t.a.data, t.b.data
		hadamardSlices(dd[lo:hi], ad[lo:hi], bd[lo:hi])
	case kAddHadamard:
		dd, ad, bd := t.dst.data, t.a.data, t.b.data
		for i := lo; i < hi; i++ {
			dd[i] += float64(ad[i] * bd[i])
		}
	case kAddScaled:
		dd, ad := t.dst.data, t.a.data
		mulAddRow1(dd[lo:hi], ad[lo:hi], t.s)
	case kApply:
		dd, ad, f := t.dst.data, t.a.data, t.f
		for i := lo; i < hi; i++ {
			dd[i] = f(ad[i])
		}
	case kApplyInPlace:
		dd, f := t.dst.data, t.f
		for i := lo; i < hi; i++ {
			dd[i] = f(dd[i])
		}
	case kZipAdd:
		dd, ad, bd, zf := t.dst.data, t.a.data, t.b.data, t.zf
		for i := lo; i < hi; i++ {
			dd[i] += zf(ad[i], bd[i])
		}
	case kZipSet:
		dd, ad, bd, zf := t.dst.data, t.a.data, t.b.data, t.zf
		for i := lo; i < hi; i++ {
			dd[i] = zf(ad[i], bd[i])
		}
	case kGather:
		for i := lo; i < hi; i++ {
			copy(t.dst.Row(i), t.a.Row(t.idx[i]))
		}
	case kRepRow:
		for i := lo; i < hi; i++ {
			copy(t.dst.Row(i), t.row)
		}
	case kAddRow:
		for i := lo; i < hi; i++ {
			arow := t.a.Row(i)
			drow := t.dst.Row(i)
			for j, av := range arow {
				drow[j] = av + t.row[j]
			}
		}
	case kAddEl:
		dd, ad, bd := t.dst.data, t.a.data, t.b.data
		for i := lo; i < hi; i++ {
			dd[i] = ad[i] + bd[i]
		}
	case kSubEl:
		dd, ad, bd := t.dst.data, t.a.data, t.b.data
		for i := lo; i < hi; i++ {
			dd[i] = ad[i] - bd[i]
		}
	case kScaleEl:
		dd, ad, s := t.dst.data, t.a.data, t.s
		for i := lo; i < hi; i++ {
			dd[i] = s * ad[i]
		}
	}
}

// scratchPool recycles the per-chunk accumulation buffers of the fused
// gradient kernels (mat's transposed matmuls and sparse's SpMM — see
// GetScratch). Stored as *[]float64 so Put doesn't allocate a box.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// GetScratch returns a zeroed scratch buffer of length n from a
// process-wide pool. Pair with PutScratch. Safe for concurrent use
// (pool workers grab chunk scratch through it).
func GetScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
		return p
	}
	*p = (*p)[:n]
	for i := range *p {
		(*p)[i] = 0
	}
	return p
}

// PutScratch returns a buffer obtained from GetScratch to the pool.
func PutScratch(p *[]float64) { scratchPool.Put(p) }

// matMulRange computes dst[lo:hi] = a[lo:hi] * b with a k-blocked ikj
// loop. Four k-panels are fused per pass over the output row, cutting
// the dst loads/stores to a quarter; rows are independent, so results
// stay bitwise identical for any worker count or chunking.
func matMulRange(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
	}
	K := a.cols
	for kb := 0; kb < K; kb += blockK {
		ke := kb + blockK
		if ke > K {
			ke = K
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)[kb:ke]
			drow := dst.Row(i)
			k := 0
			for ; k+3 < len(arow); k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue // one-hot and sparse-ish inputs skip whole panels
				}
				mulAddRows4(drow, b.data[(kb+k)*b.cols:(kb+k+4)*b.cols], a0, a1, a2, a3)
			}
			for ; k < len(arow); k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				mulAddRow1(drow, b.Row(kb+k), av)
			}
		}
	}
}

// matMulTransARange computes dst[lo:hi] = (or +=) (aᵀ*b)[lo:hi].
// Output rows index a's columns; terms accumulate in ascending-k
// order. Overwrite mode zeroes the owned dst rows and accumulates in
// place; accumulate mode builds the product in a pooled scratch block
// and lands it on dst with one add per element (matching the
// temp-matrix-then-AddScaled numerics of the serial gradient path).
func matMulTransARange(dst, a, b *Dense, lo, hi int, overwrite bool) {
	cols := dst.cols
	var out []float64
	var scratch *[]float64
	if overwrite {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			for j := range drow {
				drow[j] = 0
			}
		}
		out = dst.data[lo*cols : hi*cols]
	} else {
		scratch = GetScratch((hi - lo) * cols)
		out = *scratch
	}
	k := 0
	for ; k+3 < a.rows; k += 4 { // four k-panels per pass over the output
		ar0, ar1, ar2, ar3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b4 := b.data[k*b.cols : (k+4)*b.cols]
		for i := lo; i < hi; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			mulAddRows4(out[(i-lo)*cols:(i-lo+1)*cols], b4, a0, a1, a2, a3)
		}
	}
	for ; k < a.rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			mulAddRow1(out[(i-lo)*cols:(i-lo+1)*cols], brow, av)
		}
	}
	if overwrite {
		return
	}
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		srow := out[(i-lo)*cols : (i-lo+1)*cols]
		for j, sv := range srow {
			drow[j] += sv
		}
	}
	PutScratch(scratch)
}

// matMulTransBRange computes dst[lo:hi] = (or +=) (a*bᵀ)[lo:hi] as a
// row of dot products per output row.
func matMulTransBRange(dst, a, b *Dense, lo, hi int, overwrite bool) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.rows; j++ {
			v := dot4(arow, b.Row(j))
			if overwrite {
				drow[j] = v
			} else {
				drow[j] += v
			}
		}
	}
}

func (t *kernTask) runMM(dst, a, b *Dense, n, grain int) {
	t.dst, t.a, t.b = dst, a, b
	t.run(n, grain)
}

// MatMulTransAInto computes dst = aᵀ*b. dst must be a.cols x b.cols.
func MatMulTransAInto(dst, a, b *Dense) {
	checkTransA(dst, a, b)
	getKern(kTransAOver).runMM(dst, a, b, a.cols, rowGrain(a.rows*b.cols))
}

// MatMulTransAAddInto accumulates dst += aᵀ*b, the fused form of the
// dB = Aᵀ*dOut gradient update (no temporary gradient matrix).
func MatMulTransAAddInto(dst, a, b *Dense) {
	checkTransA(dst, a, b)
	getKern(kTransAAdd).runMM(dst, a, b, a.cols, rowGrain(a.rows*b.cols))
}

// MatMulTransBInto computes dst = a*bᵀ. dst must be a.rows x b.rows.
func MatMulTransBInto(dst, a, b *Dense) {
	checkTransB(dst, a, b)
	getKern(kTransBOver).runMM(dst, a, b, a.rows, rowGrain(a.cols*b.rows))
}

// MatMulTransBAddInto accumulates dst += a*bᵀ, the fused form of the
// dA = dOut*Bᵀ gradient update.
func MatMulTransBAddInto(dst, a, b *Dense) {
	checkTransB(dst, a, b)
	getKern(kTransBAdd).runMM(dst, a, b, a.rows, rowGrain(a.cols*b.rows))
}

func checkTransA(dst, a, b *Dense) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic("mat: MatMulTransA shape mismatch")
	}
}

func checkTransB(dst, a, b *Dense) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic("mat: MatMulTransB shape mismatch")
	}
}

// HadamardInto computes dst = a⊙b element-wise.
func HadamardInto(dst, a, b *Dense) {
	sameShape("HadamardInto", dst, a)
	sameShape("HadamardInto", a, b)
	getKern(kHadamard).runMM(dst, a, b, len(dst.data), ewGrain)
}

// AddHadamard accumulates m += a⊙b element-wise — the fused form of
// the Hadamard gradient updates (dA += dOut⊙B, dB += dOut⊙A).
func (m *Dense) AddHadamard(a, b *Dense) {
	sameShape("AddHadamard", m, a)
	sameShape("AddHadamard", a, b)
	getKern(kAddHadamard).runMM(m, a, b, len(m.data), ewGrain)
}

// ApplyInto computes dst = f(src) element-wise.
func ApplyInto(dst, src *Dense, f func(float64) float64) {
	sameShape("ApplyInto", dst, src)
	t := getKern(kApply)
	t.dst, t.a, t.f = dst, src, f
	t.run(len(dst.data), ewGrain)
}

// ApplyInPlace overwrites every element with f(element).
func (m *Dense) ApplyInPlace(f func(float64) float64) {
	t := getKern(kApplyInPlace)
	t.dst, t.f = m, f
	t.run(len(m.data), ewGrain)
}

// ZipAddInto accumulates dst += f(a, b) element-wise. The autodiff
// tape uses it to fuse activation backward passes (grad += dOut·f'(x))
// without a temporary matrix.
func ZipAddInto(dst, a, b *Dense, f func(av, bv float64) float64) {
	sameShape("ZipAddInto", dst, a)
	sameShape("ZipAddInto", a, b)
	t := getKern(kZipAdd)
	t.dst, t.a, t.b, t.zf = dst, a, b, f
	t.run(len(dst.data), ewGrain)
}

// ZipInto computes dst = f(a, b) element-wise — the overwrite form of
// ZipAddInto, used when the destination receives its first gradient
// contribution of the epoch (no zero + add passes).
func ZipInto(dst, a, b *Dense, f func(av, bv float64) float64) {
	sameShape("ZipInto", dst, a)
	sameShape("ZipInto", a, b)
	t := getKern(kZipSet)
	t.dst, t.a, t.b, t.zf = dst, a, b, f
	t.run(len(dst.data), ewGrain)
}

// RepRowInto fills every row of dst with a copy of row.
func RepRowInto(dst *Dense, row []float64) {
	if dst.cols != len(row) {
		panic("mat: RepRowInto width mismatch")
	}
	t := getKern(kRepRow)
	t.dst, t.row = dst, row
	t.run(dst.rows, rowGrain(len(row)))
}

// AddRowInto computes dst[i][j] = a[i][j] + row[j] — the broadcast bias
// add of a linear layer, shared by the tape op and the tape-free
// inference path so both produce bitwise-identical values.
func AddRowInto(dst, a *Dense, row []float64) {
	sameShape("AddRowInto", dst, a)
	if a.cols != len(row) {
		panic("mat: AddRowInto width mismatch")
	}
	t := getKern(kAddRow)
	t.dst, t.a, t.row = dst, a, row
	t.run(dst.rows, rowGrain(len(row)))
}
