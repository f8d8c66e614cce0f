// Package mat provides dense float64 matrices and the small set of
// linear-algebra kernels the rest of the library is built on.
//
// The package is deliberately minimal: row-major dense storage, no
// views/strides, explicit dimension checks that panic on programmer
// error. All neural-network code (internal/ag, internal/nn) and all
// classical models (internal/baselines) sit on top of it.
//
// Kernels are cache-blocked and row-parallel over the shared pool in
// internal/par (see parallel.go); SetWorkers tunes the worker count
// and results are bitwise identical for any setting.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64.
//
// The zero value is an empty 0x0 matrix. Use New, NewFrom or the
// random constructors in rand.go to create populated matrices.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFrom wraps the given backing slice (len must be rows*cols) without
// copying. The caller must not alias data afterwards.
func NewFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: NewFrom backing slice has len %d, want %d", len(data), rows*cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Unallocated returns a rows x cols matrix without storage: a
// placeholder fixing the shape a reader fills in (see
// snapshot.Decoder.MatrixInto), which allocates the storage as the
// data arrives rather than up front. Its elements must not be used
// before then.
func Unallocated(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: FromRows ragged input: row %d has %d cols, want %d", i, len(r), c))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Data returns the underlying row-major backing slice.
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's backing store.
// The panic lives in a separate function so Row inlines into kernels.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		m.rowPanic(i)
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

//go:noinline
func (m *Dense) rowPanic(i int) {
	panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddScaled performs m += s*other element-wise in place.
func (m *Dense) AddScaled(other *Dense, s float64) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("mat: AddScaled shape mismatch %dx%d vs %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	t := getKern(kAddScaled)
	t.dst, t.a, t.s = m, other, s
	t.run(len(m.data), ewGrain)
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// MatMul computes a*b into a new matrix. Panics on inner-dimension
// mismatch.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MatMul inner mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a*b, reusing dst's storage. dst must be
// a.rows x b.cols and must not alias a or b. The kernel is k-blocked
// and row-parallel (see parallel.go); output is bitwise identical for
// any worker count.
func MatMulInto(dst, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MatMulInto shape mismatch dst %dx%d = %dx%d * %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	getKern(kMatMul).runMM(dst, a, b, a.rows, rowGrain(a.cols*b.cols))
}

// MatMulTransA computes aᵀ*b into a new matrix (a is m x n, result n x p).
func MatMulTransA(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MatMulTransA mismatch %dx%d ᵀ* %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.cols, b.cols)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransB computes a*bᵀ into a new matrix (a is m x n, b is p x n,
// result m x p).
func MatMulTransB(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MatMulTransB mismatch %dx%d * %dx%dᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.rows)
	MatMulTransBInto(out, a, b)
	return out
}

// AddMat returns a+b as a new matrix.
func AddMat(a, b *Dense) *Dense {
	sameShape("AddMat", a, b)
	out := a.Clone()
	out.AddScaled(b, 1)
	return out
}

// SubMat returns a-b as a new matrix.
func SubMat(a, b *Dense) *Dense {
	sameShape("SubMat", a, b)
	out := a.Clone()
	out.AddScaled(b, -1)
	return out
}

// Hadamard returns the element-wise product a⊙b as a new matrix.
func Hadamard(a, b *Dense) *Dense {
	sameShape("Hadamard", a, b)
	out := New(a.rows, a.cols)
	HadamardInto(out, a, b)
	return out
}

// Apply returns a new matrix with f applied element-wise.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	out := New(m.rows, m.cols)
	ApplyInto(out, m, f)
	return out
}

// ConcatCols returns [a | b] (horizontal concatenation).
func ConcatCols(a, b *Dense) *Dense {
	out := New(a.rows, a.cols+b.cols)
	ConcatColsInto(out, a, b)
	return out
}

// ConcatColsInto computes dst = [a | b], reusing dst's storage.
func ConcatColsInto(dst, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: ConcatCols row mismatch %d vs %d", a.rows, b.rows))
	}
	if dst.rows != a.rows || dst.cols != a.cols+b.cols {
		panic(fmt.Sprintf("mat: ConcatColsInto shape mismatch dst %dx%d = [%dx%d | %dx%d]",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	for i := 0; i < a.rows; i++ {
		copy(dst.Row(i)[:a.cols], a.Row(i))
		copy(dst.Row(i)[a.cols:], b.Row(i))
	}
}

// GatherRows returns a new matrix whose i-th row is m's idx[i]-th row.
func (m *Dense) GatherRows(idx []int) *Dense {
	out := New(len(idx), m.cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto computes dst[i] = src[idx[i]], reusing dst's storage.
func GatherRowsInto(dst, src *Dense, idx []int) {
	if dst.rows != len(idx) || dst.cols != src.cols {
		panic(fmt.Sprintf("mat: GatherRowsInto shape mismatch dst %dx%d, src %dx%d, %d indices",
			dst.rows, dst.cols, src.rows, src.cols, len(idx)))
	}
	t := getKern(kGather)
	t.dst, t.a, t.idx = dst, src, idx
	t.run(len(idx), rowGrain(src.cols))
}

// AddInto computes dst = a+b in one fused pass, reusing dst's storage
// (dst may alias a or b).
func AddInto(dst, a, b *Dense) {
	sameShape("AddInto", dst, a)
	sameShape("AddInto", a, b)
	t := getKern(kAddEl)
	t.dst, t.a, t.b = dst, a, b
	t.run(len(dst.data), ewGrain)
}

// SubInto computes dst = a-b in one fused pass, reusing dst's storage
// (dst may alias a or b).
func SubInto(dst, a, b *Dense) {
	sameShape("SubInto", dst, a)
	sameShape("SubInto", a, b)
	t := getKern(kSubEl)
	t.dst, t.a, t.b = dst, a, b
	t.run(len(dst.data), ewGrain)
}

// ScaleInto computes dst = s*a in one fused pass, reusing dst's
// storage (dst may alias a).
func ScaleInto(dst, a *Dense, s float64) {
	sameShape("ScaleInto", dst, a)
	t := getKern(kScaleEl)
	t.dst, t.a, t.s = dst, a, s
	t.run(len(dst.data), ewGrain)
}

func sameShape(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// EuclideanDistance returns ‖a-b‖₂.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: EuclideanDistance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0
// if either vector is zero.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Sigmoid is the numerically stable logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// SumAll returns the sum of all elements.
func (m *Dense) SumAll() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// String renders a small matrix for debugging; large matrices are
// summarised by shape.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
