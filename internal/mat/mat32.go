package mat

import (
	"fmt"
	"math"
)

// Dense32 is a row-major dense matrix of float32 — the serving
// engine's quantized representation of frozen model state (drug
// representations, decoder weights, treatment rows). It is
// deliberately minimal: the f32 path is inference-only, so Dense32
// carries just the accessors the fused kernels need.
type Dense32 struct {
	rows, cols int
	data       []float32
}

// New32 returns a zeroed rows x cols float32 matrix.
func New32(rows, cols int) *Dense32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense32{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// Dense32From converts m to float32, rounding each element to the
// nearest representable value (IEEE round-to-nearest-even — the
// conversion is deterministic, so the same snapshot always derives the
// same f32 blob).
func Dense32From(m *Dense) *Dense32 {
	out := New32(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = float32(v)
	}
	return out
}

// Rows returns the number of rows.
func (m *Dense32) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense32) Cols() int { return m.cols }

// Data returns the underlying row-major backing slice.
func (m *Dense32) Data() []float32 { return m.data }

// Row returns row i as a slice sharing the matrix's backing store.
func (m *Dense32) Row(i int) []float32 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Bytes returns the resident size of the matrix payload — the explicit
// byte accounting the serving memory metrics report.
func (m *Dense32) Bytes() int { return 4 * len(m.data) }

// Floats32 converts src to a fresh []float32.
func Floats32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}

// Dot32 is the float32 dot product of two equal-length vectors,
// accumulated through the eight-lane vector kernel (bitwise identical
// with the vector path on or off).
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot32 length mismatch %d vs %d", len(a), len(b)))
	}
	return dot8x32(a, b)
}

// MulRowHadamardInto32 is the fused pair-decode input projection:
//
//	dst[j] = Σ_{k<d} (x[k]*y[k]) * b[k][j]  +  t * b[d][j]
//
// with d = len(x) and b a (d+1) x len(dst) weight matrix — the first
// decoder layer applied to concat(x⊙y, t) without materializing the
// Hadamard product or the concatenation. The per-quad coefficients are
// formed scalar-side and fed straight to the mulAddRows4 kernel, so
// the whole layer runs in four-row vector steps. Zero coefficient
// quads are skipped like MulRowInto's.
func MulRowHadamardInto32(dst, x, y []float32, t float32, b *Dense32) {
	d := len(x)
	if len(y) != d || b.rows != d+1 || len(dst) != b.cols {
		panic(fmt.Sprintf("mat: MulRowHadamardInto32 shape mismatch dst[%d] = concat(x[%d]⊙y[%d], t) * %dx%d",
			len(dst), len(x), len(y), b.rows, b.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	k := 0
	for ; k+3 < d; k += 4 {
		a0 := x[k] * y[k]
		a1 := x[k+1] * y[k+1]
		a2 := x[k+2] * y[k+2]
		a3 := x[k+3] * y[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		mulAddRows432(dst, b.data[k*b.cols:(k+4)*b.cols], a0, a1, a2, a3)
	}
	for ; k < d; k++ {
		if av := x[k] * y[k]; av != 0 {
			mulAddRow132(dst, b.Row(k), av)
		}
	}
	if t != 0 {
		mulAddRow132(dst, b.Row(d), t)
	}
}

// MulRowsHadamardInto32 is MulRowHadamardInto32 for a block of pairs
// sharing x:
//
//	dst[i] = concat(x⊙ys[i], t[i]) * b
//
// Each pair gets exactly the operations MulRowHadamardInto32 runs for
// it — the same coefficient products, quads, tail, treatment row and
// zero skips, in the same order — so every output is bitwise identical
// to the per-pair kernel. The quad loop is outermost, so each 4-row
// slab of b serves the whole block while it is cache-hot.
func MulRowsHadamardInto32(dst [][]float32, x []float32, ys [][]float32, t []float32, b *Dense32) {
	d := len(x)
	if len(ys) != len(dst) || len(t) != len(dst) || b.rows != d+1 {
		panic(fmt.Sprintf("mat: MulRowsHadamardInto32 got %d dst rows, %d y rows, %d t values for x[%d] * %dx%d",
			len(dst), len(ys), len(t), d, b.rows, b.cols))
	}
	for i, y := range ys {
		if len(y) != d || len(dst[i]) != b.cols {
			panic(fmt.Sprintf("mat: MulRowsHadamardInto32 shape mismatch dst[%d] = concat(x[%d]⊙y[%d], t) * %dx%d",
				len(dst[i]), d, len(y), b.rows, b.cols))
		}
	}
	for _, row := range dst {
		clear(row)
	}
	k := 0
	for ; k+3 < d; k += 4 {
		b4 := b.data[k*b.cols : (k+4)*b.cols]
		for i, y := range ys {
			a0 := x[k] * y[k]
			a1 := x[k+1] * y[k+1]
			a2 := x[k+2] * y[k+2]
			a3 := x[k+3] * y[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			mulAddRows432(dst[i], b4, a0, a1, a2, a3)
		}
	}
	for ; k < d; k++ {
		brow := b.Row(k)
		for i, y := range ys {
			if av := x[k] * y[k]; av != 0 {
				mulAddRow132(dst[i], brow, av)
			}
		}
	}
	brow := b.Row(d)
	for i, tv := range t {
		if tv != 0 {
			mulAddRow132(dst[i], brow, tv)
		}
	}
}

// Quant8 is a row-quantized int8 matrix: each row carries its own
// affine (scale, offset) pair, chosen so the row's value range maps
// onto [-127, 127]. One element costs 1 byte plus the amortized 8
// bytes per row — the experimental int8 serving representation of the
// drug-representation matrix.
type Quant8 struct {
	rows, cols int
	data       []int8
	scale      []float32
	offset     []float32
}

// Quantize8 builds the per-row affine int8 quantization of m.
// Dequantizing element (i, j) yields
// float32(q[i][j])*scale[i] + offset[i]; a constant row quantizes
// exactly (scale 0, offset = the constant).
func Quantize8(m *Dense32) *Quant8 {
	q := &Quant8{
		rows:   m.rows,
		cols:   m.cols,
		data:   make([]int8, m.rows*m.cols),
		scale:  make([]float32, m.rows),
		offset: make([]float32, m.rows),
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		if len(row) == 0 {
			continue
		}
		lo, hi := row[0], row[0]
		for _, v := range row[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		off := (hi + lo) / 2
		scale := (hi - lo) / 254
		q.offset[i], q.scale[i] = off, scale
		if scale == 0 {
			continue // constant row: every element dequantizes to off
		}
		out := q.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			r := math.RoundToEven(float64((v - off) / scale))
			switch {
			case r > 127:
				r = 127
			case r < -127:
				r = -127
			}
			out[j] = int8(r)
		}
	}
	return q
}

// Rows returns the number of rows.
func (q *Quant8) Rows() int { return q.rows }

// Cols returns the number of columns.
func (q *Quant8) Cols() int { return q.cols }

// Bytes returns the resident size of the quantized payload: 1 byte per
// element plus the per-row scale/offset pairs.
func (q *Quant8) Bytes() int { return len(q.data) + 4*len(q.scale) + 4*len(q.offset) }

// DequantRowInto reconstructs row i into dst (length ≥ Cols), the
// fused dequantization step of the int8 scoring path.
func (q *Quant8) DequantRowInto(dst []float32, i int) {
	row := q.data[i*q.cols : (i+1)*q.cols]
	scale, off := q.scale[i], q.offset[i]
	dst = dst[:len(row)]
	for j, v := range row {
		dst[j] = float32(v)*scale + off
	}
}
