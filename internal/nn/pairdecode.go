package nn

import (
	"unsafe"

	"dssddi/internal/mat"
)

// PairDecoder is the fused pair-decode kernel of the scoring engine:
// it evaluates a two-layer MLP decoder over inputs of the form
// concat(a⊙b, t) — the paper's MLP([h_i ⊙ h'_v, T_iv]) — a block of
// pairs at a time, without materializing the gathered-row, Hadamard or
// concatenated matrices the batched path builds. It is generic over
// the serving precision T.
//
// Layer 1 is linear over the concatenation, so its weight matrix
// splits by input row into the interaction block W_inter (rows 0..d-1)
// and the treatment row w_t (row d); mat.MulRowsHadamardInto computes
// (a⊙b)·W_inter + t·w_t directly from the operand rows, accumulating
// each pair in MulRowInto's order. The output layer runs through
// mat.DotCol. At float64 every logit is therefore bitwise identical
// to the batched MatMul/AddRow/activation pipeline for any worker
// count.
//
// The float64 decoder (NewPairDecoder) reads the MLP's live weight
// matrices, not copies, so it stays valid across optimizer steps; the
// float32 decoder (NewPairDecoder32) owns rounded copies.
type PairDecoder[T mat.Float] struct {
	w1     []T // (d+1) x h row-major — W_inter stacked on w_t
	b1     []T // layer-1 bias row
	w2     []T // h x 1 output layer as a column
	b2     []T // output bias (length 1)
	act    Activation
	outAct Activation
	d, h   int
}

// NewPairDecoder builds the fused float64 kernel for a decoder MLP. It
// supports the MD decoder shape — exactly two linear layers ending in
// a scalar — and reports ok=false for anything else.
func NewPairDecoder(m *MLP) (*PairDecoder[float64], bool) {
	if m == nil || len(m.Layers) != 2 {
		return nil, false
	}
	l1, l2 := m.Layers[0], m.Layers[1]
	if l2.W.Cols() != 1 || l1.W.Rows() < 2 || l1.W.Cols() != l2.W.Rows() {
		return nil, false
	}
	return &PairDecoder[float64]{
		w1:     l1.W.Data(),
		b1:     l1.B.Row(0),
		w2:     l2.W.Data(),
		b2:     l2.B.Row(0),
		act:    m.Act,
		outAct: m.OutAct,
		d:      l1.W.Rows() - 1,
		h:      l1.W.Cols(),
	}, true
}

// NewPairDecoder32 derives the float32 decoder from a float64 one by
// rounding each weight to the nearest float32 — deterministic, so a
// given snapshot always derives the same f32 decoder, and its
// divergence from the f64 oracle comes only from f32 arithmetic.
func NewPairDecoder32(p *PairDecoder[float64]) *PairDecoder[float32] {
	return &PairDecoder[float32]{
		w1:     mat.Floats32(p.w1),
		b1:     mat.Floats32(p.b1),
		w2:     mat.Floats32(p.w2),
		b2:     mat.Floats32(p.b2),
		act:    p.act,
		outAct: p.outAct,
		d:      p.d,
		h:      p.h,
	}
}

// Dims returns the interaction width d and the hidden width h; scratch
// rows for LogitsInto hold h elements, and its coefficient scratch
// mat.PairCoefLen(d).
func (p *PairDecoder[T]) Dims() (d, h int) { return p.d, p.h }

// Bytes returns the resident size of the decoder weights — its term of
// the serving memory accounting.
func (p *PairDecoder[T]) Bytes() int {
	return int(unsafe.Sizeof(T(0))) * (len(p.w1) + len(p.b1) + len(p.w2) + len(p.b2))
}

// Logit scores one (a, b, t) pair: LogitsInto on a block of one. hid
// (length ≥ h) is caller-owned scratch; the coefficient scratch is
// allocated per call.
func (p *PairDecoder[T]) Logit(a, b []T, t T, hid []T) float64 {
	var out [1]float64
	p.LogitsInto(out[:], a, [][]T{b}, []T{t}, [][]T{hid[:p.h]}, make([]T, mat.PairCoefLen(p.d)))
	return out[0]
}

// LogitsInto scores a block of pairs sharing a: dst[i] is the decoder
// output for concat(a⊙bs[i], ts[i]), widened to float64 so callers
// rank and sigmoid every precision alike. A pair's logit does not
// depend on the block it is decoded in. Each bs[i] holds exactly d
// elements; hid is caller-owned scratch holding at least len(dst) rows
// of exactly h elements and coef at least mat.PairCoefLen(d) elements,
// both clobbered on every call; nothing allocates.
func (p *PairDecoder[T]) LogitsInto(dst []float64, a []T, bs [][]T, ts []T, hid [][]T, coef []T) {
	hid = hid[:len(dst)]
	mat.MulRowsHadamardInto(hid, a[:p.d], bs, ts, p.w1, coef)
	for i, h := range hid {
		dst[i] = p.head(h)
	}
}

// head finishes a pair from its layer-1 projection hid: bias,
// activation, then the scalar output layer.
func (p *PairDecoder[T]) head(hid []T) float64 {
	if p.act == ActLeakyReLU {
		// One fused, branch-free pass over the hidden row; identical
		// element formulas to the separate bias add + activation.
		mat.AddBiasLeakyInto(hid, p.b1, 0.01)
	} else {
		for j, v := range hid {
			hid[j] = T(ActivateScalar(p.act, float64(v+p.b1[j])))
		}
	}
	return ActivateScalar(p.outAct, float64(mat.DotCol(hid, p.w2)+p.b2[0]))
}
