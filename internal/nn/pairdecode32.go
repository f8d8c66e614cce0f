package nn

import "dssddi/internal/mat"

// PairDecoder32 is the float32 serving twin of PairDecoder: the same
// fused evaluation of the two-layer decoder over concat(a⊙b, t), run
// entirely in float32 through the eight-lane vector kernels. Unlike
// PairDecoder it owns converted copies of the weights (the f64
// matrices stay the accuracy oracle), built deterministically by
// rounding each f64 parameter to the nearest float32 — so a given
// snapshot always derives the same f32 decoder, and its divergence
// from the f64 oracle comes only from f32 arithmetic, never from the
// conversion.
type PairDecoder32 struct {
	w1     *mat.Dense32 // (d+1) x h — W_inter stacked on w_t
	b1     []float32    // layer-1 bias row
	w2col  []float32    // h x 1 output layer as a column vector
	b2     float32      // layer-2 bias
	act    Activation
	outAct Activation
	d, h   int
}

// NewPairDecoder32 derives the float32 twin of a fused decoder.
func NewPairDecoder32(p *PairDecoder) *PairDecoder32 {
	w2col := make([]float32, p.h)
	for j := 0; j < p.h; j++ {
		w2col[j] = float32(p.w2.At(j, 0))
	}
	return &PairDecoder32{
		w1:     mat.Dense32From(p.w1),
		b1:     mat.Floats32(p.b1),
		w2col:  w2col,
		b2:     float32(p.b2[0]),
		act:    p.act,
		outAct: p.outAct,
		d:      p.d,
		h:      p.h,
	}
}

// Dims returns the interaction width d and the hidden width h; scratch
// for Logit needs h elements (the fused projection never materializes
// the d+1 interaction row).
func (p *PairDecoder32) Dims() (d, h int) { return p.d, p.h }

// Bytes returns the resident size of the converted weights — the f32
// decoder's contribution to the serving memory accounting.
func (p *PairDecoder32) Bytes() int {
	return p.w1.Bytes() + 4*len(p.b1) + 4*len(p.w2col) + 4
}

// Logit scores one (a, b, t) pair in float32: the decoder output for
// concat(a⊙b, t), returned widened to float64 so callers can rank and
// sigmoid it alongside the f64 path. hid (length ≥ h) is caller-owned
// scratch, clobbered on every call; nothing is retained and nothing
// allocates. The layer-1 input projection is fused
// (mat.MulRowHadamardInto32), so no d+1 interaction row exists at all.
func (p *PairDecoder32) Logit(a, b []float32, t float32, hid []float32) float64 {
	hid = hid[:p.h]
	mat.MulRowHadamardInto32(hid, a[:p.d], b[:p.d], t, p.w1)
	return p.head(hid)
}

// LogitsInto scores a block of pairs sharing a: dst[i] = Logit(a,
// bs[i], ts[i]), bit for bit, with the layer-1 projection run once per
// block through mat.MulRowsHadamardInto32. Each bs[i] holds exactly d
// elements; hid is caller-owned scratch holding at least len(dst) rows
// of exactly h elements, clobbered on every call; nothing allocates.
func (p *PairDecoder32) LogitsInto(dst []float64, a []float32, bs [][]float32, ts []float32, hid [][]float32) {
	hid = hid[:len(dst)]
	mat.MulRowsHadamardInto32(hid, a[:p.d], bs, ts, p.w1)
	for i, h := range hid {
		dst[i] = p.head(h)
	}
}

// head finishes a pair from its layer-1 projection hid: bias,
// activation and the scalar output layer, widened to float64.
func (p *PairDecoder32) head(hid []float32) float64 {
	if p.act == ActLeakyReLU {
		mat.AddBiasLeakyInto32(hid, p.b1, 0.01)
	} else {
		for j := range hid {
			hid[j] += p.b1[j]
		}
		p.activateRow32(hid)
	}
	out := mat.Dot32(hid, p.w2col) + p.b2
	return ActivateScalar(p.outAct, float64(out))
}

// activateRow32 applies the hidden activation in place on a float32
// row, with the f32 analogue of ActivateRow's element formulas.
func (p *PairDecoder32) activateRow32(xs []float32) {
	switch p.act {
	case ActReLU:
		for i, v := range xs {
			if v <= 0 {
				xs[i] = 0
			}
		}
	case ActLeakyReLU:
		for i, v := range xs {
			if v <= 0 {
				xs[i] = 0.01 * v
			}
		}
	default:
		for i, v := range xs {
			xs[i] = float32(ActivateScalar(p.act, float64(v)))
		}
	}
}
