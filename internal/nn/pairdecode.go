package nn

import "dssddi/internal/mat"

// PairDecoder is the fused pair-decode kernel of the scoring engine:
// it evaluates a two-layer MLP decoder over inputs of the form
// concat(a⊙b, t) — the paper's MLP([h_i ⊙ h'_v, T_iv]) — one pair at
// a time, without materializing the gathered-row, Hadamard or
// concatenated matrices the batched path builds.
//
// Layer 1 is linear over the concatenation, so its weight matrix
// splits by input row into the interaction block W_inter (rows 0..d-1)
// and the treatment row w_t (row d); the fused evaluation computes
// (a⊙b)·W_inter + t·w_t + b1 directly from the operand rows. The
// accumulation runs through mat.MulRowInto over a d+1 scratch row, so
// every output is bitwise identical to the batched
// MatMul/AddRow/activation pipeline for any worker count.
//
// The decoder holds references to the MLP's live weight matrices (not
// copies), so it stays valid across optimizer steps.
type PairDecoder struct {
	w1     *mat.Dense // (d+1) x h — W_inter stacked on w_t
	b1     []float64  // layer-1 bias row
	w2     *mat.Dense // h x 1
	b2     []float64  // layer-2 bias row (length 1)
	act    Activation
	outAct Activation
	d, h   int
}

// NewPairDecoder builds the fused kernel for a decoder MLP. It
// supports the MD decoder shape — exactly two plain linear layers
// (no BatchNorm) ending in a scalar — and reports ok=false for
// anything else, letting callers fall back to the batched path.
func NewPairDecoder(m *MLP) (*PairDecoder, bool) {
	if m == nil || len(m.Layers) != 2 {
		return nil, false
	}
	for _, bn := range m.Norms {
		if bn != nil {
			return nil, false
		}
	}
	l1, l2 := m.Layers[0], m.Layers[1]
	if l2.W.Cols() != 1 || l1.W.Rows() < 2 || l1.W.Cols() != l2.W.Rows() {
		return nil, false
	}
	return &PairDecoder{
		w1:     l1.W,
		b1:     l1.B.Row(0),
		w2:     l2.W,
		b2:     l2.B.Row(0),
		act:    m.Act,
		outAct: m.OutAct,
		d:      l1.W.Rows() - 1,
		h:      l1.W.Cols(),
	}, true
}

// Dims returns the interaction width d and the hidden width h; scratch
// for Logit needs d+1 and h elements.
func (p *PairDecoder) Dims() (d, h int) { return p.d, p.h }

// Bytes returns the resident size of the referenced decoder weights —
// the f64 term of the serving memory accounting, comparable with
// PairDecoder32.Bytes.
func (p *PairDecoder) Bytes() int {
	return 8 * ((p.d+1)*p.h + len(p.b1) + p.h + len(p.b2))
}

// Logit scores one (a, b, t) pair: the decoder output for
// concat(a⊙b, t). inter (length ≥ d+1) and hid (length ≥ h) are
// caller-owned scratch, clobbered on every call; nothing is retained
// and nothing allocates, so one scratch pair serves any number of
// sequential calls.
func (p *PairDecoder) Logit(a, b []float64, t float64, inter, hid []float64) float64 {
	inter = inter[:p.d+1]
	mat.HadamardRowInto(inter[:p.d], a[:p.d], b[:p.d])
	inter[p.d] = t

	hid = hid[:p.h]
	mat.MulRowInto(hid, inter, p.w1)
	return p.head(hid, inter[:1]) // layer-1 input is dead; reuse its scratch
}

// LogitsInto scores a block of pairs sharing a: dst[i] = Logit(a,
// bs[i], ts[i]), bit for bit. The layer-1 projection runs through
// mat.MulRowsInto, so each slab of W1 is loaded once per block instead
// of once per pair. inter and hid are caller-owned scratch holding at
// least len(dst) rows of exactly d+1 and h elements, clobbered on
// every call; nothing allocates.
func (p *PairDecoder) LogitsInto(dst, a []float64, bs [][]float64, ts []float64, inter, hid [][]float64) {
	n := len(dst)
	inter, hid = inter[:n], hid[:n]
	for i, in := range inter {
		mat.HadamardRowInto(in[:p.d], a[:p.d], bs[i][:p.d])
		in[p.d] = ts[i]
	}
	mat.MulRowsInto(hid, inter, p.w1)
	for i, h := range hid {
		dst[i] = p.head(h, inter[i][:1])
	}
}

// head finishes a pair from its layer-1 projection hid: bias,
// activation, then the scalar output layer through the one-element
// scratch out.
func (p *PairDecoder) head(hid, out []float64) float64 {
	if p.act == ActLeakyReLU {
		// One fused, branch-free pass over the hidden row; identical
		// element formulas to the separate bias add + activation.
		mat.AddBiasLeakyInto(hid, p.b1, 0.01)
	} else {
		for j := range hid {
			hid[j] += p.b1[j]
		}
		ActivateRow(p.act, hid)
	}
	mat.MulRowInto(out, hid, p.w2)
	return ActivateScalar(p.outAct, out[0]+p.b2[0])
}
