// Package nn provides neural-network layers built on the ag autodiff
// tape: linear layers, multi-layer perceptrons, batch normalisation,
// embeddings and a GRU cell. Layers own their parameters; a Params
// registry collects them for the optimizer.
package nn

import (
	"math"
	"math/rand"

	"dssddi/internal/ag"
	"dssddi/internal/mat"
)

// Params is an ordered registry of trainable parameter matrices.
// Layers register their weights here so the optimizer can step them.
type Params struct {
	list []*mat.Dense
}

// Register adds p to the registry and returns it.
func (ps *Params) Register(p *mat.Dense) *mat.Dense {
	ps.list = append(ps.list, p)
	return p
}

// All returns the registered parameters in registration order.
func (ps *Params) All() []*mat.Dense { return ps.list }

// Count returns the total number of scalar parameters.
func (ps *Params) Count() int {
	var n int
	for _, p := range ps.list {
		n += p.Rows() * p.Cols()
	}
	return n
}

// Activation selects the nonlinearity applied by MLP hidden layers.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActLeakyReLU
	ActTanh
	ActSigmoid
	ActNone
)

func applyActivation(t *ag.Tape, x *ag.Node, a Activation) *ag.Node {
	switch a {
	case ActReLU:
		return t.ReLU(x)
	case ActLeakyReLU:
		return t.LeakyReLU(x, 0.01)
	case ActTanh:
		return t.Tanh(x)
	case ActSigmoid:
		return t.Sigmoid(x)
	default:
		return x
	}
}

// reluScalar and leakyReLUScalar are the shared element formulas of
// the ReLU activations; the batched and row-level forward paths both
// use them, so the two stay bitwise identical by construction.
func reluScalar(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

func leakyReLUScalar(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0.01 * v
}

// ForwardActivation applies the activation in place on a plain matrix —
// the tape-free counterpart of applyActivation, with element formulas
// identical to the tape ops.
func ForwardActivation(x *mat.Dense, a Activation) *mat.Dense {
	switch a {
	case ActReLU:
		x.ApplyInPlace(reluScalar)
	case ActLeakyReLU:
		x.ApplyInPlace(leakyReLUScalar)
	case ActTanh:
		x.ApplyInPlace(math.Tanh)
	case ActSigmoid:
		x.ApplyInPlace(mat.Sigmoid)
	}
	return x
}

// ActivateScalar applies a's element formula to one value.
func ActivateScalar(a Activation, v float64) float64 {
	switch a {
	case ActReLU:
		return reluScalar(v)
	case ActLeakyReLU:
		return leakyReLUScalar(v)
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return mat.Sigmoid(v)
	default:
		return v
	}
}

// ActivateRow applies a in place on a plain row — the row-level form
// of ForwardActivation, same element formulas, no kernel dispatch.
func ActivateRow(a Activation, xs []float64) {
	switch a {
	case ActReLU:
		for i, v := range xs {
			xs[i] = reluScalar(v)
		}
	case ActLeakyReLU:
		for i, v := range xs {
			xs[i] = leakyReLUScalar(v)
		}
	case ActTanh:
		for i, v := range xs {
			xs[i] = math.Tanh(v)
		}
	case ActSigmoid:
		for i, v := range xs {
			xs[i] = mat.Sigmoid(v)
		}
	}
}

// Linear is a fully connected layer y = x*W + b.
type Linear struct {
	W *mat.Dense
	B *mat.Dense
}

// NewLinear creates a Glorot-initialised linear layer and registers its
// parameters. A nil rng leaves the weights and bias unallocated
// (mat.Unallocated), for a layer whose parameters are decoded rather
// than trained.
func NewLinear(rng *rand.Rand, ps *Params, in, out int) *Linear {
	if rng == nil {
		return &Linear{W: ps.Register(mat.Unallocated(in, out)), B: ps.Register(mat.Unallocated(1, out))}
	}
	return &Linear{
		W: ps.Register(mat.GlorotUniform(rng, in, out)),
		B: ps.Register(mat.New(1, out)),
	}
}

// Apply runs the layer on the tape.
func (l *Linear) Apply(t *ag.Tape, x *ag.Node) *ag.Node {
	return t.AddBias(t.MatMul(x, t.Param(l.W)), t.Param(l.B))
}

// Forward runs the layer on a plain matrix: same kernels and operation
// order as Apply (bitwise identical values), no graph nodes.
func (l *Linear) Forward(x *mat.Dense) *mat.Dense {
	out := mat.MatMul(x, l.W)
	mat.AddRowInto(out, out, l.B.Row(0))
	return out
}

// MLP is a stack of linear layers with a shared hidden activation. The
// output layer is linear (no activation) unless OutAct is set.
type MLP struct {
	Layers []*Linear
	Act    Activation
	OutAct Activation
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes =
// [in, hidden, out].
func NewMLP(rng *rand.Rand, ps *Params, sizes []int, act Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least [in, out] sizes")
	}
	m := &MLP{Act: act, OutAct: ActNone}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, ps, sizes[i], sizes[i+1]))
	}
	return m
}

// Apply runs the MLP on the tape.
func (m *MLP) Apply(t *ag.Tape, x *ag.Node) *ag.Node {
	h := x
	for i, l := range m.Layers {
		h = l.Apply(t, h)
		if i < len(m.Layers)-1 {
			h = applyActivation(t, h, m.Act)
		} else {
			h = applyActivation(t, h, m.OutAct)
		}
	}
	return h
}

// Forward runs the MLP on a plain matrix: bitwise identical to Apply's
// values, no graph nodes or backward machinery. It serves encoders
// that run on request paths (MD's patient encoder and inductive
// inputs) and is the batched reference of ForwardRow and PairDecoder.
func (m *MLP) Forward(x *mat.Dense) *mat.Dense {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(h)
		if i < len(m.Layers)-1 {
			h = ForwardActivation(h, m.Act)
		} else {
			h = ForwardActivation(h, m.OutAct)
		}
	}
	return h
}

// MaxWidth returns the widest layer output — the scratch size
// ForwardRow needs.
func (m *MLP) MaxWidth() int {
	var w int
	for _, l := range m.Layers {
		if c := l.W.Cols(); c > w {
			w = c
		}
	}
	return w
}

// OutDim returns the output width of the final layer.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].W.Cols() }

// InDim returns the input width of the first layer.
func (m *MLP) InDim() int { return m.Layers[0].W.Rows() }

// ForwardRow runs the MLP on a single input row without allocating:
// dst receives the output (length OutDim), buf1 and buf2 are
// ping-pong scratch of at least MaxWidth. Values are bitwise
// identical to the corresponding row of Forward — every step uses the
// same element formulas and the same per-row accumulation order as
// the batched kernels.
func (m *MLP) ForwardRow(dst, x, buf1, buf2 []float64) {
	cur := x
	for i, l := range m.Layers {
		last := i == len(m.Layers)-1
		var out []float64
		switch {
		case last:
			out = dst[:l.W.Cols()]
		case i%2 == 0:
			out = buf1[:l.W.Cols()]
		default:
			out = buf2[:l.W.Cols()]
		}
		mat.MulRowInto(out, cur, l.W)
		brow := l.B.Row(0)
		for j := range out {
			out[j] += brow[j]
		}
		if last {
			ActivateRow(m.OutAct, out)
		} else {
			ActivateRow(m.Act, out)
		}
		cur = out
	}
}

// Embedding is a lookup table of n vectors of dimension d.
type Embedding struct {
	Table *mat.Dense
}

// NewEmbedding creates an n x d embedding table with N(0, 0.1²) init.
func NewEmbedding(rng *rand.Rand, ps *Params, n, d int) *Embedding {
	return &Embedding{Table: ps.Register(mat.RandNormal(rng, n, d, 0.1))}
}

// Full returns the whole table as a node.
func (e *Embedding) Full(t *ag.Tape) *ag.Node { return t.Param(e.Table) }
