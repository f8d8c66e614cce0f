package nn

import (
	"math"

	"dssddi/internal/ag"
	"dssddi/internal/mat"
)

// BatchNorm normalises each feature column to zero mean and unit
// variance over the batch, then applies a learnable affine transform
// (gamma, beta). Statistics are always computed from the current batch
// — the models here do full-batch training, so train and eval see the
// same statistics.
//
// The backward pass treats the batch statistics as constants, i.e. this
// is the "frozen statistics" approximation. For full-batch graph
// training this is a standard and stable simplification; gradient flow
// through mean/variance mainly matters for small minibatches.
type BatchNorm struct {
	Gamma *mat.Dense
	Beta  *mat.Dense
	Eps   float64

	// Retained batch-statistics buffers: the layer recomputes them
	// every call but reuses the storage, so a steady-state epoch on a
	// retained tape allocates nothing here. The shift/scale matrices
	// keep stable identities, which is what lets the tape reuse the
	// Const nodes wrapping them.
	mean, invStd []float64
	shift, scale *mat.Dense
	idx          []int
}

// NewBatchNorm creates a BatchNorm over d features.
func NewBatchNorm(ps *Params, d int) *BatchNorm {
	g := mat.New(1, d)
	g.Fill(1)
	return &BatchNorm{
		Gamma: ps.Register(g),
		Beta:  ps.Register(mat.New(1, d)),
		Eps:   1e-5,
	}
}

// stats refreshes the retained mean/invStd/shift/scale buffers from the
// current batch x (n x d).
func (bn *BatchNorm) stats(x *mat.Dense) {
	n, d := x.Rows(), x.Cols()
	if len(bn.mean) != d {
		bn.mean = make([]float64, d)
		bn.invStd = make([]float64, d)
		bn.shift = mat.New(1, d)
	}
	mean, invStd := bn.mean, bn.invStd
	for j := range mean {
		mean[j] = 0
		invStd[j] = 0
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			dv := v - mean[j]
			invStd[j] += dv * dv
		}
	}
	for j := range invStd {
		invStd[j] = 1 / math.Sqrt(invStd[j]/float64(n)+bn.Eps)
	}
	for j := 0; j < d; j++ {
		bn.shift.Set(0, j, -mean[j])
	}
	if bn.scale == nil || bn.scale.Rows() != n {
		bn.scale = mat.New(n, d)
		bn.idx = make([]int, n)
	}
	mat.RepRowInto(bn.scale, invStd)
}

// Apply normalises x (n x d) column-wise and applies the affine
// transform on the tape. It overwrites the layer's retained batch
// statistics, so, like the tape it feeds, it is single-goroutine.
func (bn *BatchNorm) Apply(t *ag.Tape, x *ag.Node) *ag.Node {
	n := x.Rows()
	if n == 0 {
		return x
	}
	bn.stats(x.Value)

	// Normalisation as constant shift+scale: xhat = (x - mean) * invStd.
	xhat := t.Hadamard(t.AddBias(x, t.Const(bn.shift)), t.Const(bn.scale))

	// Affine: gamma broadcast-multiplied per column, then + beta.
	// To keep gamma trainable we multiply via a broadcasted parameter:
	// out = xhat .* rowrep(gamma) + beta. Implemented with GatherRows so
	// the gradient flows back into the single gamma row.
	gammaNode := t.GatherRows(t.Param(bn.Gamma), bn.idx) // all rows = row 0
	return t.AddBias(t.Hadamard(xhat, gammaNode), t.Param(bn.Beta))
}
