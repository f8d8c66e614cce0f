// Package ag implements a small reverse-mode automatic-differentiation
// engine over dense matrices. Every neural model in the repository
// (DDIGCN, MDGCN and the graph-learning baselines) is trained through
// this tape, and each computes its final representations by running
// its encoder on a tape as well, so a model graph has one forward pass.
//
// Usage: create a Tape, wrap parameters and inputs as nodes, compose
// ops, then call Backward on a scalar loss node. Gradients accumulate
// in Node.Grad.
//
// # Tape lifecycle and steady-state allocation
//
// A Tape is retained across training epochs: call Reset at the top of
// each epoch and rebuild the forward pass with the same op sequence.
// The tape replays the recorded graph positionally — every op call
// finds its node from the previous epoch (same op kind, same inputs,
// same shape), overwrites the node's value in place with the fused
// *Into kernels, and keeps the backward closure built on first record.
// Node values, gradients and backward scratch matrices are allocated
// once, when a node is first recorded, so an epoch after the first
// allocates (approximately) nothing: no node structs, no closures, no
// matrices. A forward pass that issues only a prefix of the recorded
// ops (a model computing its representations for inference between
// training epochs) replays that prefix and leaves the rest of the
// graph in place for the next epoch.
//
// If the op sequence diverges from the recording (a branch changes
// between epochs), the tape drops the stale tail of the graph and
// records fresh from the divergence point — correctness never depends
// on the graph being static; only the allocation win does. Per-epoch
// data that flows into an op (gather indices, loss targets, constant
// inputs) is refreshed on the retained node every epoch, and backward
// closures read it through the node, never from a stale capture.
//
// Values that must outlive a Reset (e.g. a final embedding matrix) are
// taken off the tape with Detach. A Tape must not be shared across
// goroutines.
package ag

import (
	"fmt"
	"math"

	"dssddi/internal/mat"
	"dssddi/internal/par"
	"dssddi/internal/sparse"
)

// rowGrain sizes parallel row chunks; the policy lives in mat so all
// kernels share one threshold.
func rowGrain(cols int) int { return mat.RowGrain(cols) }

// opKind identifies the operation a node was recorded by; replay
// requires the same op in the same position.
type opKind uint8

const (
	opInvalid opKind = iota
	opParam
	opConst
	opMatMul
	opSpMM
	opAdd
	opSub
	opAddBias
	opHadamard
	opScale
	opReLU
	opLeakyReLU
	opTanh
	opSigmoid
	opConcat
	opGather
	opScaleRows
	opRowSum
	opMean
	opSum
	opMSE
	opBCE
)

// Node is a value in the computation graph together with its gradient.
type Node struct {
	Value *mat.Dense
	Grad  *mat.Dense

	tape      *Tape
	op        opKind
	a, b      *Node
	requires  bool   // whether gradient flows into/through this node
	gradEpoch uint64 // epoch whose backward pass Grad belongs to

	backward func() // accumulates into the inputs' Grad; nil for leaves

	// Retained parallel chunk workers for ops whose loops live in this
	// package (built once on record, reused every epoch).
	fwdChunk  par.FuncWorker
	bwdChunk  par.FuncWorker
	bwdChunk2 par.FuncWorker

	// Element-wise forward/derivative (activations).
	fwd func(float64) float64
	dfn func(float64) float64
	zf  func(x, od float64) float64

	// Per-epoch operands refreshed on replay and read live by the
	// retained closures.
	idx     []int
	scalar  float64
	ref     *mat.Dense
	sp      *sparse.CSR
	spT     *sparse.CSR // transpose cached once per operator (not per epoch)
	scratch [2]*mat.Dense
}

// Rows returns the node value's row count.
func (n *Node) Rows() int { return n.Value.Rows() }

// Cols returns the node value's column count.
func (n *Node) Cols() int { return n.Value.Cols() }

// Tape records operations during a forward pass so they can be replayed
// in reverse for gradient computation, and retains the recorded graph
// so later epochs reuse its nodes and buffers (see the package
// comment). A Tape must not be shared across goroutines.
type Tape struct {
	nodes      []*Node // op + const nodes in creation (topological) order
	paramNodes []*Node
	params     map[*mat.Dense]*Node
	cursor     int    // next replay position in nodes
	epoch      uint64 // bumped by Reset; stamps valid gradients
}

// NewTape returns an empty tape.
func NewTape() *Tape {
	return &Tape{params: make(map[*mat.Dense]*Node), epoch: 1}
}

// Reset begins a new epoch on the retained graph: the replay cursor
// rewinds, every recorded node keeps its buffers, and all gradients are
// invalidated (they are lazily re-zeroed on first accumulation). The
// caller then re-issues the forward pass; matching ops reuse their
// previous nodes in place.
func (t *Tape) Reset() {
	t.cursor = 0
	t.epoch++
}

// Detach removes n's value from the tape's ownership and returns it:
// the matrix survives any later Reset, and the tape allocates a fresh
// buffer for the node's slot if the graph is replayed.
func (t *Tape) Detach(n *Node) *mat.Dense {
	v := n.Value
	n.Value = nil
	return v
}

// NumNodes reports the retained graph size (op and const nodes). Steady
// state training keeps this constant across epochs — tests use it to
// assert the graph is reused, not regrown.
func (t *Tape) NumNodes() int { return len(t.nodes) }

// next returns the node for the op being issued: the retained node at
// the replay cursor when the position matches (same op, same inputs,
// same shape), or a freshly recorded one. Reused nodes keep their
// backward closure; the bool result tells the op whether it must build
// one.
func (t *Tape) next(op opKind, a, b *Node, rows, cols int, requires bool) (*Node, bool) {
	if t.cursor < len(t.nodes) {
		n := t.nodes[t.cursor]
		if n.op == op && n.a == a && n.b == b && n.requires == requires &&
			(op == opConst || n.Value == nil || (n.Value.Rows() == rows && n.Value.Cols() == cols)) {
			if op != opConst && n.Value == nil {
				// Slot was detached: give it a fresh buffer.
				n.Value = mat.New(rows, cols)
			}
			t.cursor++
			return n, true
		}
		// Replay diverged: drop the stale tail and record from here.
		clear(t.nodes[t.cursor:])
		t.nodes = t.nodes[:t.cursor]
	}
	n := &Node{tape: t, op: op, a: a, b: b, requires: requires}
	if op != opConst {
		n.Value = mat.New(rows, cols)
	}
	t.nodes = append(t.nodes, n)
	t.cursor++
	return n, false
}

// Param registers v as a differentiable leaf (a model parameter or an
// input that requires gradient). Calling Param twice with the same
// matrix returns the same node, so gradients from all uses accumulate
// in one place. Parameter nodes persist across Reset. The node's Grad
// is allocated lazily on first accumulation and re-zeroed lazily each
// epoch.
func (t *Tape) Param(v *mat.Dense) *Node {
	if n, ok := t.params[v]; ok {
		return n
	}
	n := &Node{tape: t, op: opParam, Value: v, requires: true}
	t.paramNodes = append(t.paramNodes, n)
	t.params[v] = n
	return n
}

// Grad returns the gradient accumulated this epoch for a parameter
// matrix registered via Param, or nil if the parameter received no
// gradient. Call after Backward.
func (t *Tape) Grad(v *mat.Dense) *mat.Dense {
	if n, ok := t.params[v]; ok && n.gradEpoch == t.epoch {
		return n.Grad
	}
	return nil
}

// Const registers v as a non-differentiable leaf. The retained node's
// value is refreshed every epoch, so per-epoch constant payloads (e.g.
// resampled targets) may pass a different matrix each time.
func (t *Tape) Const(v *mat.Dense) *Node {
	n, _ := t.next(opConst, nil, nil, 0, 0, false)
	n.Value = v
	return n
}

// ensureGrad returns n's gradient buffer, valid for the current epoch:
// allocated on first use, re-zeroed on first use of a new epoch.
func (n *Node) ensureGrad() *mat.Dense {
	if n.Grad == nil {
		n.Grad = mat.New(n.Value.Rows(), n.Value.Cols())
	} else if n.gradEpoch != n.tape.epoch {
		n.Grad.Zero()
	}
	n.gradEpoch = n.tape.epoch
	return n.Grad
}

// scratchMat returns a per-node scratch matrix retained across epochs
// (slot 0 or 1). Contents are stale; callers must fully overwrite or
// Zero it.
func (n *Node) scratchMat(slot, rows, cols int) *mat.Dense {
	s := n.scratch[slot]
	if s == nil || s.Rows() != rows || s.Cols() != cols {
		s = mat.New(rows, cols)
		n.scratch[slot] = s
	}
	return s
}

// gradDst returns n's gradient buffer for accumulation plus whether
// this is the first contribution of the epoch. A fresh buffer holds
// STALE data (it is not zeroed) — the caller must fully overwrite it.
// Overwrite-on-first-touch skips the zero and add passes of the
// classic zero+accumulate pattern; the values are identical.
func (n *Node) gradDst() (*mat.Dense, bool) {
	fresh := false
	if n.Grad == nil {
		n.Grad = mat.New(n.Value.Rows(), n.Value.Cols())
		fresh = true
	} else if n.gradEpoch != n.tape.epoch {
		fresh = true
	}
	n.gradEpoch = n.tape.epoch
	return n.Grad, fresh
}

// accumGrad adds g into n's gradient if n participates in
// differentiation (copying on the first contribution of the epoch).
func (n *Node) accumGrad(g *mat.Dense) {
	if !n.requires {
		return
	}
	dst, fresh := n.gradDst()
	if fresh {
		dst.CopyFrom(g)
	} else {
		dst.AddScaled(g, 1)
	}
}

// hasGrad reports whether n received gradient this epoch.
func (n *Node) hasGrad() bool { return n.Grad != nil && n.gradEpoch == n.tape.epoch }

// Backward runs reverse-mode differentiation from the scalar node loss.
// The loss value must be 1x1.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows() != 1 || loss.Value.Cols() != 1 {
		panic(fmt.Sprintf("ag: Backward requires a scalar loss, got %dx%d", loss.Value.Rows(), loss.Value.Cols()))
	}
	loss.ensureGrad().Set(0, 0, 1)
	for i := t.cursor - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.backward != nil && n.requires && n.hasGrad() {
			n.backward()
		}
	}
}

// MatMul returns a*b. The backward pass accumulates straight into the
// input gradients with the fused MatMulTrans*AddInto kernels — no
// temporary gradient matrices.
func (t *Tape) MatMul(a, b *Node) *Node {
	out, reused := t.next(opMatMul, a, b, a.Rows(), b.Cols(), a.requires || b.requires)
	if !reused {
		out.backward = func() {
			if a.requires { // dA += dOut * Bᵀ
				if g, fresh := a.gradDst(); fresh {
					mat.MatMulTransBInto(g, out.Grad, b.Value)
				} else {
					mat.MatMulTransBAddInto(g, out.Grad, b.Value)
				}
			}
			if b.requires { // dB += Aᵀ * dOut
				if g, fresh := b.gradDst(); fresh {
					mat.MatMulTransAInto(g, a.Value, out.Grad)
				} else {
					mat.MatMulTransAAddInto(g, a.Value, out.Grad)
				}
			}
		}
	}
	mat.MatMulInto(out.Value, a.Value, b.Value)
	return out
}

// SpMM returns s*x where s is a constant sparse operator (adjacency).
// Gradient flows into x only: dX += sᵀ * dOut (fused accumulation).
// The operator's transpose is built lazily on the first backward pass
// and cached on the node for all later epochs.
func (t *Tape) SpMM(s *sparse.CSR, x *Node) *Node {
	out, reused := t.next(opSpMM, x, nil, s.Rows(), x.Cols(), x.requires)
	if out.sp != s {
		out.sp, out.spT = s, nil
	}
	if !reused {
		out.backward = func() {
			if !x.requires {
				return
			}
			if out.spT == nil {
				out.spT = out.sp.T()
			}
			if g, fresh := x.gradDst(); fresh {
				out.spT.MulDenseInto(g, out.Grad)
			} else {
				out.spT.MulDenseAddInto(g, out.Grad)
			}
		}
	}
	out.sp.MulDenseInto(out.Value, x.Value)
	return out
}

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	out, reused := t.next(opAdd, a, b, a.Rows(), a.Cols(), a.requires || b.requires)
	if !reused {
		out.backward = func() {
			a.accumGrad(out.Grad)
			b.accumGrad(out.Grad)
		}
	}
	mat.AddInto(out.Value, a.Value, b.Value)
	return out
}

// Sub returns a-b.
func (t *Tape) Sub(a, b *Node) *Node {
	out, reused := t.next(opSub, a, b, a.Rows(), a.Cols(), a.requires || b.requires)
	if !reused {
		out.backward = func() {
			a.accumGrad(out.Grad)
			if b.requires {
				if g, fresh := b.gradDst(); fresh {
					mat.ScaleInto(g, out.Grad, -1)
				} else {
					g.AddScaled(out.Grad, -1)
				}
			}
		}
	}
	mat.SubInto(out.Value, a.Value, b.Value)
	return out
}

// AddBias broadcasts the 1 x d bias row onto every row of a (n x d).
func (t *Tape) AddBias(a, bias *Node) *Node {
	if bias.Value.Rows() != 1 || bias.Value.Cols() != a.Value.Cols() {
		panic(fmt.Sprintf("ag: AddBias wants 1x%d bias, got %dx%d", a.Value.Cols(), bias.Value.Rows(), bias.Value.Cols()))
	}
	out, reused := t.next(opAddBias, a, bias, a.Rows(), a.Cols(), a.requires || bias.requires)
	if !reused {
		out.backward = func() {
			a.accumGrad(out.Grad)
			if bias.requires {
				g := out.scratchMat(0, 1, out.Cols())
				g.Zero()
				grow := g.Row(0)
				for i := 0; i < out.Grad.Rows(); i++ {
					orow := out.Grad.Row(i)
					for j, ov := range orow {
						grow[j] += ov
					}
				}
				bias.accumGrad(g)
			}
		}
	}
	mat.AddRowInto(out.Value, a.Value, bias.Value.Row(0))
	return out
}

// Hadamard returns the element-wise product a⊙b. Gradients accumulate
// with the fused AddHadamard kernel.
func (t *Tape) Hadamard(a, b *Node) *Node {
	out, reused := t.next(opHadamard, a, b, a.Rows(), a.Cols(), a.requires || b.requires)
	if !reused {
		out.backward = func() {
			if a.requires {
				if g, fresh := a.gradDst(); fresh {
					mat.HadamardInto(g, out.Grad, b.Value)
				} else {
					g.AddHadamard(out.Grad, b.Value)
				}
			}
			if b.requires {
				if g, fresh := b.gradDst(); fresh {
					mat.HadamardInto(g, out.Grad, a.Value)
				} else {
					g.AddHadamard(out.Grad, a.Value)
				}
			}
		}
	}
	mat.HadamardInto(out.Value, a.Value, b.Value)
	return out
}

// Scale returns s*a for a constant scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	out, reused := t.next(opScale, a, nil, a.Rows(), a.Cols(), a.requires)
	out.scalar = s
	if !reused {
		out.backward = func() {
			if !a.requires {
				return
			}
			if g, fresh := a.gradDst(); fresh {
				mat.ScaleInto(g, out.Grad, out.scalar)
			} else {
				g.AddScaled(out.Grad, out.scalar)
			}
		}
	}
	mat.ScaleInto(out.Value, a.Value, s)
	return out
}

// elementwise records (or replays) a unary element-wise op. mk installs
// the forward/derivative functions on first record; the backward pass
// fuses grad += dOut·f'(x) with the ZipAddInto kernel.
func (t *Tape) elementwise(kind opKind, a *Node, scalar float64, mk func(n *Node)) *Node {
	out, reused := t.next(kind, a, nil, a.Rows(), a.Cols(), a.requires)
	out.scalar = scalar
	if !reused {
		mk(out)
		out.zf = func(x, od float64) float64 { return od * out.dfn(x) }
		out.backward = func() {
			if !a.requires {
				return
			}
			if g, fresh := a.gradDst(); fresh {
				mat.ZipInto(g, a.Value, out.Grad, out.zf)
			} else {
				mat.ZipAddInto(g, a.Value, out.Grad, out.zf)
			}
		}
	}
	mat.ApplyInto(out.Value, a.Value, out.fwd)
	return out
}

func reluF(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

func reluDF(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

func mkReLU(n *Node) { n.fwd, n.dfn = reluF, reluDF }

func mkLeakyReLU(n *Node) {
	n.fwd = func(x float64) float64 {
		if x > 0 {
			return x
		}
		return n.scalar * x
	}
	n.dfn = func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return n.scalar
	}
}

func tanhDF(x float64) float64 {
	y := math.Tanh(x)
	return 1 - y*y
}

func mkTanh(n *Node) { n.fwd, n.dfn = math.Tanh, tanhDF }

func sigmoidDF(x float64) float64 {
	y := mat.Sigmoid(x)
	return y * (1 - y)
}

func mkSigmoid(n *Node) { n.fwd, n.dfn = mat.Sigmoid, sigmoidDF }

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node { return t.elementwise(opReLU, a, 0, mkReLU) }

// LeakyReLU applies x (x>0) or slope*x (x<=0) element-wise.
func (t *Tape) LeakyReLU(a *Node, slope float64) *Node {
	return t.elementwise(opLeakyReLU, a, slope, mkLeakyReLU)
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node { return t.elementwise(opTanh, a, 0, mkTanh) }

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Node) *Node { return t.elementwise(opSigmoid, a, 0, mkSigmoid) }

// ConcatCols returns [a | b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	out, reused := t.next(opConcat, a, b, a.Rows(), a.Cols()+b.Cols(), a.requires || b.requires)
	if !reused {
		sliceGrad := func(n *Node, slot, off, width int) {
			g, fresh := n.gradDst()
			if fresh { // split dOut straight into the input's gradient
				for i := 0; i < n.Rows(); i++ {
					copy(g.Row(i), out.Grad.Row(i)[off:off+width])
				}
				return
			}
			s := out.scratchMat(slot, n.Rows(), width)
			for i := 0; i < n.Rows(); i++ {
				copy(s.Row(i), out.Grad.Row(i)[off:off+width])
			}
			g.AddScaled(s, 1)
		}
		out.backward = func() {
			if a.requires {
				sliceGrad(a, 0, 0, a.Cols())
			}
			if b.requires {
				sliceGrad(b, 1, a.Cols(), b.Cols())
			}
		}
	}
	mat.ConcatColsInto(out.Value, a.Value, b.Value)
	return out
}

// GatherRows selects rows idx from a: out[i] = a[idx[i]]. Gradient
// scatters (with accumulation for repeated indices) back into a. The
// index slice may change between epochs; the retained node reads the
// current one.
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	out, reused := t.next(opGather, a, nil, len(idx), a.Cols(), a.requires)
	out.idx = idx
	if !reused {
		out.backward = func() {
			if !a.requires {
				return
			}
			g, fresh := a.gradDst()
			if fresh { // scatter straight into the zeroed gradient
				g.Zero()
			} else {
				g = out.scratchMat(0, a.Rows(), a.Cols())
				g.Zero()
			}
			for i, id := range out.idx {
				grow := g.Row(id)
				orow := out.Grad.Row(i)
				for j, ov := range orow {
					grow[j] += ov
				}
			}
			if !fresh {
				a.Grad.AddScaled(g, 1)
			}
		}
	}
	mat.GatherRowsInto(out.Value, a.Value, idx)
	return out
}

// ScaleRows multiplies each row i of a (n x d) by the scalar c[i, 0]
// (c is n x 1). Used to apply per-edge attention weights to message
// matrices.
func (t *Tape) ScaleRows(a, c *Node) *Node {
	if c.Cols() != 1 || c.Rows() != a.Rows() {
		panic(fmt.Sprintf("ag: ScaleRows wants %dx1 scale, got %dx%d", a.Rows(), c.Rows(), c.Cols()))
	}
	out, reused := t.next(opScaleRows, a, c, a.Rows(), a.Cols(), a.requires || c.requires)
	if !reused {
		out.fwdChunk = func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s := c.Value.At(i, 0)
				arow := a.Value.Row(i)
				vrow := out.Value.Row(i)
				for j, av := range arow {
					vrow[j] = s * av
				}
			}
		}
		out.bwdChunk = func(lo, hi int) { // dA += c ⊙rows dOut
			g := a.Grad
			for i := lo; i < hi; i++ {
				s := c.Value.At(i, 0)
				orow := out.Grad.Row(i)
				grow := g.Row(i)
				for j, ov := range orow {
					grow[j] += s * ov
				}
			}
		}
		out.bwdChunk2 = func(lo, hi int) { // dC[i] += dOut[i]·A[i]
			g := c.Grad
			for i := lo; i < hi; i++ {
				g.Add(i, 0, mat.Dot(out.Grad.Row(i), a.Value.Row(i)))
			}
		}
		out.backward = func() {
			if a.requires {
				a.ensureGrad()
				par.Run(a.Rows(), rowGrain(a.Cols()), out.bwdChunk)
			}
			if c.requires {
				c.ensureGrad()
				par.Run(a.Rows(), rowGrain(a.Cols()), out.bwdChunk2)
			}
		}
	}
	par.Run(a.Rows(), rowGrain(a.Cols()), out.fwdChunk)
	return out
}

// RowSum reduces each row to its sum, producing an n x 1 column.
func (t *Tape) RowSum(a *Node) *Node {
	out, reused := t.next(opRowSum, a, nil, a.Rows(), 1, a.requires)
	if !reused {
		out.fwdChunk = func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, x := range a.Value.Row(i) {
					s += x
				}
				out.Value.Set(i, 0, s)
			}
		}
		out.bwdChunk = func(lo, hi int) {
			g := a.Grad
			for i := lo; i < hi; i++ {
				gv := out.Grad.At(i, 0)
				grow := g.Row(i)
				for j := range grow {
					grow[j] += gv
				}
			}
		}
		out.backward = func() {
			if !a.requires {
				return
			}
			a.ensureGrad()
			par.Run(a.Rows(), rowGrain(a.Cols()), out.bwdChunk)
		}
	}
	par.Run(a.Rows(), rowGrain(a.Cols()), out.fwdChunk)
	return out
}

// RowDot computes the per-row inner product of a and b (both n x d),
// producing an n x 1 column: out[i] = a[i]·b[i].
func (t *Tape) RowDot(a, b *Node) *Node {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic("ag: RowDot shape mismatch")
	}
	return t.RowSum(t.Hadamard(a, b))
}

// Mean reduces the whole matrix to its scalar mean (1x1).
func (t *Tape) Mean(a *Node) *Node {
	out, reused := t.next(opMean, a, nil, 1, 1, a.requires)
	n := float64(a.Rows() * a.Cols())
	out.scalar = n
	if !reused {
		out.backward = func() {
			if !a.requires {
				return
			}
			g := out.scratchMat(0, a.Rows(), a.Cols())
			g.Fill(out.Grad.At(0, 0) / out.scalar)
			a.accumGrad(g)
		}
	}
	out.Value.Set(0, 0, a.Value.SumAll()/n)
	return out
}

// Sum reduces the whole matrix to its scalar sum (1x1).
func (t *Tape) Sum(a *Node) *Node {
	out, reused := t.next(opSum, a, nil, 1, 1, a.requires)
	if !reused {
		out.backward = func() {
			if !a.requires {
				return
			}
			g := out.scratchMat(0, a.Rows(), a.Cols())
			g.Fill(out.Grad.At(0, 0))
			a.accumGrad(g)
		}
	}
	out.Value.Set(0, 0, a.Value.SumAll())
	return out
}
