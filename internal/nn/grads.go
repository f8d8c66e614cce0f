package nn

import (
	"dssddi/internal/ag"
	"dssddi/internal/mat"
	"dssddi/internal/optim"
)

// CollectGradsInto fills dst with the gradient accumulated on the tape
// for every registered parameter in ps (nil where a parameter was not
// touched), aligned index-for-index with ps.All(). dst is
// caller-retained, so a steady-state training epoch performs no
// allocation here; it must have len(ps.All()) entries.
func CollectGradsInto(dst []*mat.Dense, tape *ag.Tape, ps *Params) {
	if len(dst) != len(ps.All()) {
		panic("nn: CollectGradsInto length mismatch")
	}
	for i, p := range ps.All() {
		dst[i] = tape.Grad(p)
	}
}

// Step is the training step every tape-trained model takes: Backward
// from loss, the gradients of ps into grads (see CollectGradsInto),
// global-norm clipping at 5, then one opt update of ps. It returns the
// loss value.
func Step(t *ag.Tape, loss *ag.Node, ps *Params, grads []*mat.Dense, opt *optim.Adam) float64 {
	t.Backward(loss)
	CollectGradsInto(grads, t, ps)
	optim.ClipGlobalNorm(grads, 5)
	opt.Step(ps.All(), grads)
	return loss.Value.At(0, 0)
}
