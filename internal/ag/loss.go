package ag

import (
	"fmt"
	"math"

	"dssddi/internal/mat"
)

// MSELoss returns the scalar mean-squared error between pred and the
// constant target (Eq. 6 of the paper, used by DDIGCN edge regression).
// The target may change between epochs; the retained node reads the
// current one.
func (t *Tape) MSELoss(pred *Node, target *mat.Dense) *Node {
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		panic(fmt.Sprintf("ag: MSELoss shape mismatch %dx%d vs %dx%d",
			pred.Rows(), pred.Cols(), target.Rows(), target.Cols()))
	}
	out, reused := t.next(opMSE, pred, nil, 1, 1, pred.requires)
	out.ref = target
	if !reused {
		out.backward = func() {
			if !pred.requires {
				return
			}
			g := out.scratchMat(0, pred.Rows(), pred.Cols())
			gd := g.Data()
			pd, td := pred.Value.Data(), out.ref.Data()
			scale := 2 * out.Grad.At(0, 0) / float64(len(pd))
			for i, p := range pd {
				gd[i] = scale * (p - td[i])
			}
			pred.accumGrad(g)
		}
	}
	var sum float64
	pd, td := pred.Value.Data(), target.Data()
	for i, p := range pd {
		d := p - td[i]
		sum += d * d
	}
	out.Value.Set(0, 0, sum/float64(len(pd)))
	return out
}

// BCEWithLogits returns the scalar mean binary cross-entropy between
// logits and binary targets, computed in a numerically stable fused
// form: max(x,0) - x*y + log(1+exp(-|x|)). This is the loss of
// Eq. 16-17 with the sigmoid folded in.
func (t *Tape) BCEWithLogits(logits *Node, target *mat.Dense) *Node {
	if logits.Rows() != target.Rows() || logits.Cols() != target.Cols() {
		panic(fmt.Sprintf("ag: BCEWithLogits shape mismatch %dx%d vs %dx%d",
			logits.Rows(), logits.Cols(), target.Rows(), target.Cols()))
	}
	out, reused := t.next(opBCE, logits, nil, 1, 1, logits.requires)
	out.ref = target
	if !reused {
		out.backward = func() {
			if !logits.requires {
				return
			}
			g := out.scratchMat(0, logits.Rows(), logits.Cols())
			gd := g.Data()
			xd, yd := logits.Value.Data(), out.ref.Data()
			scale := out.Grad.At(0, 0) / float64(len(xd))
			for i, x := range xd {
				gd[i] = scale * (mat.Sigmoid(x) - yd[i])
			}
			logits.accumGrad(g)
		}
	}
	var sum float64
	xd, yd := logits.Value.Data(), target.Data()
	for i, x := range xd {
		y := yd[i]
		sum += math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	}
	out.Value.Set(0, 0, sum/float64(len(xd)))
	return out
}
