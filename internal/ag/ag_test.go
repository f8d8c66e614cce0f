package ag

import (
	"math"
	"math/rand"
	"testing"

	"dssddi/internal/mat"
	"dssddi/internal/sparse"
)

// gradCheck compares the tape gradient of loss w.r.t. param against
// central finite differences. build must construct the full forward pass
// from scratch each call (the tape is single-use).
func gradCheck(t *testing.T, param *mat.Dense, build func(tp *Tape, p *Node) *Node) {
	t.Helper()
	tape := NewTape()
	p := tape.Param(param)
	loss := build(tape, p)
	tape.Backward(loss)
	if p.Grad == nil {
		t.Fatal("no gradient accumulated on parameter")
	}
	analytic := p.Grad.Clone()

	const h = 1e-5
	for i := 0; i < param.Rows(); i++ {
		for j := 0; j < param.Cols(); j++ {
			orig := param.At(i, j)
			param.Set(i, j, orig+h)
			lp := evalLoss(param, build)
			param.Set(i, j, orig-h)
			lm := evalLoss(param, build)
			param.Set(i, j, orig)
			numeric := (lp - lm) / (2 * h)
			a := analytic.At(i, j)
			denom := math.Max(1, math.Max(math.Abs(a), math.Abs(numeric)))
			if math.Abs(a-numeric)/denom > 1e-4 {
				t.Fatalf("grad mismatch at (%d,%d): analytic %v numeric %v", i, j, a, numeric)
			}
		}
	}
}

func evalLoss(param *mat.Dense, build func(tp *Tape, p *Node) *Node) float64 {
	tape := NewTape()
	p := tape.Param(param)
	return build(tape, p).Value.At(0, 0)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := mat.RandNormal(rng, 3, 4, 1)
	x := mat.RandNormal(rng, 5, 3, 1)
	gradCheck(t, w, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.MatMul(tp.Const(x), p))
	})
}

func TestGradMatMulLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := mat.RandNormal(rng, 4, 3, 1)
	b := mat.RandNormal(rng, 3, 2, 1)
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.MatMul(p, tp.Const(b)))
	})
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bld := sparse.NewBuilder(4, 4)
	bld.Add(0, 1, 0.5)
	bld.Add(1, 0, 0.5)
	bld.Add(2, 3, -1)
	bld.Add(3, 2, -1)
	bld.Add(1, 2, 0.7)
	s := bld.Build()
	x := mat.RandNormal(rng, 4, 3, 1)
	gradCheck(t, x, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.SpMM(s, p))
	})
}

func TestGradAddSubBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := mat.RandNormal(rng, 3, 3, 1)
	other := mat.RandNormal(rng, 3, 3, 1)
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.Sub(tp.Add(p, tp.Const(other)), p))
	})
	bias := mat.RandNormal(rng, 1, 3, 1)
	gradCheck(t, bias, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.AddBias(tp.Const(a), p))
	})
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.AddBias(p, tp.Const(bias)))
	})
}

func TestGradHadamardScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.RandNormal(rng, 3, 2, 1)
	b := mat.RandNormal(rng, 3, 2, 1)
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.Scale(tp.Hadamard(p, tp.Const(b)), 2.5))
	})
	// Hadamard with itself: d(x²)/dx = 2x.
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.Hadamard(p, p))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := mat.RandNormal(rng, 4, 3, 1)
	for name, f := range map[string]func(tp *Tape, p *Node) *Node{
		"sigmoid":   func(tp *Tape, p *Node) *Node { return tp.Mean(tp.Sigmoid(p)) },
		"tanh":      func(tp *Tape, p *Node) *Node { return tp.Mean(tp.Tanh(p)) },
		"leakyrelu": func(tp *Tape, p *Node) *Node { return tp.Mean(tp.LeakyReLU(p, 0.01)) },
	} {
		t.Run(name, func(t *testing.T) { gradCheck(t, a.Clone(), f) })
	}
}

func TestGradReLU(t *testing.T) {
	// Keep values away from the kink at 0 for a clean finite-difference check.
	a := mat.FromRows([][]float64{{1.5, -2.3}, {0.7, -0.9}})
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.ReLU(p))
	})
}

func TestGradConcatGather(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := mat.RandNormal(rng, 3, 2, 1)
	b := mat.RandNormal(rng, 3, 4, 1)
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.ConcatCols(p, tp.Const(b)))
	})
	gradCheck(t, b.Clone(), func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.ConcatCols(tp.Const(a), p))
	})
	// Gather with repeated indices must accumulate gradients.
	gradCheck(t, a.Clone(), func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.GatherRows(p, []int{0, 2, 0, 1, 0}))
	})
}

func TestGradScaleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := mat.RandNormal(rng, 4, 3, 1)
	c := mat.RandNormal(rng, 4, 1, 1)
	gradCheck(t, a, func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.ScaleRows(p, tp.Const(c)))
	})
	gradCheck(t, c.Clone(), func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.ScaleRows(tp.Const(a), p))
	})
}

func TestGradReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mat.RandNormal(rng, 3, 4, 1)
	gradCheck(t, a, func(tp *Tape, p *Node) *Node { return tp.Sum(p) })
	gradCheck(t, a.Clone(), func(tp *Tape, p *Node) *Node { return tp.Mean(tp.RowSum(p)) })
	b := mat.RandNormal(rng, 3, 4, 1)
	gradCheck(t, a.Clone(), func(tp *Tape, p *Node) *Node {
		return tp.Mean(tp.RowDot(p, tp.Const(b)))
	})
}

func TestGradMSELoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pred := mat.RandNormal(rng, 4, 1, 1)
	target := mat.RandNormal(rng, 4, 1, 1)
	gradCheck(t, pred, func(tp *Tape, p *Node) *Node {
		return tp.MSELoss(p, target)
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := mat.RandNormal(rng, 5, 2, 2)
	target := mat.New(5, 2)
	for i := range target.Data() {
		if rng.Float64() < 0.5 {
			target.Data()[i] = 1
		}
	}
	gradCheck(t, logits, func(tp *Tape, p *Node) *Node {
		return tp.BCEWithLogits(p, target)
	})
}

func TestGradCompositeMLP(t *testing.T) {
	// Two-layer MLP end-to-end: y = sigmoid(relu(X*W1+b1)*W2), BCE loss.
	rng := rand.New(rand.NewSource(13))
	x := mat.RandNormal(rng, 6, 4, 1)
	w1 := mat.RandNormal(rng, 4, 5, 0.5)
	b1 := mat.RandNormal(rng, 1, 5, 0.1)
	w2 := mat.RandNormal(rng, 5, 1, 0.5)
	target := mat.New(6, 1)
	for i := 0; i < 6; i++ {
		if rng.Float64() < 0.5 {
			target.Set(i, 0, 1)
		}
	}
	build := func(param *mat.Dense, which int) func(tp *Tape, p *Node) *Node {
		return func(tp *Tape, p *Node) *Node {
			var n1, nb, n2 *Node
			switch which {
			case 0:
				n1, nb, n2 = p, tp.Param(b1), tp.Param(w2)
			case 1:
				n1, nb, n2 = tp.Param(w1), p, tp.Param(w2)
			default:
				n1, nb, n2 = tp.Param(w1), tp.Param(b1), p
			}
			h := tp.ReLU(tp.AddBias(tp.MatMul(tp.Const(x), n1), nb))
			logits := tp.MatMul(h, n2)
			return tp.BCEWithLogits(logits, target)
		}
	}
	gradCheck(t, w1, build(w1, 0))
	gradCheck(t, b1, build(b1, 1))
	gradCheck(t, w2, build(w2, 2))
}

func TestBackwardRequiresScalar(t *testing.T) {
	tape := NewTape()
	p := tape.Param(mat.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	tape.Backward(p)
}

func TestConstReceivesNoGrad(t *testing.T) {
	tape := NewTape()
	c := tape.Const(mat.FromRows([][]float64{{1, 2}}))
	p := tape.Param(mat.FromRows([][]float64{{3, 4}}))
	loss := tape.Mean(tape.Hadamard(c, p))
	tape.Backward(loss)
	if c.Grad != nil {
		t.Fatal("const node should not accumulate gradient")
	}
	if p.Grad == nil {
		t.Fatal("param node should accumulate gradient")
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// p used twice: loss = mean(p) + mean(p) => grad = 2/n each entry.
	tape := NewTape()
	p := tape.Param(mat.FromRows([][]float64{{1, 2}, {3, 4}}))
	loss := tape.Add(tape.Mean(p), tape.Mean(p))
	tape.Backward(loss)
	for _, g := range p.Grad.Data() {
		if math.Abs(g-0.5) > 1e-12 {
			t.Fatalf("grad %v, want 0.5", g)
		}
	}
}
