package nn

import (
	"math"
	"math/rand"
	"testing"

	"dssddi/internal/ag"
	"dssddi/internal/mat"
	"dssddi/internal/optim"
)

func TestParamsRegistry(t *testing.T) {
	var ps Params
	rng := rand.New(rand.NewSource(1))
	NewLinear(rng, &ps, 3, 4)
	if len(ps.All()) != 2 {
		t.Fatalf("linear should register W and B, got %d", len(ps.All()))
	}
	if ps.Count() != 3*4+4 {
		t.Fatalf("Count=%d, want 16", ps.Count())
	}
}

func TestLinearShapes(t *testing.T) {
	var ps Params
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, &ps, 3, 5)
	tape := ag.NewTape()
	x := tape.Const(mat.RandNormal(rng, 7, 3, 1))
	y := l.Apply(tape, x)
	if y.Rows() != 7 || y.Cols() != 5 {
		t.Fatalf("linear output %dx%d, want 7x5", y.Rows(), y.Cols())
	}
}

func TestMLPForwardShapes(t *testing.T) {
	var ps Params
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, &ps, []int{4, 8, 8, 2}, ActReLU)
	tape := ag.NewTape()
	x := tape.Const(mat.RandNormal(rng, 5, 4, 1))
	y := m.Apply(tape, x)
	if y.Rows() != 5 || y.Cols() != 2 {
		t.Fatalf("MLP output %dx%d, want 5x2", y.Rows(), y.Cols())
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// End-to-end training test: a 2-layer MLP must fit XOR, which a
	// linear model cannot. Exercises the full tape/optim stack.
	rng := rand.New(rand.NewSource(4))
	var ps Params
	m := NewMLP(rng, &ps, []int{2, 8, 1}, ActTanh)
	x := mat.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := mat.FromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := optim.NewAdam(0.05)
	tape := ag.NewTape()
	grads := make([]*mat.Dense, len(ps.All()))
	var loss float64
	for epoch := 0; epoch < 500; epoch++ {
		tape.Reset()
		out := m.Apply(tape, tape.Const(x))
		loss = Step(tape, tape.BCEWithLogits(out, y), &ps, grads, opt)
	}
	if loss > 0.1 {
		t.Fatalf("MLP failed to fit XOR, final loss %v", loss)
	}
}

func TestBatchNormNormalises(t *testing.T) {
	var ps Params
	bn := NewBatchNorm(&ps, 3)
	rng := rand.New(rand.NewSource(5))
	x := mat.RandNormal(rng, 50, 3, 4)
	// Shift columns so raw means are far from zero.
	for i := 0; i < 50; i++ {
		x.Row(i)[1] += 10
	}
	tape := ag.NewTape()
	y := bn.Apply(tape, tape.Const(x))
	for j := 0; j < 3; j++ {
		var mean, varr float64
		for i := 0; i < 50; i++ {
			mean += y.Value.At(i, j)
		}
		mean /= 50
		for i := 0; i < 50; i++ {
			d := y.Value.At(i, j) - mean
			varr += d * d
		}
		varr /= 50
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean %v, want ~0", j, mean)
		}
		if math.Abs(varr-1) > 1e-2 {
			t.Fatalf("col %d var %v, want ~1", j, varr)
		}
	}
}

func TestBatchNormGammaBetaTrainable(t *testing.T) {
	var ps Params
	bn := NewBatchNorm(&ps, 2)
	rng := rand.New(rand.NewSource(6))
	x := mat.RandNormal(rng, 10, 2, 1)
	tape := ag.NewTape()
	y := bn.Apply(tape, tape.Const(x))
	l := tape.Mean(y)
	tape.Backward(l)
	grads := make([]*mat.Dense, len(ps.All()))
	CollectGradsInto(grads, tape, &ps)
	if grads[0] == nil && grads[1] == nil {
		t.Fatal("expected gradients on gamma/beta")
	}
	// Beta's gradient for mean loss is 1/n per column-sum contribution.
	if grads[1] == nil || grads[1].MaxAbs() == 0 {
		t.Fatal("beta should receive gradient")
	}
}

func TestGRUStepShapesAndRange(t *testing.T) {
	var ps Params
	rng := rand.New(rand.NewSource(8))
	g := NewGRUCell(rng, &ps, 4, 6)
	tape := ag.NewTape()
	x1 := tape.Const(mat.RandNormal(rng, 3, 4, 1))
	x2 := tape.Const(mat.RandNormal(rng, 3, 4, 1))
	h := g.Run(tape, []*ag.Node{x1, x2})
	if h.Rows() != 3 || h.Cols() != 6 {
		t.Fatalf("GRU state %dx%d, want 3x6", h.Rows(), h.Cols())
	}
	// GRU state is a convex-ish combination of tanh values: |h| <= 1.
	for _, v := range h.Value.Data() {
		if math.Abs(v) > 1 {
			t.Fatalf("GRU state value %v outside [-1,1]", v)
		}
	}
}

func TestGRULearnsSequenceSignal(t *testing.T) {
	// The label is determined by the FIRST input of a 3-step sequence;
	// the GRU must carry the information through time.
	rng := rand.New(rand.NewSource(9))
	var ps Params
	g := NewGRUCell(rng, &ps, 1, 8)
	readout := NewLinear(rng, &ps, 8, 1)
	n := 32
	first := mat.New(n, 1)
	labels := mat.New(n, 1)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			first.Set(i, 0, 1)
			labels.Set(i, 0, 1)
		} else {
			first.Set(i, 0, -1)
		}
	}
	noise1 := mat.RandNormal(rng, n, 1, 0.1)
	noise2 := mat.RandNormal(rng, n, 1, 0.1)
	opt := optim.NewAdam(0.03)
	tape := ag.NewTape()
	grads := make([]*mat.Dense, len(ps.All()))
	var loss float64
	for epoch := 0; epoch < 300; epoch++ {
		tape.Reset()
		h := g.Run(tape, []*ag.Node{tape.Const(first), tape.Const(noise1), tape.Const(noise2)})
		loss = Step(tape, tape.BCEWithLogits(readout.Apply(tape, h), labels), &ps, grads, opt)
	}
	if loss > 0.2 {
		t.Fatalf("GRU failed to learn first-step signal, loss %v", loss)
	}
}
