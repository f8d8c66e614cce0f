package optim

import (
	"math"
	"testing"

	"dssddi/internal/mat"
)

// quadGrad returns the gradient of f(x) = Σ (x-target)² at x.
func quadGrad(x, target *mat.Dense) *mat.Dense {
	g := mat.SubMat(x, target)
	g.Scale(2)
	return g
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := mat.FromRows([][]float64{{5, -3}, {2, 8}})
	target := mat.FromRows([][]float64{{1, 1}, {1, 1}})
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		opt.Step([]*mat.Dense{x}, []*mat.Dense{quadGrad(x, target)})
	}
	for i, v := range x.Data() {
		if math.Abs(v-target.Data()[i]) > 1e-3 {
			t.Fatalf("Adam did not converge: x=%v", x)
		}
	}
}

func TestNilGradSkipsParam(t *testing.T) {
	x := mat.FromRows([][]float64{{3}})
	y := mat.FromRows([][]float64{{4}})
	opt := NewAdam(0.1)
	opt.Step([]*mat.Dense{x, y}, []*mat.Dense{nil, quadGrad(y, mat.New(1, 1))})
	if x.At(0, 0) != 3 {
		t.Fatal("param with nil grad must be untouched")
	}
	if y.At(0, 0) == 4 {
		t.Fatal("param with grad must move")
	}
}

func TestAdamMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdam(0.1).Step([]*mat.Dense{mat.New(1, 1)}, nil)
}

func TestAdamWeightDecayShrinksParams(t *testing.T) {
	x := mat.FromRows([][]float64{{10}})
	opt := NewAdam(0.01)
	opt.WeightDecay = 0.1
	zero := mat.New(1, 1)
	for i := 0; i < 100; i++ {
		opt.Step([]*mat.Dense{x}, []*mat.Dense{zero.Clone()})
	}
	if math.Abs(x.At(0, 0)) >= 10 {
		t.Fatalf("weight decay had no effect: %v", x.At(0, 0))
	}
}

func TestClipGlobalNorm(t *testing.T) {
	g1 := mat.FromRows([][]float64{{3, 0}})
	g2 := mat.FromRows([][]float64{{0, 4}})
	pre := ClipGlobalNorm([]*mat.Dense{g1, nil, g2}, 1.0)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	var total float64
	for _, g := range []*mat.Dense{g1, g2} {
		for _, v := range g.Data() {
			total += v * v
		}
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(total))
	}
}

func TestClipNoOpBelowThreshold(t *testing.T) {
	g := mat.FromRows([][]float64{{0.3, 0.4}})
	ClipGlobalNorm([]*mat.Dense{g}, 10)
	if g.At(0, 0) != 0.3 || g.At(0, 1) != 0.4 {
		t.Fatal("clip should be a no-op when under threshold")
	}
}
