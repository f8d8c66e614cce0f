package ag

import (
	"math/rand"
	"testing"

	"dssddi/internal/mat"
)

// trainStep runs one MLP-ish forward/backward on tp and applies a plain
// SGD update, returning the loss. idx and target vary per step to
// exercise the per-epoch operand refresh of retained nodes.
func trainStep(tp *Tape, x, w1, b1, w2 *mat.Dense, idx []int, target *mat.Dense) float64 {
	h := tp.ReLU(tp.AddBias(tp.MatMul(tp.Const(x), tp.Param(w1)), tp.Param(b1)))
	g := tp.GatherRows(h, idx)
	logits := tp.MatMul(g, tp.Param(w2))
	loss := tp.BCEWithLogits(logits, target)
	tp.Backward(loss)
	for _, p := range []*mat.Dense{w1, b1, w2} {
		if gr := tp.Grad(p); gr != nil {
			p.AddScaled(gr, -0.05)
		}
	}
	return loss.Value.At(0, 0)
}

// TestReplayMatchesFreshTapes is the core retained-tape equivalence
// gate: training with one tape reset per step must be bitwise identical
// to training with a fresh tape every step, including per-step index
// and target changes (negative-sampling style).
func TestReplayMatchesFreshTapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := mat.RandNormal(rng, 9, 5, 1)
	mkParams := func() (w1, b1, w2 *mat.Dense) {
		r := rand.New(rand.NewSource(7))
		return mat.RandNormal(r, 5, 6, 0.5), mat.RandNormal(r, 1, 6, 0.1), mat.RandNormal(r, 6, 1, 0.5)
	}
	w1a, b1a, w2a := mkParams()
	w1b, b1b, w2b := mkParams()

	steps := 30
	idxs := make([][]int, steps)
	targets := make([]*mat.Dense, steps)
	for s := range idxs {
		idxs[s] = []int{rng.Intn(9), rng.Intn(9), rng.Intn(9), rng.Intn(9)}
		tg := mat.New(4, 1)
		for i := 0; i < 4; i++ {
			if rng.Float64() < 0.5 {
				tg.Set(i, 0, 1)
			}
		}
		targets[s] = tg
	}

	retained := NewTape()
	nodesAfterFirst := -1
	for s := 0; s < steps; s++ {
		retained.Reset()
		lossA := trainStep(retained, x, w1a, b1a, w2a, idxs[s], targets[s])
		if s == 0 {
			nodesAfterFirst = retained.NumNodes()
		} else if retained.NumNodes() != nodesAfterFirst {
			t.Fatalf("step %d: retained graph grew from %d to %d nodes", s, nodesAfterFirst, retained.NumNodes())
		}

		fresh := NewTape()
		lossB := trainStep(fresh, x, w1b, b1b, w2b, idxs[s], targets[s])
		if lossA != lossB {
			t.Fatalf("step %d: retained loss %v != fresh-tape loss %v", s, lossA, lossB)
		}
	}
	for i, pair := range [][2]*mat.Dense{{w1a, w1b}, {b1a, b1b}, {w2a, w2b}} {
		for k, v := range pair[0].Data() {
			if v != pair[1].Data()[k] {
				t.Fatalf("param %d diverged at element %d: %v vs %v", i, k, v, pair[1].Data()[k])
			}
		}
	}
}

// TestReplayDivergenceRecovers checks that changing the op sequence
// mid-training drops the stale tail and keeps producing correct
// results (structure may change; only the allocation win is lost).
func TestReplayDivergenceRecovers(t *testing.T) {
	w := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	x := mat.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	tp := NewTape()

	build := func(extraScale bool) float64 {
		tp.Reset()
		h := tp.MatMul(tp.Const(x), tp.Param(w))
		if extraScale {
			h = tp.Scale(h, 2)
		}
		loss := tp.Mean(h)
		tp.Backward(loss)
		return loss.Value.At(0, 0)
	}

	plain := build(false)
	scaled := build(true) // diverges at the Scale op
	again := build(false) // diverges back
	if scaled != 2*plain {
		t.Fatalf("diverged graph: got %v, want %v", scaled, 2*plain)
	}
	if again != plain {
		t.Fatalf("re-diverged graph: got %v, want %v", again, plain)
	}
	// Gradient of mean over 6 elements: d/dw_kj = sum_i x_ik / 6.
	g := tp.Grad(w)
	if g == nil {
		t.Fatal("no gradient after divergence")
	}
	want := mat.FromRows([][]float64{{2.0 / 6, 2.0 / 6}, {2.0 / 6, 2.0 / 6}})
	for i, v := range g.Data() {
		if v != want.Data()[i] {
			t.Fatalf("grad[%d] = %v, want %v", i, v, want.Data()[i])
		}
	}
}

// TestDetachSurvivesReset ensures a detached value is not clobbered by
// later epochs reusing the graph slot.
func TestDetachSurvivesReset(t *testing.T) {
	w := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	x := mat.FromRows([][]float64{{1, 1}})
	tp := NewTape()

	tp.Reset()
	h := tp.MatMul(tp.Const(x), tp.Param(w))
	kept := tp.Detach(h)
	want := []float64{4, 6}
	for i, v := range kept.Data() {
		if v != want[i] {
			t.Fatalf("detached[%d] = %v, want %v", i, v, want[i])
		}
	}

	w.Set(0, 0, 100)
	tp.Reset()
	h2 := tp.MatMul(tp.Const(x), tp.Param(w))
	if h2.Value == kept {
		t.Fatal("reset reused the detached matrix")
	}
	for i, v := range kept.Data() {
		if v != want[i] {
			t.Fatalf("detached value clobbered: [%d] = %v, want %v", i, v, want[i])
		}
	}
	if got := h2.Value.At(0, 0); got != 103 {
		t.Fatalf("recomputed value = %v, want 103", got)
	}
}

// TestPrefixReplayKeepsGraph replays only the first ops of a recorded
// graph, as a model does when it computes its representations between
// training epochs: the prefix reuses its recorded nodes and buffers,
// and the next full epoch reuses the tail the prefix did not reach.
func TestPrefixReplayKeepsGraph(t *testing.T) {
	w := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	x := mat.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	tp := NewTape()
	prefix := func() *Node { return tp.ReLU(tp.MatMul(tp.Const(x), tp.Param(w))) }
	full := func() *Node {
		h := prefix()
		loss := tp.Mean(tp.Scale(h, 2))
		tp.Backward(loss)
		return h
	}

	tp.Reset()
	h := full()
	nodes, value := tp.NumNodes(), h.Value

	tp.Reset()
	if got := prefix(); got != h || got.Value != value {
		t.Fatal("prefix replay did not reuse the recorded node and buffer")
	}
	if tp.NumNodes() != nodes {
		t.Fatalf("prefix replay changed the graph from %d to %d nodes", nodes, tp.NumNodes())
	}

	tp.Reset()
	if got := full(); got != h || got.Value != value || tp.NumNodes() != nodes {
		t.Fatalf("full replay after a prefix: node reused %v, buffer reused %v, %d nodes, want %d",
			got == h, got.Value == value, tp.NumNodes(), nodes)
	}
}
