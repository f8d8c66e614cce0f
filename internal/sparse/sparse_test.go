package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dssddi/internal/mat"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1, 2)
	b.Add(2, 3, 5)
	b.Add(0, 1, 3) // duplicate: summed
	c := b.Build()
	if c.Rows() != 3 || c.Cols() != 4 {
		t.Fatalf("shape %dx%d", c.Rows(), c.Cols())
	}
	if c.NNZ() != 2 {
		t.Fatalf("NNZ=%d, want 2 (duplicates merged)", c.NNZ())
	}
	if c.At(0, 1) != 5 {
		t.Fatalf("At(0,1)=%v, want 5", c.At(0, 1))
	}
	if c.At(1, 1) != 0 {
		t.Fatalf("missing entry should read 0, got %v", c.At(1, 1))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestRowIteration(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(1, 0, 1)
	b.Add(1, 2, 2)
	c := b.Build()
	if c.RowNNZ(0) != 0 || c.RowNNZ(1) != 2 {
		t.Fatalf("RowNNZ wrong: %d %d", c.RowNNZ(0), c.RowNNZ(1))
	}
	var cols []int
	var vals []float64
	c.Row(1, func(col int, v float64) { cols = append(cols, col); vals = append(vals, v) })
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[1] != 2 {
		t.Fatalf("Row iteration wrong: %v %v", cols, vals)
	}
}

func TestMulDenseAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		b := NewBuilder(r, k)
		for e := 0; e < r*k/2+1; e++ {
			b.Add(rng.Intn(r), rng.Intn(k), rng.NormFloat64())
		}
		s := b.Build()
		x := mat.RandNormal(rng, k, c, 1)
		got := s.MulDense(x)
		want := mat.MatMul(s.ToDense(), x)
		for i, v := range got.Data() {
			if math.Abs(v-want.Data()[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 2, 7)
	b.Add(1, 0, -1)
	ct := b.Build().T()
	if ct.Rows() != 3 || ct.Cols() != 2 {
		t.Fatalf("T shape %dx%d", ct.Rows(), ct.Cols())
	}
	if ct.At(2, 0) != 7 || ct.At(0, 1) != -1 {
		t.Fatal("transpose values wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder(5, 7)
	for e := 0; e < 12; e++ {
		b.Add(rng.Intn(5), rng.Intn(7), rng.NormFloat64())
	}
	c := b.Build()
	ctt := c.T().T()
	d1, d2 := c.ToDense(), ctt.ToDense()
	for i, v := range d1.Data() {
		if v != d2.Data()[i] {
			t.Fatal("TT != identity")
		}
	}
}

func TestMeanAdjacencyRowsSumToOne(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	a := MeanAdjacency(3, edges)
	for r := 0; r < 3; r++ {
		var sum float64
		a.Row(r, func(_ int, v float64) { sum += v })
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 1", r, sum)
		}
	}
}

func TestMeanAdjacencySignedWeights(t *testing.T) {
	// A signed edge keeps its sign but is scaled by 1/deg.
	a := MeanAdjacency(2, []Edge{{U: 0, V: 1, Weight: -1}})
	if a.At(0, 1) != -1 {
		t.Fatalf("signed mean adjacency wrong: %v", a.At(0, 1))
	}
}

func TestBipartiteNorm(t *testing.T) {
	// 2 patients, 3 drugs; patient 0 takes drugs {0,1}, patient 1 takes {1}.
	l2r, r2l := BipartiteNorm(2, 3, [][]int{{0, 1}, {1}})
	if l2r.Rows() != 2 || l2r.Cols() != 3 || r2l.Rows() != 3 || r2l.Cols() != 2 {
		t.Fatal("shapes wrong")
	}
	// Drug 1 has degree 2, patient 0 degree 2 -> weight 1/2.
	if math.Abs(l2r.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("l2r(0,1)=%v, want 0.5", l2r.At(0, 1))
	}
	// The two operators are transposes of each other.
	d1 := l2r.ToDense()
	d2 := r2l.ToDense().T()
	for i, v := range d1.Data() {
		if math.Abs(v-d2.Data()[i]) > 1e-12 {
			t.Fatal("l2r and r2l should be mutual transposes")
		}
	}
}

func TestBipartiteNormEmptyPatient(t *testing.T) {
	l2r, _ := BipartiteNorm(2, 2, [][]int{{}, {0}})
	for j := 0; j < 2; j++ {
		if v := l2r.At(0, j); v != 0 || math.IsNaN(v) {
			t.Fatalf("patient with no links should have zero row, got %v", v)
		}
	}
}
