package dataset

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dssddi/internal/mat"
	"dssddi/internal/synth"
)

func TestSplitRatiosAndDisjointness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, val, test := Split(rng, 100, 5, 3, 2)
	if len(train) != 50 || len(val) != 30 || len(test) != 20 {
		t.Fatalf("split sizes %d/%d/%d", len(train), len(val), len(test))
	}
	seen := map[int]bool{}
	for _, xs := range [][]int{train, val, test} {
		for _, i := range xs {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("split covers %d of 100", len(seen))
	}
}

func TestSplitSmallN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train, val, test := Split(rng, 3, 5, 3, 2)
	if len(train)+len(val)+len(test) != 3 {
		t.Fatal("small split must cover all")
	}
}

func TestStandardizeUsesFitRowsOnly(t *testing.T) {
	x := mat.FromRows([][]float64{{0}, {2}, {100}})
	Standardize(x, []int{0, 1}) // fit stats: mean 1, std 1
	if math.Abs(x.At(0, 0)+1) > 1e-9 || math.Abs(x.At(1, 0)-1) > 1e-9 {
		t.Fatalf("standardised fit rows wrong: %v %v", x.At(0, 0), x.At(1, 0))
	}
	if math.Abs(x.At(2, 0)-99) > 1e-9 {
		t.Fatalf("held-out row should use fit stats: %v", x.At(2, 0))
	}
}

func TestStandardizeConstantColumn(t *testing.T) {
	x := mat.FromRows([][]float64{{5, 1}, {5, 3}})
	Standardize(x, []int{0, 1})
	if math.IsNaN(x.At(0, 0)) || math.IsInf(x.At(0, 0), 0) {
		t.Fatal("constant column must not produce NaN/Inf")
	}
	if x.At(0, 0) != 0 {
		t.Fatalf("constant column should be centred to 0, got %v", x.At(0, 0))
	}
}

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	opts := synth.DefaultCohortOptions()
	opts.Males, opts.Females = 60, 40
	c := synth.GenerateCohort(rand.New(rand.NewSource(3)), opts)
	return FromCohort(rand.New(rand.NewSource(4)), c, nil)
}

func TestFromCohort(t *testing.T) {
	d := testDataset(t)
	if d.NumPatients() != 100 || d.NumDrugs() != synth.NumDrugs {
		t.Fatalf("shape %d %d", d.NumPatients(), d.NumDrugs())
	}
	if len(d.Train) != 50 || len(d.Val) != 30 || len(d.Test) != 20 {
		t.Fatalf("split %d/%d/%d", len(d.Train), len(d.Val), len(d.Test))
	}
	if len(d.DrugNames) != synth.NumDrugs || d.DrugNames[1] != "Doxazosin" {
		t.Fatal("drug names missing")
	}
	if d.NumClusters < 5 {
		t.Fatalf("NumClusters %d", d.NumClusters)
	}
}

func TestObserved(t *testing.T) {
	d := testDataset(t)
	o := d.Observed()
	if o.X.Rows() != len(d.Train) || o.Y.Rows() != len(d.Train) {
		t.Fatal("observed rows are not the train patients")
	}
	if o.DrugFeat.Rows() != d.NumDrugs() || o.DrugFeat.At(3, 3) != 1 || o.DrugFeat.At(3, 2) != 0 {
		t.Fatal("a dataset without drug features must fall back to one-hot IDs")
	}
	if o.L2R.Rows() != len(d.Train) || o.R2L.Rows() != d.NumDrugs() {
		t.Fatal("propagation operator shapes wrong")
	}
	// Patient i of the operators must link exactly Y[Train[i]].
	for i, p := range d.Train {
		truth := d.TruePositives(p)
		if o.L2R.RowNNZ(i) != len(truth) {
			t.Fatal("bipartite degree mismatch")
		}
		for _, v := range truth {
			if o.L2R.At(i, v) == 0 || o.R2L.At(v, i) != o.L2R.At(i, v) {
				t.Fatalf("link (%d,%d) missing or asymmetric", i, v)
			}
		}
	}
}

func TestPairsBalanced(t *testing.T) {
	d := testDataset(t)
	y := d.Labels(d.Train)
	pairs := NewPairs(y)
	rng := rand.New(rand.NewSource(5))
	for epoch := 0; epoch < 2; epoch++ {
		ps, vs, ys := pairs.Sample(rng)
		if len(ps) != len(vs) || len(vs) != ys.Rows() || len(ps) != 2*int(y.SumAll()) {
			t.Fatal("pair count is not two per positive")
		}
		for i, p := range ps {
			want := 1 - float64(i%2) // each positive, then its negative
			if ys.At(i, 0) != want || y.At(p, vs[i]) != want {
				t.Fatalf("pair %d (%d,%d): target %v, label %v, want %v", i, p, vs[i], ys.At(i, 0), y.At(p, vs[i]), want)
			}
		}
	}
}

// TestPairsSkipRowWithoutNegative samples a label matrix whose second
// row takes every column. That row has no negative to draw, so it
// contributes no pairs; rejection-sampling one never ended.
func TestPairsSkipRowWithoutNegative(t *testing.T) {
	y := mat.FromRows([][]float64{{1, 0, 0}, {1, 1, 1}})
	done := make(chan []int, 1)
	go func() {
		ps, _, _ := NewPairs(y).Sample(rand.New(rand.NewSource(1)))
		done <- ps
	}()
	select {
	case ps := <-done:
		if len(ps) != 2 || ps[0] != 0 || ps[1] != 0 {
			t.Fatalf("pairs drawn for rows %v, want one positive and one negative of row 0", ps)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Sample still running after 2 s")
	}
}

func TestFromMIMIC(t *testing.T) {
	opts := synth.DefaultMIMICOptions()
	opts.Patients = 60
	m := synth.GenerateMIMIC(rand.New(rand.NewSource(6)), opts)
	d := FromMIMIC(rand.New(rand.NewSource(7)), m)
	if d.NumPatients() != 60 || d.NumDrugs() != opts.Medicines {
		t.Fatalf("shape %d %d", d.NumPatients(), d.NumDrugs())
	}
	if d.DrugNames[3] != "MED_0003" {
		t.Fatalf("anonymous names wrong: %s", d.DrugNames[3])
	}
	syn, _, _ := d.DDI.CountBySign()
	if syn != 0 {
		t.Fatal("MIMIC DDI must be unsigned")
	}
}
