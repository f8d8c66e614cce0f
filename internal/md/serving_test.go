package md

import (
	"math/rand"
	"testing"

	"dssddi/internal/dataset"
	"dssddi/internal/nn"
	"dssddi/internal/synth"
)

func servingDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	opts := synth.DefaultCohortOptions()
	opts.Males, opts.Females = 30, 25
	return dataset.FromCohort(rng, synth.GenerateCohort(rng, opts), nil)
}

func TestServingStateRoundTrip(t *testing.T) {
	d := servingDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.Hidden = 8
	m := NewModel(d, nil, cfg)

	// Before training there is no drug cache to export.
	if _, err := m.ServingState(); err == nil {
		t.Fatal("ServingState before Train must error")
	}
	m.Train()
	st, err := m.ServingState()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := NewServing(d, st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumParams() != m.NumParams() {
		t.Fatalf("restored model has %d params, original %d", restored.NumParams(), m.NumParams())
	}
	patients := d.Test[:4]
	want := m.Scores(patients)
	got := restored.Scores(patients)
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Fatalf("restored Scores diverged at (%d,%d): %v vs %v", i, j, want.At(i, j), got.At(i, j))
			}
		}
	}

	// The restored model's fallback path (cache cleared) must also
	// reproduce the cached representations it was restored with.
	reps := restored.DrugRepresentations()
	fromScratch := restored.inferDrugReps()
	for i := 0; i < reps.Rows(); i++ {
		for j := 0; j < reps.Cols(); j++ {
			if reps.At(i, j) != fromScratch.At(i, j) {
				t.Fatalf("restored inferDrugReps diverged at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewServingValidation(t *testing.T) {
	d := servingDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.Hidden = 8
	m := NewModel(d, nil, cfg)
	m.Train()
	good, err := m.ServingState()
	if err != nil {
		t.Fatal(err)
	}

	broken := good
	broken.Decoder = nil
	if _, err := NewServing(d, broken); err == nil {
		t.Fatal("missing decoder must be rejected")
	}
	broken = good
	broken.DrugCache = nil
	if _, err := NewServing(d, broken); err == nil {
		t.Fatal("missing drug cache must be rejected")
	}
	broken = good
	broken.Treatment = nil
	if _, err := NewServing(d, broken); err == nil {
		t.Fatal("missing treatment must be rejected")
	}

	// Decoders the fused engine cannot run must fail the load, not the
	// first Scores call on a pool worker.
	rng := rand.New(rand.NewSource(3))
	var ps nn.Params
	for _, sizes := range [][]int{
		{cfg.Hidden + 2, cfg.Hidden, 1},             // input width hidden+2
		{cfg.Hidden + 1, cfg.Hidden, cfg.Hidden, 1}, // three layers
	} {
		broken = good
		broken.Decoder = nn.NewMLP(rng, &ps, sizes, nn.ActLeakyReLU)
		if _, err := NewServing(d, broken); err == nil {
			t.Fatalf("decoder %v must be rejected", sizes)
		}
	}
}

func TestRestoreTreatmentMatchesBuild(t *testing.T) {
	d := servingDataset(t)
	rng := rand.New(rand.NewSource(9))
	x, y := d.Rows(d.Train), d.Labels(d.Train)
	orig := BuildTreatment(rng, x, y, d.DDI, d.NumClusters)

	restored := RestoreTreatment(orig.T, orig.Assign, orig.Centroids, orig.ClusterSets(), d.DDI)
	for _, p := range d.Test[:6] {
		a := orig.InferRow(d.X.Row(p))
		b := restored.InferRow(d.X.Row(p))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("restored treatment row diverged for patient %d at drug %d", p, j)
			}
		}
	}
}
