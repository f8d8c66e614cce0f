package md

import (
	"math/rand"
	"testing"

	"dssddi/internal/ag"
	"dssddi/internal/mat"
)

// TestInferMatchesTapeEncode trains a small MDGCN and checks that the
// drug representations Train cached, which inferDrugReps computed by
// replaying the retained training tape, are bitwise identical to
// encode run on a fresh tape; and that the batched reference decode
// (reference_test.go) reproduces the tape's decoder logits.
func TestInferMatchesTapeEncode(t *testing.T) {
	d := smallDataset(21)
	rng := rand.New(rand.NewSource(9))
	relEmb := mat.RandNormal(rng, d.NumDrugs(), 6, 0.5)

	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.Epochs = 6
	cfg.SelectOnVal = false
	m := NewModel(d, relEmb, cfg)
	m.Train()

	tape := ag.NewTape()
	hPatNode, hDrugNode := m.encode(tape)
	wantDrug := hDrugNode.Value
	if m.drugCache.Rows() != wantDrug.Rows() || m.drugCache.Cols() != wantDrug.Cols() {
		t.Fatalf("drug cache shape %dx%d, want %dx%d", m.drugCache.Rows(), m.drugCache.Cols(), wantDrug.Rows(), wantDrug.Cols())
	}
	for i, v := range m.drugCache.Data() {
		if v != wantDrug.Data()[i] {
			t.Fatalf("cached drug rep element %d: %v != fresh tape %v", i, v, wantDrug.Data()[i])
		}
	}

	// Decode equivalence on a handful of (patient, drug) pairs.
	pIdx := []int{0, 0, 1, 2}
	vIdx := []int{0, 1, 2, 3}
	tr := column([]float64{0, 1, 0, 1})
	want := m.decodeWith(tape, m.decodeInter(tape, hPatNode, hDrugNode, pIdx, vIdx), tr).Value
	got := m.decodeInfer(m.fcPat.Forward(m.obs.X), m.drugCache, pIdx, vIdx, tr)
	for i, v := range got.Data() {
		if v != want.Data()[i] {
			t.Fatalf("logit %d: reference %v != tape %v", i, v, want.Data()[i])
		}
	}
}
