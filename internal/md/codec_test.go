package md

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"dssddi/internal/dataset"
	"dssddi/internal/graph"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
	"dssddi/internal/snapshot"
	"dssddi/internal/synth"
)

func servingDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	opts := synth.DefaultCohortOptions()
	opts.Males, opts.Females = 30, 25
	return dataset.FromCohort(rng, synth.GenerateCohort(rng, opts), nil)
}

// codecDataset is a hand-made instance of eight patients, three
// features and five drugs, small enough that its model's MD section is
// a short fuzz seed.
func codecDataset() *dataset.Dataset {
	g := graph.NewSigned(5)
	g.SetEdge(0, 1, graph.Synergy)
	g.SetEdge(1, 4, graph.Synergy)
	g.SetEdge(2, 3, graph.Antagonism)
	return &dataset.Dataset{
		X: mat.FromRows([][]float64{
			{0, 0, 1}, {0.2, 0.1, 1}, {0.1, 0.3, 0}, {2, 2, 0},
			{2.1, 1.8, 1}, {1.9, 2.2, 0}, {0.1, 0.2, 1}, {2, 1.9, 1},
		}),
		Y: mat.FromRows([][]float64{
			{1, 1, 0, 0, 0}, {1, 0, 0, 0, 0}, {0, 1, 0, 0, 1}, {0, 0, 1, 1, 0},
			{0, 0, 1, 0, 0}, {0, 0, 0, 1, 1}, {1, 1, 0, 0, 0}, {0, 0, 1, 1, 0},
		}),
		DDI:         g,
		Train:       []int{0, 1, 2, 3, 4, 5},
		Val:         []int{6},
		Test:        []int{7},
		NumClusters: 2,
	}
}

// codecModel trains a tiny MDGCN over codecDataset whose relation
// embeddings are its hidden width, the shape System.Train builds.
func codecModel(t testing.TB) *Model {
	t.Helper()
	d := codecDataset()
	cfg := DefaultConfig()
	cfg.Hidden, cfg.Epochs = 4, 10
	rel := mat.RandNormal(rand.New(rand.NewSource(7)), d.NumDrugs(), cfg.Hidden, 0.5)
	m := NewModel(d, rel, cfg)
	m.Train()
	return m
}

// encodeSection returns m's MD section.
func encodeSection(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := snapshot.NewRawEncoder(&buf)
	m.Encode(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSection decodes an MD section over d behind the magic and
// version every snapshot stream starts with.
func decodeSection(t testing.TB, section []byte, d *dataset.Dataset, rel int) (*Model, error) {
	t.Helper()
	var head bytes.Buffer
	if err := snapshot.NewEncoder(&head).Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoder(io.MultiReader(&head, bytes.NewReader(section)))
	if err != nil {
		t.Fatal(err)
	}
	return Decode(dec, d, rel)
}

func TestDecodeRoundTrip(t *testing.T) {
	m := codecModel(t)
	d := m.Data
	section := encodeSection(t, m)
	got, err := decodeSection(t, section, d, m.Config.Hidden)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParams() != m.NumParams() {
		t.Fatalf("decoded model has %d params, original %d", got.NumParams(), m.NumParams())
	}
	patients := []int{0, 1, 2, 3, 4, 5, 6, 7}
	bitsEqualRows(t, "decoded Scores", got.Scores(patients), m.Scores(patients))
	for _, regimen := range [][]int{{0, 1}, {2, 3, 4}} {
		want, err := m.EmbedPatient(regimen, nil)
		if err != nil {
			t.Fatal(err)
		}
		e, err := got.EmbedPatient(regimen, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualSlice(t, "decoded regimen scores", got.ScoresFor(e), m.ScoresFor(want))
	}
	// Recomputing the drug representations on the tape, over the
	// observed-data view a decoded model does not keep, reproduces the
	// cache the model was decoded with.
	got.obs = d.Observed()
	bitsEqualRows(t, "decoded inferDrugReps", got.inferDrugReps(), got.DrugRepresentations())
	if !bytes.Equal(encodeSection(t, got), section) {
		t.Fatal("encoding the decoded model wrote different bytes")
	}
	if _, err := decodeSection(t, section[:len(section)-1], d, m.Config.Hidden); err == nil {
		t.Fatal("a truncated section decodes")
	}
}

// TestDecodeRejectsChangedPart encodes the tiny model with one part
// changed. Each section declares a shape, count or activation the
// architecture does not have; served, it would panic on the first
// request or (activation 99) score as though the decoder had no
// activation. Decode must refuse every one.
func TestDecodeRejectsChangedPart(t *testing.T) {
	m0 := codecModel(t)
	d, h := m0.Data, m0.Config.Hidden
	good := encodeSection(t, m0)
	rng := rand.New(rand.NewSource(3))
	var ps nn.Params
	for _, tc := range []struct {
		name   string
		change func(m *Model)
	}{
		{"patient-encoder layer", func(m *Model) { m.fcPat.Layers[1] = nn.NewLinear(rng, &ps, h/2, h) }},
		{"drug-encoder width", func(m *Model) { m.fcDrug = nn.NewLinear(rng, &ps, d.NumDrugs(), h/2) }},
		{"three-layer decoder", func(m *Model) { m.decoder = nn.NewMLP(rng, &ps, []int{h + 1, h, h, 1}, nn.ActLeakyReLU) }},
		{"decoder input width", func(m *Model) { m.decoder = nn.NewMLP(rng, &ps, []int{h + 2, h, 1}, nn.ActLeakyReLU) }},
		{"decoder activation 99", func(m *Model) { m.decoder.Act = 99 }},
		{"missing decoder", func(m *Model) { m.decoder = &nn.MLP{Act: nn.ActLeakyReLU} }},
		{"missing drug cache", func(m *Model) { m.drugCache = nil }},
		{"missing treatment", func(m *Model) { m.Treatment = &Treatment{} }},
		{"centroids one column short", func(m *Model) { m.Treatment.Centroids = mat.New(d.NumClusters, d.X.Cols()-1) }},
		{"cluster drug", func(m *Model) { m.Treatment.clusterDrugs[0][d.NumDrugs()] = true }},
		{"hidden width", func(m *Model) { m.Config.Hidden = 2 * h }},
		{"propagation depth", func(m *Model) { m.Config.PropLayers = 1 << 40 }},
		{"relation projection", func(m *Model) { m.relProj = nn.NewLinear(rng, &ps, h, h) }},
		{"missing relation embeddings", func(m *Model) { m.relEmb = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeSection(t, good, d, h)
			if err != nil {
				t.Fatal(err)
			}
			tc.change(m)
			if _, err := decodeSection(t, encodeSection(t, m), d, h); err == nil {
				t.Fatal("the changed section decodes")
			}
		})
	}
}

// FuzzDecode passes arbitrary bytes to Decode as an MD section, seeded
// with the tiny model's own: Load decodes that section before it
// verifies the checksum, so these are bytes Decode can meet. A section
// Decode accepts must serve every read path without a panic and encode
// again to a prefix of itself.
func FuzzDecode(f *testing.F) {
	m := codecModel(f)
	d, h := m.Data, m.Config.Hidden
	f.Add(encodeSection(f, m))
	f.Fuzz(func(t *testing.T, section []byte) {
		got, err := decodeSection(t, section, d, h)
		if err != nil {
			return
		}
		got.Scores(d.Test)
		got.TopKScores(d.Test[0], 3)
		dst := make([]float64, d.NumDrugs())
		for _, features := range [][]float64{nil, d.X.Row(d.Test[0])} {
			e, err := got.EmbedPatient([]int{0, 3}, features)
			if err != nil {
				t.Fatal(err)
			}
			got.ScoresForInto(dst, e)
		}
		if again := encodeSection(t, got); !bytes.HasPrefix(section, again) {
			t.Fatalf("an accepted %d-byte section encodes to %d different bytes", len(section), len(again))
		}
	})
}

func TestRestoreTreatmentMatchesBuild(t *testing.T) {
	d := servingDataset(t)
	rng := rand.New(rand.NewSource(9))
	x, y := d.Rows(d.Train), d.Labels(d.Train)
	orig := BuildTreatment(rng, x, y, d.DDI, d.NumClusters)

	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	encodeTreatment(e, orig)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := decodeTreatment(dec, d)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
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
