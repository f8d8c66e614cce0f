package dssddi

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// trainedSystem builds a small trained system shared across tests.
func trainedSystem(t *testing.T) (*System, *Data) {
	t.Helper()
	data := GenerateChronic(1, 150, 120)
	cfg := DefaultConfig()
	cfg.DDIEpochs = 60
	cfg.MDEpochs = 120
	cfg.Hidden = 32
	sys := New(cfg)
	if err := sys.Train(data); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return sys, data
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Backbone != "SGCN" || cfg.DDIEpochs != 400 || cfg.MDEpochs != 1000 ||
		cfg.Hidden != 64 || cfg.Delta != 1 {
		t.Fatalf("defaults drifted from the paper: %+v", cfg)
	}
}

func TestGenerateChronicShape(t *testing.T) {
	data := GenerateChronic(2, 60, 40)
	if data.NumPatients() != 100 {
		t.Fatalf("patients %d", data.NumPatients())
	}
	if data.NumDrugs() != 86 {
		t.Fatalf("drugs %d, want 86", data.NumDrugs())
	}
	if data.DrugName(1) != "Doxazosin" {
		t.Fatalf("drug name: %s", data.DrugName(1))
	}
	total := len(data.TrainPatients()) + len(data.ValPatients()) + len(data.TestPatients())
	if total != 100 {
		t.Fatalf("split covers %d", total)
	}
	if len(data.Features(0)) != 71 {
		t.Fatal("feature dim wrong")
	}
}

func TestUntrainedSystemErrors(t *testing.T) {
	sys := New(DefaultConfig())
	if _, err := sys.Suggest(0, 3); err == nil {
		t.Fatal("Suggest before Train must error")
	}
	if _, err := sys.Scores([]int{0}); err == nil {
		t.Fatal("Scores before Train must error")
	}
	if _, err := sys.Explain([]int{1}); err == nil {
		t.Fatal("Explain before Train must error")
	}
}

func TestUnknownBackboneErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backbone = "GPT"
	sys := New(cfg)
	if err := sys.Train(GenerateChronic(3, 40, 30)); err == nil ||
		!strings.Contains(err.Error(), "unknown backbone") {
		t.Fatalf("expected backbone error, got %v", err)
	}
}

func TestSignedBackboneRejectedOnUnsignedData(t *testing.T) {
	data := GenerateMIMIC(4, 80)
	cfg := DefaultConfig()
	cfg.Backbone = "SGCN"
	cfg.DDIEpochs = 10
	cfg.MDEpochs = 10
	sys := New(cfg)
	if err := sys.Train(data); err == nil {
		t.Fatal("SGCN on unsigned MIMIC DDI must be rejected (paper Table IV note)")
	}
	// A rejected retrain leaves a trained system as it was: its data,
	// its models and its dataset digest still agree.
	chronic := GenerateChronic(4, 20, 20)
	if err := sys.Train(chronic); err != nil {
		t.Fatal(err)
	}
	before, err := sys.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(data); err == nil {
		t.Fatal("SGCN on unsigned MIMIC DDI must be rejected on a trained system too")
	}
	if sys.Data() != chronic {
		t.Fatal("a rejected retrain replaced the trained system's data")
	}
	if after, err := sys.SnapshotInfo(); err != nil || after != before {
		t.Fatalf("a rejected retrain changed the snapshot info: %+v, want %+v (%v)", after, before, err)
	}
	if _, err := sys.Suggest(chronic.NumPatients()-1, 3); err != nil {
		t.Fatal(err)
	}
	cfg.Backbone = "GIN"
	sys = New(cfg)
	if err := sys.Train(data); err != nil {
		t.Fatalf("GIN must work on unsigned data: %v", err)
	}
}

func TestTrainSuggestExplainRoundTrip(t *testing.T) {
	sys, data := trainedSystem(t)
	p := data.TestPatients()[0]
	suggs, err := sys.Suggest(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggs) != 3 {
		t.Fatalf("got %d suggestions", len(suggs))
	}
	for i := 1; i < len(suggs); i++ {
		if suggs[i].Score > suggs[i-1].Score {
			t.Fatal("suggestions not sorted by score")
		}
	}
	if suggs[0].DrugName == "" {
		t.Fatal("names must be resolved")
	}
	ex, err := sys.ExplainSuggestions(suggs)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Text == "" || !strings.Contains(ex.Text, "Suggestion Satisfaction") {
		t.Fatalf("explanation text: %q", ex.Text)
	}
	if ex.SS < 0 {
		t.Fatal("SS must be non-negative")
	}
}

func TestEvaluateReports(t *testing.T) {
	sys, data := trainedSystem(t)
	ms, err := sys.Evaluate(data.TestPatients(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].K != 2 || ms[1].K != 4 {
		t.Fatalf("reports %+v", ms)
	}
	for _, m := range ms {
		if m.Precision < 0 || m.Precision > 1 || m.NDCG < 0 || m.NDCG > 1 {
			t.Fatalf("metric out of range: %+v", m)
		}
	}
	// The trained system must beat random ranking (P@4 random ~0.025).
	if ms[1].Precision < 0.05 {
		t.Fatalf("P@4 = %v; system did not learn", ms[1].Precision)
	}
}

func TestScoresAndEmbeddingsShapes(t *testing.T) {
	sys, data := trainedSystem(t)
	rows, err := sys.Scores(data.TestPatients()[:5])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || len(rows[0]) != data.NumDrugs() {
		t.Fatal("score shape wrong")
	}
	emb, err := sys.DrugRelationEmbeddings()
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != data.NumDrugs() {
		t.Fatal("embedding rows wrong")
	}
}

func TestExplicitZeroSentinel(t *testing.T) {
	// Literal zero selects the paper defaults for Alpha AND Delta —
	// previously Delta silently stayed 0, contradicting the Config doc.
	cfg := Config{}
	cfg.fill()
	if cfg.Alpha != 0.5 || cfg.Delta != 1 {
		t.Fatalf("zero-value Config filled to Alpha=%v Delta=%v, want 0.5 and 1", cfg.Alpha, cfg.Delta)
	}
	// The sentinel makes an exact zero expressible.
	cfg = Config{Alpha: ExplicitZero, Delta: ExplicitZero}
	cfg.fill()
	if cfg.Alpha != 0 || cfg.Delta != 0 {
		t.Fatalf("ExplicitZero filled to Alpha=%v Delta=%v, want 0 and 0", cfg.Alpha, cfg.Delta)
	}
	// Explicit non-zero values pass through untouched.
	cfg = Config{Alpha: 0.25, Delta: 2}
	cfg.fill()
	if cfg.Alpha != 0.25 || cfg.Delta != 2 {
		t.Fatalf("explicit values clobbered: Alpha=%v Delta=%v", cfg.Alpha, cfg.Delta)
	}
}

func TestInvalidAlphaDeltaRejected(t *testing.T) {
	data := GenerateChronic(3, 40, 30)
	for _, tc := range []struct{ alpha, delta float64 }{
		{alpha: 2, delta: 1},
		{alpha: -0.5, delta: 1},
		{alpha: 0.5, delta: -3},
	} {
		cfg := DefaultConfig()
		cfg.Alpha, cfg.Delta = tc.alpha, tc.delta
		if err := New(cfg).Train(data); err == nil ||
			!strings.Contains(err.Error(), "ExplicitZero") {
			t.Fatalf("Alpha=%v Delta=%v must be rejected with a sentinel hint, got %v", tc.alpha, tc.delta, err)
		}
	}
}

func TestExplainSuggestionsUntrainedErrors(t *testing.T) {
	sys := New(DefaultConfig())
	if _, err := sys.ExplainSuggestions([]Suggestion{{DrugID: 1}}); err == nil {
		t.Fatal("ExplainSuggestions before Train must propagate the error")
	}
}

func TestSuggestOutOfRange(t *testing.T) {
	sys, data := trainedSystem(t)
	if _, err := sys.Suggest(data.NumPatients()+5, 3); err == nil {
		t.Fatal("out-of-range patient must error")
	}
}

// TestPatientIndicesOutOfRange pins the one range check of the methods
// that take patient indices. Scores and Evaluate used to pass them
// straight to the scoring engine: an index past the data panicked in a
// pool worker, which kills the process, and a negative one panicked on
// the caller's goroutine.
func TestPatientIndicesOutOfRange(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{make([]float64, sys.data.NumDrugs()), make([]float64, sys.data.NumDrugs())}
	for _, p := range []int{sys.data.NumPatients(), -1} {
		if _, err := sys.Scores([]int{0, p}); err == nil {
			t.Fatalf("Scores accepted patient %d", p)
		}
		if _, err := sys.Evaluate([]int{0, p}, []int{4}); err == nil {
			t.Fatalf("Evaluate accepted patient %d", p)
		}
		if err := sys.ScoresInto(rows, []int{0, p}); err == nil {
			t.Fatalf("ScoresInto accepted patient %d", p)
		}
		if _, err := sys.Suggest(p, 4); err == nil {
			t.Fatalf("Suggest accepted patient %d", p)
		}
	}
}
