package md

import (
	"math"
	"testing"

	"dssddi/internal/mat"
	"dssddi/internal/metrics"
)

// withPrecision switches the shared fixture's serving precision for one
// test and guarantees the f64 default is restored for the rest of the
// package.
func withPrecision(t *testing.T, m *Model, p Precision) {
	t.Helper()
	if err := m.SetPrecision(p); err != nil {
		t.Fatalf("SetPrecision(%v): %v", p, err)
	}
	t.Cleanup(func() {
		if err := m.SetPrecision(F64); err != nil {
			t.Fatalf("restore F64: %v", err)
		}
	})
}

// TestParsePrecision pins the flag spellings.
func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{{"", F64}, {"f64", F64}, {"f32", F32}} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("Precision(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	for _, bad := range []string{"fp16", "int8-experimental"} {
		if _, err := ParsePrecision(bad); err == nil {
			t.Fatalf("ParsePrecision accepted unknown precision %q", bad)
		}
	}
}

// TestQuantizedScoresTrackOracle characterizes the f32 engine against
// the f64 oracle: max absolute score divergence stays inside the
// tolerance at both worker counts, and every f32 entry point (Scores,
// ScoresInto, ScoresRowsInto) produces the same bits as the others.
func TestQuantizedScoresTrackOracle(t *testing.T) {
	m := trainedScoreModel(t)
	d := m.Data
	patients := append(append([]int{}, d.Test...), d.Val...)
	oracle := m.Scores(patients)

	for _, tc := range []struct {
		prec Precision
		tol  float64
	}{{F32, 1e-4}} {
		withPrecision(t, m, tc.prec)
		var serial *mat.Dense
		for _, workers := range []int{1, 4} {
			mat.SetWorkers(workers)
			got := m.Scores(patients)
			var maxDelta float64
			g, w := got.Data(), oracle.Data()
			for i := range g {
				if dv := math.Abs(g[i] - w[i]); dv > maxDelta {
					maxDelta = dv
				}
			}
			if maxDelta > tc.tol {
				t.Fatalf("%v workers=%d: max |score - oracle| = %g, tolerance %g", tc.prec, workers, maxDelta, tc.tol)
			}
			t.Logf("%v workers=%d: max |score - oracle| = %g", tc.prec, workers, maxDelta)

			dst := mat.New(len(patients), d.NumDrugs())
			m.ScoresInto(dst, patients)
			bitsEqualRows(t, "quantized ScoresInto vs Scores", dst, got)
			rows := make([][]float64, len(patients))
			for i := range rows {
				rows[i] = make([]float64, d.NumDrugs())
			}
			m.ScoresRowsInto(rows, patients)
			for i := range rows {
				for j, v := range rows[i] {
					if math.Float64bits(v) != math.Float64bits(got.At(i, j)) {
						t.Fatalf("%v ScoresRowsInto (%d,%d) disagrees with Scores", tc.prec, i, j)
					}
				}
			}
			if workers == 1 {
				serial = got
			} else {
				bitsEqualRows(t, "quantized parallel vs serial", got, serial)
			}
		}
		mat.SetWorkers(0)
	}
}

// TestF32TopKRankingInvariance measures the top-k ranking-invariance
// rate of the f32 path against the f64 oracle — the statistic the
// serving bench records and benchdiff -precision-gate enforces — and
// checks the streamed selection agrees bitwise with ranking the full
// f32 row (the exp-skip must never change a result).
func TestF32TopKRankingInvariance(t *testing.T) {
	m := trainedScoreModel(t)
	d := m.Data
	const k = 4
	oracleTop := make([][]int, len(d.Test))
	for i, p := range d.Test {
		oracleTop[i], _ = m.TopKScores(p, k)
	}

	withPrecision(t, m, F32)
	invariant := 0
	for i, p := range d.Test {
		ids, scores := m.TopKScores(p, k)
		row := m.Scores([]int{p}).Row(0)
		want := metrics.TopK(row, k)
		for r := range want {
			if ids[r] != want[r] || math.Float64bits(scores[r]) != math.Float64bits(row[want[r]]) {
				t.Fatalf("patient %d rank %d: streamed f32 top-k (%d, %v) disagrees with full f32 ranking (%d, %v)",
					p, r, ids[r], scores[r], want[r], row[want[r]])
			}
		}
		same := len(ids) == len(oracleTop[i])
		for r := 0; same && r < len(ids); r++ {
			same = ids[r] == oracleTop[i][r]
		}
		if same {
			invariant++
		}
	}
	rate := float64(invariant) / float64(len(d.Test))
	t.Logf("f32 top-%d ranking invariance: %.3f (%d/%d)", k, rate, invariant, len(d.Test))
	if rate < 0.95 { // benchdiff -precision-gate's -min-ranking-invariance default
		t.Fatalf("f32 top-%d ranking invariance %.3f below 0.95", k, rate)
	}
}

// TestQuantizedInductiveMatchesTransductive proves the f32 inductive
// path is the same engine: an observed patient embedded from their own
// features scores bitwise identically to the transductive f32 row, and
// the embedding stores only the narrowed representation.
func TestQuantizedInductiveMatchesTransductive(t *testing.T) {
	m := trainedScoreModel(t)
	d := m.Data
	withPrecision(t, m, F32)
	for _, p := range d.Test[:4] {
		e, err := m.EmbedPatient(nil, d.X.Row(p))
		if err != nil {
			t.Fatalf("EmbedPatient(%d): %v", p, err)
		}
		if e.H != nil || e.T != nil || e.H32 == nil || e.T32 == nil {
			t.Fatalf("patient %d: quantized embedding kept f64 state (H=%v T=%v)", p, e.H != nil, e.T != nil)
		}
		if want := 4 * (len(e.H32) + len(e.T32)); e.Bytes() != want {
			t.Fatalf("embedding Bytes = %d, want %d", e.Bytes(), want)
		}
		row := m.Scores([]int{p}).Row(0)
		got := m.ScoresFor(e)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(row[j]) {
				t.Fatalf("patient %d drug %d: inductive f32 %v != transductive f32 %v", p, j, got[j], row[j])
			}
		}
		ids, scores := m.TopKScoresFor(e, 4)
		wantIDs, wantScores := m.TopKScores(p, 4)
		for r := range wantIDs {
			if ids[r] != wantIDs[r] || math.Float64bits(scores[r]) != math.Float64bits(wantScores[r]) {
				t.Fatalf("patient %d rank %d: inductive top-k diverged", p, r)
			}
		}
	}
}

// TestPrecisionMismatchedEmbeddingPanics pins the guard: an embedding
// built at one precision must not silently score at another.
func TestPrecisionMismatchedEmbeddingPanics(t *testing.T) {
	m := trainedScoreModel(t)
	e64, err := m.EmbedPatient(nil, m.Data.X.Row(m.Data.Test[0]))
	if err != nil {
		t.Fatal(err)
	}
	withPrecision(t, m, F32)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("f64 embedding scored on a quantized model without panicking")
			}
		}()
		m.ScoresFor(e64)
	}()
	e32, err := m.EmbedPatient(nil, m.Data.X.Row(m.Data.Test[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPrecision(F64); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("quantized embedding scored on an f64 model without panicking")
		}
	}()
	m.ScoresFor(e32)
}

// TestResidentModelBytesHalves pins the explicit byte accounting: the
// f32 view holds every f64 term — drug representations, treatment rows
// and decoder — at exactly half the bytes.
func TestResidentModelBytesHalves(t *testing.T) {
	m := trainedScoreModel(t)
	b64 := m.ResidentModelBytes()
	withPrecision(t, m, F32)
	b32 := m.ResidentModelBytes()
	if b64 != 2*b32 {
		t.Fatalf("ResidentModelBytes f64 = %d, f32 = %d; want exactly 2x", b64, b32)
	}
	if got, want := m.f32.pd.Bytes(), m.pd.Bytes()/2; got != want {
		t.Fatalf("f32 decoder %d bytes, want half of f64's %d", got, 2*want)
	}
	if len(m.f32.drugs) != len(m.drugCache.Data()) || len(m.f32.trows) != len(m.Treatment.clusterRow) {
		t.Fatalf("f32 view holds %d drug values and %d treatment rows, want %d and %d",
			len(m.f32.drugs), len(m.f32.trows), len(m.drugCache.Data()), len(m.Treatment.clusterRow))
	}
}

// TestQuantizedScoringAllocBudget keeps the f32 steady state as lean as
// the f64 engine: zero allocations per ScoresInto once scratch is warm.
func TestQuantizedScoringAllocBudget(t *testing.T) {
	m := trainedScoreModel(t)
	withPrecision(t, m, F32)
	mat.SetWorkers(1)
	defer mat.SetWorkers(0)
	var slack float64
	if raceEnabled {
		slack = 4
	}
	dst := mat.New(1, m.Data.NumDrugs())
	patients := []int{m.Data.Test[0]}
	m.ScoresInto(dst, patients)
	if got := testing.AllocsPerRun(20, func() { m.ScoresInto(dst, patients) }); got > 0+slack {
		t.Fatalf("steady-state f32 ScoresInto allocates %.1f objects, want 0", got)
	}
	m.TopKScores(patients[0], 4)
	if got := testing.AllocsPerRun(20, func() { m.TopKScores(patients[0], 4) }); got > 8+slack {
		t.Fatalf("f32 TopKScores allocates %.1f objects, budget 8", got)
	}
}

// TestTrainInvalidatesPrecision: moving the parameters must drop the
// quantized representation — stale f32 blobs would serve wrong scores.
func TestTrainInvalidatesPrecision(t *testing.T) {
	d := smallDataset(43)
	cfg := DefaultConfig()
	cfg.Hidden = 8
	cfg.Epochs = 2
	cfg.SelectOnVal = false
	m := NewModel(d, nil, cfg)
	m.Train()
	if err := m.SetPrecision(F32); err != nil {
		t.Fatal(err)
	}
	if m.Precision() != F32 || m.f32 == nil || m.f32.pd == nil || m.f32.drugs == nil || m.f32.trows == nil {
		t.Fatal("SetPrecision(F32) did not take")
	}
	m.Train()
	if m.Precision() != F64 || m.f32 != nil {
		t.Fatal("Train left a stale f32 view")
	}
}
