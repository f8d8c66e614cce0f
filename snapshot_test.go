package dssddi

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
)

var (
	snapSysOnce sync.Once
	snapSys     *System
	snapData    *Data
	snapBytes   []byte
)

// snapshotSystem trains one small system and saves it once, shared by
// every snapshot test.
func snapshotSystem(t *testing.T) (*System, *Data, []byte) {
	t.Helper()
	snapSysOnce.Do(func() {
		data := GenerateChronic(7, 60, 50)
		cfg := DefaultConfig()
		cfg.DDIEpochs = 20
		cfg.MDEpochs = 40
		cfg.Hidden = 16
		sys := New(cfg)
		if err := sys.Train(data); err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			panic(err)
		}
		snapSys, snapData, snapBytes = sys, data, buf.Bytes()
	})
	if snapSys == nil {
		t.Fatal("shared snapshot system failed to train")
	}
	return snapSys, snapData, snapBytes
}

// sameScores asserts bitwise equality of two score row sets.
func sameScores(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d width %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: row %d col %d: %v vs %v (not bitwise identical)", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestSnapshotRoundTripExact(t *testing.T) {
	sys, data, raw := snapshotSystem(t)
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	patients := data.TestPatients()
	if len(patients) > 8 {
		patients = patients[:8]
	}
	wantScores, err := sys.Scores(patients)
	if err != nil {
		t.Fatal(err)
	}
	gotScores, err := loaded.Scores(patients)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "Scores", wantScores, gotScores)

	p := patients[0]
	want, err := sys.Suggest(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Suggest(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
		t.Fatalf("Suggest diverged:\n  original %+v\n  loaded   %+v", want, got)
	}

	wantEval, err := sys.Evaluate(patients, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	gotEval, err := loaded.Evaluate(patients, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantEval {
		if wantEval[i] != gotEval[i] {
			t.Fatalf("Evaluate diverged at k=%d: %+v vs %+v", wantEval[i].K, wantEval[i], gotEval[i])
		}
	}

	wantEx, err := sys.ExplainSuggestions(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEx, err := loaded.ExplainSuggestions(got)
	if err != nil {
		t.Fatal(err)
	}
	if wantEx.Text != gotEx.Text || wantEx.SS != gotEx.SS {
		t.Fatalf("Explain diverged:\n%q\nvs\n%q", wantEx.Text, gotEx.Text)
	}

	wantEmb, err := sys.DrugRelationEmbeddings()
	if err != nil {
		t.Fatal(err)
	}
	gotEmb, err := loaded.DrugRelationEmbeddings()
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "DrugRelationEmbeddings", wantEmb, gotEmb)

	// A loaded system's own snapshot must be byte-identical to the one
	// it came from (deterministic re-encode of identical state).
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("Save(Load(snapshot)) produced different bytes")
	}
}

func TestSnapshotSaveDeterministic(t *testing.T) {
	sys, _, raw := snapshotSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("saving the same system twice produced different bytes")
	}
}

func TestSaveUntrainedErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := New(DefaultConfig()).Save(&buf); err == nil {
		t.Fatal("Save on an untrained system must error")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	_, _, raw := snapshotSystem(t)
	for _, off := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 8} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x20
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at offset %d must not load cleanly", off)
		}
	}
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated snapshot must not load")
	}
	if _, err := Load(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("foreign bytes must not load")
	}
}

func TestReadSnapshotInfo(t *testing.T) {
	sys, data, raw := snapshotSystem(t)
	info, err := ReadSnapshotInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Backbone != "SGCN" || info.Hidden != 16 || info.Version != 1 {
		t.Fatalf("info drifted: %+v", info)
	}
	if info.Patients != data.NumPatients() || info.Drugs != data.NumDrugs() {
		t.Fatalf("cohort shape drifted: %+v", info)
	}
	if len(info.DatasetSHA256) != 64 {
		t.Fatalf("dataset digest %q is not a sha256 hex string", info.DatasetSHA256)
	}
	want, err := sys.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info != want {
		t.Fatalf("header info %+v != live info %+v", info, want)
	}
}

// TestConcurrentServingHammer drives many goroutines through every
// read path of one loaded snapshot and asserts each result is bitwise
// identical to the serial baseline. Run under -race (CI does) this is
// the proof that the post-training inference path is read-only.
func TestConcurrentServingHammer(t *testing.T) {
	sys, data, raw := snapshotSystem(t)
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	patients := data.TestPatients()
	if len(patients) > 6 {
		patients = patients[:6]
	}
	baseScores, err := sys.Scores(patients)
	if err != nil {
		t.Fatal(err)
	}
	baseSugg := make([][]Suggestion, len(patients))
	baseExpl := make([]string, len(patients))
	for i, p := range patients {
		if baseSugg[i], err = sys.Suggest(p, 3); err != nil {
			t.Fatal(err)
		}
		ex, err := sys.ExplainSuggestions(baseSugg[i])
		if err != nil {
			t.Fatal(err)
		}
		baseExpl[i] = ex.Text
	}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(patients)
				p := patients[i]
				switch (g + it) % 3 {
				case 0:
					rows, err := loaded.Scores([]int{p})
					if err != nil {
						errs <- err
						return
					}
					for j, v := range rows[0] {
						if v != baseScores[i][j] {
							errs <- fmt.Errorf("concurrent Scores diverged for patient %d col %d", p, j)
							return
						}
					}
				case 1:
					sg, err := loaded.Suggest(p, 3)
					if err != nil {
						errs <- err
						return
					}
					if fmt.Sprintf("%+v", sg) != fmt.Sprintf("%+v", baseSugg[i]) {
						errs <- fmt.Errorf("concurrent Suggest diverged for patient %d", p)
						return
					}
				default:
					ex, err := loaded.ExplainSuggestions(baseSugg[i])
					if err != nil {
						errs <- err
						return
					}
					if ex.Text != baseExpl[i] {
						errs <- fmt.Errorf("concurrent Explain diverged for patient %d", p)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGoldenV1SnapshotLoads is the forward-compatibility gate: a
// committed format-version-1 snapshot must keep loading (and serving —
// including the inductive patient layer, which derives all of its
// state from what v1 already persists) in every future build, and
// saving the loaded system must write the fixture's bytes again, which
// pins the encoder to v1 as well. If the format ever has to bump, this
// test must be updated to assert a clear, versioned rejection instead
// of silent corruption.
func TestGoldenV1SnapshotLoads(t *testing.T) {
	f, err := os.Open("testdata/golden-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	info, err := ReadSnapshotInfo(f)
	if err != nil {
		t.Fatalf("reading golden snapshot header: %v", err)
	}
	if info.Version != 1 {
		t.Fatalf("golden fixture declares version %d, want 1", info.Version)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(f)
	if err != nil {
		t.Fatalf("golden v1 snapshot no longer loads — the format drifted without a version bump: %v", err)
	}

	// The restored system must serve end to end: transductive suggest,
	// inductive profile suggest, and the bitwise agreement between the
	// two for an observed patient.
	data := sys.Data()
	p := data.TrainPatients()[0]
	want, err := sys.Suggest(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.SuggestFor(PatientProfile{Regimen: data.Medications(p), Features: data.Features(p)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].DrugID != want[i].DrugID || got[i].Score != want[i].Score {
			t.Fatalf("inductive path diverged on the golden model: %+v vs %+v", got[i], want[i])
		}
	}
	if _, err := sys.SuggestFor(PatientProfile{Regimen: []int{0, 1}}, 3); err != nil {
		t.Fatalf("regimen-only profile on the golden model: %v", err)
	}

	fixture, err := os.ReadFile("testdata/golden-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := sys.Save(&resaved); err != nil {
		t.Fatalf("saving the golden model: %v", err)
	}
	if !bytes.Equal(resaved.Bytes(), fixture) {
		t.Fatalf("Save(Load(golden-v1.snap)) wrote %d bytes that differ from the %d-byte fixture: the encoder drifted from format v1", resaved.Len(), len(fixture))
	}
}
