package dssddi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dssddi/internal/mat"
)

// scoreBits pins every score bit of the serve-smoke-shaped model
// (`dssddi train -patients 70 -hidden 384 -ddi-epochs 5 -md-epochs 10`)
// per precision and scoring path. Training and scoring are bitwise
// across worker counts and SIMD levels, so one constant holds
// everywhere. A constant changes only in a change that says why; the
// f64 ones only if the no-FMA contract is dropped on purpose.
// ScoresInto hashes the same rows as Scores, so batching must leave
// their constants equal.
var scoreBits = map[string]map[string]string{
	"f64": {
		"Scores":     "06eb128896f6c9445c7c8c8b7e8c2177c48a67765b325563e6497add33f2a2db",
		"Suggest":    "a5cbe290d77d4ffb79b5e22f1b0af9a8c994437299c9b0c63a56e0ee1bb03ae1",
		"ScoresInto": "06eb128896f6c9445c7c8c8b7e8c2177c48a67765b325563e6497add33f2a2db",
		"SuggestFor": "0ca165320a47b75e368945172cb5d88f1b6bbb626c21170994f3bebb824dc310",
	},
	"f32": {
		"Scores":     "a04f5f10897017de72f0e1d7eb3623edc7cbbd8b5ec9caae2d9f7fe429ca0dae",
		"Suggest":    "f8f81a6fa2460947c8c67cfda2ac212ea84e39a8c7572242a1af38a263065dd0",
		"ScoresInto": "a04f5f10897017de72f0e1d7eb3623edc7cbbd8b5ec9caae2d9f7fe429ca0dae",
		"SuggestFor": "914646902a323b935f98e9430932e9b64a857ea10aefc0768f302a453f804f63",
	},
}

// TestScoreBits trains the model in process and compares a sha256 of
// each scoring path's output bits with the committed constants, at f64
// and f32. It then reruns itself with the vector kernels off and
// capped at AVX2 (DSSDDI_SIMD is read once at start-up, so each level
// takes a fresh process).
func TestScoreBits(t *testing.T) {
	const patients, topK = 70, 4
	data := GenerateChronic(1, patients-patients/2, patients/2)
	cfg := DefaultConfig()
	cfg.Hidden = 384
	cfg.DDIEpochs = 5
	cfg.MDEpochs = 10
	cfg.Seed = 1
	sys := New(cfg)
	if err := sys.Train(data); err != nil {
		t.Fatal(err)
	}
	all := make([]int, patients)
	for p := range all {
		all[p] = p
	}
	for _, prec := range []string{"f64", "f32"} {
		if err := sys.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		got := map[string]hash.Hash{}
		for name := range scoreBits[prec] {
			got[name] = sha256.New()
		}

		rows, err := sys.Scores(all)
		if err != nil {
			t.Fatal(err)
		}
		hashRows(got["Scores"], rows)

		for _, p := range all {
			s, err := sys.Suggest(p, topK)
			if err != nil {
				t.Fatal(err)
			}
			hashSuggestions(got["Suggest"], s)
		}

		// One pass over the cohort in batches of 1, 2, ..., 9, 1, 2, ...
		for lo, batch := 0, 1; lo < patients; lo, batch = lo+batch, batch%9+1 {
			ps := all[lo:min(lo+batch, patients)]
			rows := make([][]float64, len(ps))
			for i := range rows {
				rows[i] = make([]float64, data.NumDrugs())
			}
			if err := sys.ScoresInto(rows, ps); err != nil {
				t.Fatal(err)
			}
			hashRows(got["ScoresInto"], rows)
		}

		for _, p := range all {
			s, err := sys.SuggestFor(PatientProfile{Regimen: data.Medications(p), Features: data.Features(p)}, topK)
			if err != nil {
				t.Fatal(err)
			}
			hashSuggestions(got["SuggestFor"], s)
		}

		for name, want := range scoreBits[prec] {
			if sum := hex.EncodeToString(got[name].Sum(nil)); sum != want {
				t.Errorf("%s %s (SIMD %s): digest %s, want %s", prec, name, mat.SIMD(), sum, want)
			}
		}
	}

	switch {
	case os.Getenv("DSSDDI_SIMD") != "" || mat.SIMD() == "none":
		return // a rerun, or the vector kernels are already off
	case raceEnabled:
		t.Log("SIMD-level reruns skipped under -race")
		return
	}
	for _, level := range []string{"off", "avx2"} {
		cmd := exec.Command(os.Args[0], "-test.v", "-test.run=^TestScoreBits$")
		cmd.Env = append(os.Environ(), "DSSDDI_SIMD="+level)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestScoreBits") {
			t.Fatalf("DSSDDI_SIMD=%s rerun: %v\n%s", level, err, out)
		}
	}
}

func hashRows(h hash.Hash, rows [][]float64) {
	for _, r := range rows {
		for _, v := range r {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
}

func hashSuggestions(h hash.Hash, s []Suggestion) {
	for _, sg := range s {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(sg.DrugID)))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(sg.Score)))
	}
}
