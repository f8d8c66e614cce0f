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

// scoreBits383 pins a smaller model of hidden width 383 (`-patients 16
// -hidden 383 -ddi-epochs 2 -md-epochs 3`): 383 % 4 == 3, so the
// treatment coefficient closes the decoder's last layer-1 quad, and the
// hidden rows end off every vector lane grid. It is small because the
// DSSDDI_SIMD=off rerun scores f32 through the emulated FMA chain, about
// 35 ms a patient.
var scoreBits383 = map[string]map[string]string{
	"f64": {
		"Scores":     "781c2dcf2d30b79cbaabf13b1ce0cba27980d45c79ae6eaa9ec01337fc22f8c6",
		"Suggest":    "0fe76812ed995e1244f6c521d165b3f956217f00020a3948a0a8ba3eaa5c539e",
		"ScoresInto": "781c2dcf2d30b79cbaabf13b1ce0cba27980d45c79ae6eaa9ec01337fc22f8c6",
		"SuggestFor": "ffde609d61254f89684bedd9d77cd2fb87fa7a1a49cbdd4e907ddf5c5214889c",
	},
	"f32": {
		"Scores":     "e4cddcd09d2cd752ee773feffe53f1fee72e5ee8a6a477f323ad702843d96389",
		"Suggest":    "02b55310e2e01441f77d783908e08edee1cad23c0ff2de53ba727d375e3ee3a2",
		"ScoresInto": "e4cddcd09d2cd752ee773feffe53f1fee72e5ee8a6a477f323ad702843d96389",
		"SuggestFor": "ac437bd7832981430da3455ff86a3a85a0f415e88ea1d3fbf165eb9c17f1d750",
	},
}

// TestScoreBits trains each pinned model in process and compares a
// sha256 of each scoring path's output bits with the committed
// constants, at f64 and f32. It then reruns itself with the vector
// kernels off and capped at AVX2 (DSSDDI_SIMD is read once at
// start-up, so each level takes a fresh process).
func TestScoreBits(t *testing.T) {
	checkScoreBits(t, 70, 384, 5, 10, scoreBits)
	checkScoreBits(t, 16, 383, 2, 3, scoreBits383)

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

// checkScoreBits trains a model on the given number of patients at the
// given hidden width and epochs, and compares its digests with want.
func checkScoreBits(t *testing.T, patients, hidden, ddiEpochs, mdEpochs int, want map[string]map[string]string) {
	t.Helper()
	const topK = 4
	data := GenerateChronic(1, patients-patients/2, patients/2)
	cfg := DefaultConfig()
	cfg.Hidden = hidden
	cfg.DDIEpochs = ddiEpochs
	cfg.MDEpochs = mdEpochs
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
		for name := range want[prec] {
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

		for name, w := range want[prec] {
			if sum := hex.EncodeToString(got[name].Sum(nil)); sum != w {
				t.Errorf("hidden %d %s %s (SIMD %s): digest %s, want %s", hidden, prec, name, mat.SIMD(), sum, w)
			}
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
