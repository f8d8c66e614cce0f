package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dssddi/internal/regproto"
)

// update rewrites the registry format fixtures from the current code.
// Only a deliberate format change regenerates them:
//
//	go test ./internal/serve -run '^TestRegistryFormatGolden$' -update
var update = flag.Bool("update", false, "rewrite testdata/registry-v2.wal and registry-v2.ckpt")

// goldenFeatures is a feature vector of the dataset's width whose slots
// carry distinct bit patterns (zero, fractional, negative).
func goldenFeatures(width int, scale float64) []float64 {
	f := make([]float64, width)
	for i := range f {
		f[i] = scale*float64(i%7) - 0.375*float64(i%3)
	}
	return f
}

// runRegistryGolden drives the fixture's mutation sequence through the
// HTTP handler of a WAL-backed server in dir: sets, patches, a delete
// and a re-registration over its tombstone, a replica-apply batch (new
// record, unseen tombstone, stale record), empty slices, and a final
// delete. CheckpointEvery 4 puts records in both files. It returns the
// records the sequence leaves behind, and the WAL and checkpoint bytes
// as they stand before the server closes.
func runRegistryGolden(t *testing.T, dir string) (want []regproto.Record, walBytes, ckptBytes []byte) {
	t.Helper()
	sys := system(t)
	s, err := New(sys, Config{WALPath: filepath.Join(dir, "registry.wal"), WALSync: "always", CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	step := func(method, path string, body any, replicate bool, want int) []byte {
		t.Helper()
		var rd io.Reader = http.NoBody
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		req := httptest.NewRequest(method, path, rd)
		if replicate {
			req.Header.Set(regproto.ReplicateHeader, "1")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, want, w.Body.String())
		}
		return w.Body.Bytes()
	}

	width := len(sys.Data().Features(0))
	fb1, fb2, fe := goldenFeatures(width, 0.25), goldenFeatures(width, -1.5), goldenFeatures(width, 3.125)
	step(http.MethodPut, "/v1/patients/a", PatientPutRequest{Regimen: []int{0, 2, 5}}, false, http.StatusCreated)
	step(http.MethodPut, "/v1/patients/b", PatientPutRequest{Regimen: []int{1, 3}, Features: fb1}, true, http.StatusCreated)
	step(http.MethodPatch, "/v1/patients/a", map[string]any{"regimen": []int{4, 6}}, false, http.StatusOK)
	step(http.MethodPatch, "/v1/patients/b", map[string]any{"features": fb2}, false, http.StatusOK)
	step(http.MethodDelete, "/v1/patients/a", nil, false, http.StatusOK)
	step(http.MethodPut, "/v1/patients/a", PatientPutRequest{Regimen: []int{7}}, false, http.StatusCreated)
	body := step(http.MethodPost, "/v1/admin/registry/apply", regproto.ApplyRequest{Records: []regproto.Record{
		{ID: "c", Version: 7, Regimen: []int{2, 8}},
		{ID: "ghost", Version: 5, Deleted: true},
		{ID: "b", Version: 1, Regimen: []int{9}},
	}}, false, http.StatusOK)
	var ar regproto.ApplyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Applied != 2 || ar.Stale != 1 {
		t.Fatalf("apply batch = %+v, want 2 applied and 1 stale", ar)
	}
	step(http.MethodPut, "/v1/patients/e", PatientPutRequest{Regimen: []int{}, Features: fe}, false, http.StatusCreated)
	step(http.MethodPatch, "/v1/patients/e", map[string]any{"regimen": []int{}}, false, http.StatusOK)
	step(http.MethodDelete, "/v1/patients/c", nil, false, http.StatusOK)

	// Read the files before Close, whose final checkpoint empties the WAL.
	walPath := filepath.Join(dir, "registry.wal")
	if walBytes, err = os.ReadFile(walPath); err == nil {
		ckptBytes, err = os.ReadFile(walPath + ".ckpt")
	}
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return []regproto.Record{
		{ID: "a", Version: 4, Regimen: []int{7}},
		{ID: "b", Version: 2, Regimen: []int{1, 3}, Features: fb2},
		{ID: "c", Version: 8, Deleted: true},
		{ID: "ghost", Version: 5, Deleted: true},
		{ID: "e", Version: 2, Features: fe},
	}, walBytes, ckptBytes
}

// TestRegistryFormatGolden pins the registry's on-disk formats with
// the committed testdata/registry-v2.wal and registry-v2.ckpt: a
// server booted on copies of them serves every expected record, and
// replaying the sequence that made them writes a byte-identical WAL
// and checkpoint (a checkpoint lists records in (shard, id) order).
func TestRegistryFormatGolden(t *testing.T) {
	goldenWAL := filepath.Join("testdata", "registry-v2.wal")
	goldenCkpt := filepath.Join("testdata", "registry-v2.ckpt")

	want, walBytes, ckptBytes := runRegistryGolden(t, t.TempDir())
	if *update {
		if err := os.WriteFile(goldenWAL, walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCkpt, ckptBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBytes, golden) {
		t.Fatalf("replayed sequence wrote a WAL that differs from %s (%d vs %d bytes)", goldenWAL, len(walBytes), len(golden))
	}
	ckpt, err := os.ReadFile(goldenCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckptBytes, ckpt) {
		t.Fatalf("replayed sequence wrote a checkpoint that differs from %s (%d vs %d bytes)", goldenCkpt, len(ckptBytes), len(ckpt))
	}

	// Boot on copies, so the server's own checkpoints never touch the
	// fixtures.
	boot := t.TempDir()
	walPath := filepath.Join(boot, "registry.wal")
	if err := os.WriteFile(walPath, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath+".ckpt", ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(system(t), Config{WALPath: walPath, WALSync: "always"})
	if err != nil {
		t.Fatalf("booting on the fixtures: %v", err)
	}
	defer s.Close()
	h := s.Handler()
	serve := func(path string) (int, []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Code, w.Body.Bytes()
	}
	for _, rec := range want {
		code, body := serve("/v1/patients/" + rec.ID)
		if rec.Deleted {
			if code != http.StatusNotFound {
				t.Fatalf("tombstoned %s: GET %d, want 404: %s", rec.ID, code, body)
			}
			continue
		}
		var pr PatientResponse
		if code != http.StatusOK || json.Unmarshal(body, &pr) != nil {
			t.Fatalf("GET %s: %d %s", rec.ID, code, body)
		}
		if pr.Version != rec.Version || !slices.Equal(pr.Regimen, rec.Regimen) || pr.HasFeatures != (rec.Features != nil) {
			t.Fatalf("GET %s = %s, want version %d regimen %v features %t", rec.ID, body, rec.Version, rec.Regimen, rec.Features != nil)
		}
	}
	code, body := serve("/v1/admin/registry/digest")
	var dig regproto.DigestResponse
	if code != http.StatusOK || json.Unmarshal(body, &dig) != nil {
		t.Fatalf("digest: %d %s", code, body)
	}
	if wantShards := regproto.DigestShards(want); dig.Records != 3 || !slices.Equal(dig.Shards, wantShards) {
		t.Fatalf("booted registry digest = %d records %+v, want 3 records %+v", dig.Records, dig.Shards, wantShards)
	}
}
