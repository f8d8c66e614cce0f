package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"dssddi"
	"dssddi/internal/regproto"
)

// do issues a request with an arbitrary method (the registry endpoints
// use PUT/PATCH/DELETE).
func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func sameSuggestions(got []SuggestionOut, want []dssddi.Suggestion) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].DrugID != want[i].DrugID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// TestPatientRegistryLifecycle drives the full registry surface:
// register, suggest by id (bitwise equal to the library's inductive
// path), live regimen update with per-patient cache invalidation,
// delete, and the 400-vs-404 split for registry ids.
func TestPatientRegistryLifecycle(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})

	regimen1 := []int{0, 2, 5}
	regimen2 := []int{0, 7}

	// Create: 201, then replace: 200.
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/patients/alice", PatientPutRequest{Regimen: regimen1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	resp, _ = do(t, http.MethodPut, ts.URL+"/v1/patients/alice", PatientPutRequest{Regimen: regimen1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace status %d", resp.StatusCode)
	}

	// Suggest by registered id — the inductive path, bitwise equal to
	// the library.
	resp, body = post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "alice", K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suggest status %d: %s", resp.StatusCode, body)
	}
	var got SuggestResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := sys.SuggestFor(dssddi.PatientProfile{Regimen: regimen1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSuggestions(got.Suggestions, want) {
		t.Fatalf("registered suggest diverged from library: %s", body)
	}
	if got.PatientID != "alice" || got.Patient != -1 {
		t.Fatalf("response must name the registered patient: %s", body)
	}

	// Second request hits the cache.
	resp, _ = post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "alice", K: 4})
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("repeat suggest X-Cache %q, want HIT", resp.Header.Get("X-Cache"))
	}

	// Live regimen update invalidates exactly this patient's cache
	// (the gen in the key moves) and the next suggest reflects it.
	resp, body = do(t, http.MethodPatch, ts.URL+"/v1/patients/alice", map[string]any{"regimen": regimen2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "alice", K: 4})
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("post-update suggest X-Cache %q, want MISS", resp.Header.Get("X-Cache"))
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err = sys.SuggestFor(dssddi.PatientProfile{Regimen: regimen2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSuggestions(got.Suggestions, want) {
		t.Fatalf("post-update suggest diverged: %s", body)
	}

	// GET reflects the stored profile.
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/patients/alice", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	var pr PatientResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Regimen) != len(regimen2) || pr.Gen != 3 {
		t.Fatalf("profile drifted: %s", body)
	}

	// Delete, then everything 404s.
	if resp, _ = do(t, http.MethodDelete, ts.URL+"/v1/patients/alice", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp, _ = do(t, http.MethodDelete, ts.URL+"/v1/patients/alice", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete status %d, want 404", resp.StatusCode)
	}
	if resp, _ = post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "alice"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("suggest for deleted patient: %d, want 404", resp.StatusCode)
	}
}

// TestPatientStatusCodes pins the malformed-vs-unknown split for both
// addressing modes: 400 for bad input, 404 for well-formed input that
// names no patient.
func TestPatientStatusCodes(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})

	// Dataset indices.
	if resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: sys.Data().NumPatients()}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range index must 404, got %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: -3}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative index must 400, got %d", resp.StatusCode)
	}
	p := 1 << 29
	if resp, _ := post(t, ts.URL+"/v1/explain", ExplainRequest{Patient: &p}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain out-of-range index must 404, got %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/alerts", AlertsRequest{Drugs: []int{0}, Patient: &p}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("alerts out-of-range index must 404, got %d", resp.StatusCode)
	}

	// Registry ids.
	if resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "nobody-here"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown registry id must 404, got %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "bad id!"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed registry id must 400, got %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPut, ts.URL+"/v1/patients/bad%20id", PatientPutRequest{Regimen: []int{0}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id on PUT must 400, got %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPatch, ts.URL+"/v1/patients/ghost", map[string]any{"regimen": []int{0}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PATCH unknown id must 404, got %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPut, ts.URL+"/v1/patients/badreg", PatientPutRequest{Regimen: []int{-4}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid regimen must 400, got %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPut, ts.URL+"/v1/patients/empty", PatientPutRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty profile must 400, got %d", resp.StatusCode)
	}
}

// TestRegistryWritesCounter: /metricsz registry.writes counts the
// client mutations its help names — PUT, PATCH and DELETE — while a
// replica apply counts only in replica_applies.
func TestRegistryWritesCounter(t *testing.T) {
	system(t)
	_, ts := newTestServer(t, Config{})
	registry := func() RegistryMetrics {
		t.Helper()
		_, body := get(t, ts.URL+"/metricsz")
		var m Metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m.Registry
	}

	if resp, _ := do(t, http.MethodPut, ts.URL+"/v1/patients/counted", PatientPutRequest{Regimen: []int{0, 2}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPatch, ts.URL+"/v1/patients/counted", map[string]any{"regimen": []int{3}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: status %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/patients/counted", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if got := registry().Writes; got != 3 {
		t.Fatalf("writes = %d after PUT, PATCH and DELETE, want 3", got)
	}

	resp, body := post(t, ts.URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: []regproto.Record{{ID: "replicated", Version: 4, Regimen: []int{1}}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: status %d: %s", resp.StatusCode, body)
	}
	if m := registry(); m.Writes != 3 || m.ReplicaApplies != 1 {
		t.Fatalf("after one apply: writes = %d, replica_applies = %d; want 3 and 1", m.Writes, m.ReplicaApplies)
	}
}
