package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"

	"dssddi/internal/regproto"
)

// doReplicate issues a mutation with the X-Replicate header set, the
// way the router does, and returns the decoded response.
func doReplicate(t *testing.T, method, url string, body any) (*http.Response, PatientResponse) {
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
	req.Header.Set(regproto.ReplicateHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pr PatientResponse
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(out, &pr); err != nil {
			t.Fatalf("decoding %s: %v", out, err)
		}
	}
	return resp, pr
}

// TestReplicateEchoAndVersions: mutations carry monotonically
// increasing per-record versions, and an X-Replicate caller gets the
// canonical record echoed back — tombstone included on delete — so the
// router can fan it out without a second round trip.
func TestReplicateEchoAndVersions(t *testing.T) {
	system(t)
	_, ts := newTestServer(t, Config{})

	resp, pr := doReplicate(t, http.MethodPut, ts.URL+"/v1/patients/echo", PatientPutRequest{Regimen: []int{0, 2}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if pr.Version != 1 || pr.Record == nil || pr.Record.Version != 1 || pr.Record.Deleted {
		t.Fatalf("create echo = version %d record %+v, want version 1 live record", pr.Version, pr.Record)
	}
	resp, pr = doReplicate(t, http.MethodPut, ts.URL+"/v1/patients/echo", PatientPutRequest{Regimen: []int{5}})
	if resp.StatusCode != http.StatusOK || pr.Version != 2 || pr.Record == nil || len(pr.Record.Regimen) != 1 {
		t.Fatalf("replace echo = status %d version %d record %+v, want version 2 with new regimen", resp.StatusCode, pr.Version, pr.Record)
	}
	resp, pr = doReplicate(t, http.MethodDelete, ts.URL+"/v1/patients/echo", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if pr.Version != 3 || pr.Record == nil || !pr.Record.Deleted || pr.Record.Version != 3 {
		t.Fatalf("delete echo = version %d record %+v, want version-3 tombstone", pr.Version, pr.Record)
	}

	// Without the header the record is not echoed: plain clients do not
	// see replication internals.
	resp, body := do(t, http.MethodPut, ts.URL+"/v1/patients/plain", PatientPutRequest{Regimen: []int{1}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain create: status %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte(`"record"`)) {
		t.Fatalf("plain mutation leaks the replication record: %s", body)
	}
}

// TestReplicaApplyVersionGate: /v1/admin/registry/apply installs
// strictly-newer records and refuses stale ones, reporting the locally
// held version either way. A stale set must not resurrect a newer
// tombstone.
func TestReplicaApplyVersionGate(t *testing.T) {
	system(t)
	_, ts := newTestServer(t, Config{})

	apply := func(recs ...regproto.Record) regproto.ApplyResponse {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: recs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply: status %d: %s", resp.StatusCode, body)
		}
		var ar regproto.ApplyResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}

	// A replicated record at version 5 installs and serves.
	ar := apply(regproto.Record{ID: "gate", Version: 5, Regimen: []int{0, 3}})
	if ar.Applied != 1 || ar.Stale != 0 {
		t.Fatalf("fresh apply = %+v, want 1 applied", ar)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/patients/gate", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("applied record must serve, got %d", resp.StatusCode)
	}

	// Version 3 arriving late is stale: refused, local version reported.
	ar = apply(regproto.Record{ID: "gate", Version: 3, Regimen: []int{9}})
	if ar.Applied != 0 || ar.Stale != 1 || len(ar.Results) != 1 || ar.Results[0].Version != 5 {
		t.Fatalf("stale apply = %+v, want refused at local version 5", ar)
	}

	// A version-6 tombstone wins over the live record...
	ar = apply(regproto.Record{ID: "gate", Version: 6, Deleted: true})
	if ar.Applied != 1 {
		t.Fatalf("tombstone apply = %+v, want applied", ar)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/patients/gate", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tombstoned record must 404, got %d", resp.StatusCode)
	}
	// ...and a stale version-4 set cannot resurrect it.
	ar = apply(regproto.Record{ID: "gate", Version: 4, Regimen: []int{1}})
	if ar.Applied != 0 || ar.Stale != 1 {
		t.Fatalf("resurrection apply = %+v, want refused", ar)
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/v1/patients/gate", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tombstone must hold against stale set, got %d", resp.StatusCode)
	}

	// Malformed records are rejected wholesale.
	if resp, _ := post(t, ts.URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: []regproto.Record{{ID: "bad id!", Version: 1}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id must 400, got %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: []regproto.Record{{ID: "zero", Version: 0, Regimen: []int{0}}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-0 record must 400, got %d", resp.StatusCode)
	}
}

// TestRegistryDigestSyncRoundTrip: the digest endpoint summarizes
// shard state, sync pulls the records behind it, and replaying those
// records into an empty peer through apply reproduces byte-identical
// digests — the anti-entropy loop in miniature.
func TestRegistryDigestSyncRoundTrip(t *testing.T) {
	system(t)
	_, ts := newTestServer(t, Config{})
	_, ts2 := newTestServer(t, Config{})

	ids := []string{"rt-a", "rt-b", "rt-c", "rt-d", "rt-e"}
	for i, id := range ids {
		if resp, _ := doReplicate(t, http.MethodPut, ts.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: []int{i, i + 1}}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed %s: status %d", id, resp.StatusCode)
		}
	}
	// One tombstone so the round trip carries deletes too.
	if resp, _ := doReplicate(t, http.MethodDelete, ts.URL+"/v1/patients/rt-c", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("seed delete failed")
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/v1/admin/registry/digest", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest: status %d", resp.StatusCode)
	}
	var dig regproto.DigestResponse
	if err := json.Unmarshal(body, &dig); err != nil {
		t.Fatal(err)
	}
	if dig.Records != 4 || len(dig.Shards) != regproto.Shards {
		t.Fatalf("digest = %d live records / %d shards, want 4 / %d", dig.Records, len(dig.Shards), regproto.Shards)
	}

	// Sync with no filter pulls everything, tombstone included.
	resp, body = post(t, ts.URL+"/v1/admin/registry/sync", regproto.SyncRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d", resp.StatusCode)
	}
	var sr regproto.SyncResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != len(ids) {
		t.Fatalf("sync returned %d records, want %d (tombstone included)", len(sr.Records), len(ids))
	}
	tombstones := 0
	for _, r := range sr.Records {
		if r.Deleted {
			tombstones++
		}
	}
	if tombstones != 1 {
		t.Fatalf("sync carried %d tombstones, want 1", tombstones)
	}

	// Sync by id and by shard agree with the full pull.
	resp, body = post(t, ts.URL+"/v1/admin/registry/sync", regproto.SyncRequest{IDs: []string{"rt-a", "rt-c"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("sync by id failed")
	}
	var byID regproto.SyncResponse
	if err := json.Unmarshal(body, &byID); err != nil {
		t.Fatal(err)
	}
	if len(byID.Records) != 2 {
		t.Fatalf("sync by id returned %d records, want 2", len(byID.Records))
	}
	shard := regproto.ShardOf("rt-a")
	resp, body = post(t, ts.URL+"/v1/admin/registry/sync", regproto.SyncRequest{Shards: []int{shard}})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("sync by shard failed")
	}
	var byShard regproto.SyncResponse
	if err := json.Unmarshal(body, &byShard); err != nil {
		t.Fatal(err)
	}
	for _, r := range byShard.Records {
		if regproto.ShardOf(r.ID) != shard {
			t.Fatalf("shard sync leaked record %s from shard %d", r.ID, regproto.ShardOf(r.ID))
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/admin/registry/sync", regproto.SyncRequest{Shards: []int{regproto.Shards}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range shard must 400, got %d", resp.StatusCode)
	}

	// Replay the full pull into an empty peer: digests converge
	// byte-for-byte, shard for shard.
	resp, _ = post(t, ts2.URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: sr.Records})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("peer apply failed")
	}
	resp, body = do(t, http.MethodGet, ts2.URL+"/v1/admin/registry/digest", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("peer digest failed")
	}
	var dig2 regproto.DigestResponse
	if err := json.Unmarshal(body, &dig2); err != nil {
		t.Fatal(err)
	}
	for i := range dig.Shards {
		if dig.Shards[i] != dig2.Shards[i] {
			t.Fatalf("shard %d digests diverge after replay:\n  source: %+v\n  peer:   %+v", i, dig.Shards[i], dig2.Shards[i])
		}
	}
}

// TestRegistrySyncRepeatedShards: a sync request may name a shard any
// number of times. Each record still comes back once, an empty shard
// still comes back as [], and the snapshot's reservation does not grow
// with the repeats — the shard list is the client's, up to the body cap.
func TestRegistrySyncRepeatedShards(t *testing.T) {
	system(t)
	s, ts := newTestServer(t, Config{})
	ids := []string{"dup-a", "dup-b", "dup-c", "dup-d", "dup-e"}
	occupied := map[int]int{}
	for i, id := range ids {
		if resp, _ := doReplicate(t, http.MethodPut, ts.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: []int{i}}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed %s: status %d", id, resp.StatusCode)
		}
		occupied[regproto.ShardOf(id)]++
	}
	empty := 0
	for occupied[empty] > 0 {
		empty++
	}
	repeat := func(shard int) []int {
		out := make([]int, 1<<18)
		for i := range out {
			out[i] = shard
		}
		return out
	}

	shard := regproto.ShardOf(ids[0])
	resp, body := post(t, ts.URL+"/v1/admin/registry/sync", regproto.SyncRequest{Shards: repeat(shard)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d: %s", resp.StatusCode, body)
	}
	var sr regproto.SyncResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range sr.Records {
		if seen[r.ID] || regproto.ShardOf(r.ID) != shard {
			t.Fatalf("repeated shard %d pulled %s twice or from shard %d", shard, r.ID, regproto.ShardOf(r.ID))
		}
		seen[r.ID] = true
	}
	if len(seen) != occupied[shard] {
		t.Fatalf("repeated shard %d pulled %d records, want %d", shard, len(seen), occupied[shard])
	}

	resp, body = post(t, ts.URL+"/v1/admin/registry/sync", regproto.SyncRequest{Shards: repeat(empty)})
	var raw struct{ Records json.RawMessage }
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &raw) != nil || string(raw.Records) != "[]" {
		t.Fatalf("empty shard %d: status %d, body %s; want records []", empty, resp.StatusCode, body)
	}

	var before, after runtime.MemStats
	shards := repeat(shard)
	runtime.ReadMemStats(&before)
	recs := s.patients.records(regproto.SyncRequest{Shards: shards})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-entry shard list allocated %d bytes to snapshot %d records", len(shards), grew, len(recs))
	}
}
