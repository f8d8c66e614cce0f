package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssddi/internal/regproto"
	"dssddi/internal/serve"
)

// replConfig is fastConfig with replication on: every record on its
// owner plus one ring successor, acknowledged at quorum 2 when both
// are in rotation.
func replConfig() Config {
	cfg := fastConfig()
	cfg.ReplicationFactor = 2
	cfg.WriteQuorum = 2
	return cfg
}

// swapHandler lets a test replace a backend's entire serve.Server
// behind a stable address — simulating a process that restarted with
// an empty disk.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// routerMetrics fetches and decodes the router's /metricsz JSON.
func routerMetrics(t *testing.T, url string) Metrics {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, url+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: status %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// ownerOf finds a registered-patient id owned by the named backend on
// an identically configured ring.
func ownerOf(t *testing.T, names []string, vnodes int, owner, prefix string) string {
	t.Helper()
	ring := NewRing(vnodes)
	for _, n := range names {
		ring.Add(n)
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if ring.Lookup(registeredKey(id)) == owner {
			return id
		}
	}
	t.Fatalf("no id with owner %s found", owner)
	return ""
}

// TestReplicatedWriteFanout: with R=2 a mutation lands on the owner
// and exactly one ring successor; the rest of the fleet never sees it.
func TestReplicatedWriteFanout(t *testing.T) {
	f := bootFleet(t, 3, "", replConfig())
	const id = "fanout-patient"
	resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{0, 1, 2}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}

	group := f.router.replicaGroup(registeredKey(id))
	if len(group) != 2 {
		t.Fatalf("replica group = %v, want 2 members", group)
	}
	inGroup := map[string]bool{group[0]: true, group[1]: true}
	for i, name := range f.names {
		direct, _ := doJSON(t, http.MethodGet, f.tss[i].URL+"/v1/patients/"+id, nil)
		want := http.StatusNotFound
		if inGroup[name] {
			want = http.StatusOK
		}
		if direct.StatusCode != want {
			t.Fatalf("backend %s: GET = %d, want %d", name, direct.StatusCode, want)
		}
	}

	// The router-echoed record never leaks to clients going through the
	// normal write path? It does carry version — but the replication
	// record itself is only echoed to X-Replicate callers. A direct
	// client PUT (no header) must not see a "record" field.
	direct, dbody := doJSON(t, http.MethodPut, f.tss[0].URL+"/v1/patients/plain-client", map[string]any{"regimen": []int{1}})
	if direct.StatusCode != http.StatusCreated {
		t.Fatalf("direct PUT: status %d", direct.StatusCode)
	}
	if strings.Contains(string(dbody), `"record"`) {
		t.Fatalf("direct PUT response leaks the replication record: %s", dbody)
	}

	// A delete propagates as a tombstone: both group members agree the
	// patient is gone, and a re-registration resurrects it on both.
	resp, _ = doJSON(t, http.MethodDelete, f.rts.URL+"/v1/patients/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	for i, name := range f.names {
		if !inGroup[name] {
			continue
		}
		direct, _ := doJSON(t, http.MethodGet, f.tss[i].URL+"/v1/patients/"+id, nil)
		if direct.StatusCode != http.StatusNotFound {
			t.Fatalf("backend %s still serves deleted patient (status %d)", name, direct.StatusCode)
		}
	}

	m := routerMetrics(t, f.rts.URL)
	if m.ReplicationFanouts < 2 {
		t.Fatalf("ReplicationFanouts = %d, want >= 2", m.ReplicationFanouts)
	}
	if m.QuorumFailures != 0 {
		t.Fatalf("QuorumFailures = %d, want 0", m.QuorumFailures)
	}
}

// TestFailoverReadServedByReplica: when a record's owner dies, reads
// keep working from the replica — tagged X-Served-By-Replica, counted,
// and bitwise-identical to the owner's answers. The pinned-503 dead
// end is gone.
func TestFailoverReadServedByReplica(t *testing.T) {
	f, gate := gatedFleet(t, 3, 2, replConfig())
	rt := f.router
	gated := f.names[2]
	id := ownerOf(t, f.names, rt.cfg.VNodes, gated, "fr")

	resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{0, 1, 2}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}
	// Baseline answers from the healthy owner.
	resp, ownerGet := doJSON(t, http.MethodGet, f.rts.URL+"/v1/patients/"+id, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backend") != gated {
		t.Fatalf("pre-failure GET: status %d via %s, want 200 via owner %s", resp.StatusCode, resp.Header.Get("X-Backend"), gated)
	}
	resp, ownerSuggest := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient_id": id, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-failure suggest: status %d", resp.StatusCode)
	}

	// Kill the owner. Reads must keep answering — from the replica.
	gate.open.Store(false)
	resp, replicaGet := doJSON(t, http.MethodGet, f.rts.URL+"/v1/patients/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover GET: status %d: %s", resp.StatusCode, replicaGet)
	}
	served := resp.Header.Get(regproto.ServedByReplicaHeader)
	if served == "" || served == gated {
		t.Fatalf("failover GET served by %q without a replica tag (X-Backend %s)", served, resp.Header.Get("X-Backend"))
	}
	if string(replicaGet) != string(ownerGet) {
		t.Fatalf("replica GET diverges from owner:\n  owner:   %s\n  replica: %s", ownerGet, replicaGet)
	}
	resp, replicaSuggest := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient_id": id, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover suggest: status %d: %s", resp.StatusCode, replicaSuggest)
	}
	if string(replicaSuggest) != string(ownerSuggest) {
		t.Fatalf("replica suggest diverges from owner:\n  owner:   %s\n  replica: %s", ownerSuggest, replicaSuggest)
	}

	m := routerMetrics(t, f.rts.URL)
	if m.ReplicaReads < 2 {
		t.Fatalf("ReplicaReads = %d, want >= 2", m.ReplicaReads)
	}
	if m.PinnedUnavailable != 0 {
		t.Fatalf("PinnedUnavailable = %d, want 0 — failover reads must replace the pinned 503", m.PinnedUnavailable)
	}

	// Writes keep working too: the replica becomes acting owner and
	// assigns the next version.
	waitFor(t, "owner ejection", 5*time.Second, func() bool {
		return !rt.backends[gated].health.Healthy()
	})
	resp, _ = doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{3, 4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write with dead owner: status %d, want 200", resp.StatusCode)
	}
}

// TestReplicaRejoinAntiEntropy: a backend that dies, loses its disk,
// and rejoins empty must reconverge through anti-entropy — byte-equal
// digests — before the health machine lets it take traffic again. No
// registration is lost, tombstones included.
func TestReplicaRejoinAntiEntropy(t *testing.T) {
	sys, _ := systems(t)
	f := &fleet{}
	var gate *gatedHandler
	var swap *swapHandler
	for i := 0; i < 2; i++ {
		s, err := serve.New(sys, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		handler := http.Handler(s.Handler())
		if i == 1 {
			swap = &swapHandler{h: handler}
			gate = &gatedHandler{h: swap}
			gate.open.Store(true)
			handler = gate
		}
		ts := httptest.NewServer(handler)
		f.backends = append(f.backends, s)
		f.tss = append(f.tss, ts)
		f.names = append(f.names, strings.TrimPrefix(ts.URL, "http://"))
	}
	cfg := replConfig()
	cfg.Backends = f.names
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.rts = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.rts.Close()
		rt.Close()
		for i := range f.tss {
			f.tss[i].Close()
			f.backends[i].Close()
		}
	})

	put := func(id string, regimen []int, wantStatus int) {
		t.Helper()
		resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": regimen})
		if resp.StatusCode != wantStatus {
			t.Fatalf("PUT %s: status %d, want %d: %s", id, resp.StatusCode, wantStatus, body)
		}
	}

	// Phase 1: both up; ten registrations replicate to both.
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("ae-%d", i), []int{0, 1, i % 5}, http.StatusCreated)
	}

	// Phase 2: kill backend 1 permanently. Writes keep flowing
	// (available-bounded quorum), one record is deleted, one updated.
	gate.open.Store(false)
	waitFor(t, "ejection", 5*time.Second, func() bool {
		return !rt.backends[f.names[1]].health.Healthy()
	})
	for i := 10; i < 20; i++ {
		put(fmt.Sprintf("ae-%d", i), []int{0, 1, i % 5}, http.StatusCreated)
	}
	put("ae-3", []int{4, 5}, http.StatusOK) // version moves past what the dead replica holds
	resp, _ := doJSON(t, http.MethodDelete, f.rts.URL+"/v1/patients/ae-7", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE ae-7: status %d", resp.StatusCode)
	}

	// Phase 3: the backend comes back with an empty registry (fresh
	// process, wiped disk) behind the same address.
	empty, err := serve.New(sys, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { empty.Close() })
	swap.swap(empty.Handler())
	gate.open.Store(true)

	// The half-open trial must reconcile it before rotation: once
	// healthy, it already holds every record.
	waitFor(t, "rejoin after anti-entropy", 10*time.Second, func() bool {
		return rt.backends[f.names[1]].health.Healthy()
	})

	// Every surviving registration is on the rejoined backend...
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("ae-%d", i)
		want := http.StatusOK
		if i == 7 {
			want = http.StatusNotFound // the tombstone must not resurrect
		}
		direct, body := doJSON(t, http.MethodGet, f.tss[1].URL+"/v1/patients/"+id, nil)
		if direct.StatusCode != want {
			t.Fatalf("rejoined backend: GET %s = %d, want %d: %s", id, direct.StatusCode, want, body)
		}
	}
	// ...the updated record carries the post-outage regimen...
	direct, body := doJSON(t, http.MethodGet, f.tss[1].URL+"/v1/patients/ae-3", nil)
	if direct.StatusCode != http.StatusOK || !strings.Contains(string(body), "[4,5]") {
		t.Fatalf("rejoined backend: ae-3 = %d %s, want the updated regimen [4,5]", direct.StatusCode, body)
	}
	// ...and the fleet audit agrees the digests are byte-identical.
	resp, body = doJSON(t, http.MethodGet, f.rts.URL+"/v1/admin/registry/verify", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, body)
	}
	var verify VerifyResponse
	if err := json.Unmarshal(body, &verify); err != nil {
		t.Fatal(err)
	}
	if !verify.OK || verify.Records != 19 {
		t.Fatalf("verify = %+v, want OK with 19 live records", verify)
	}
	m := routerMetrics(t, f.rts.URL)
	if m.AntiEntropySyncs == 0 || m.AntiEntropyRecords < 19 {
		t.Fatalf("anti-entropy counters = %d syncs / %d records, want >= 1 / >= 19", m.AntiEntropySyncs, m.AntiEntropyRecords)
	}
}

// TestReplicatedWriteQuorumFailure: when a required replica is
// reachable-in-name-only (drops every connection but is still marked
// healthy), a quorum-2 write is refused rather than silently
// under-replicated.
func TestReplicatedWriteQuorumFailure(t *testing.T) {
	cfg := replConfig()
	cfg.ProbeInterval = time.Hour // no probes: the gated member stays nominally healthy
	cfg.FailAfter = 100           // and passive failures do not eject it mid-test
	f, gate := gatedFleet(t, 2, 1, cfg)
	rt := f.router

	// An id owned by the healthy backend, so the acting owner write
	// succeeds and only the fan-out to the gated replica can fail.
	id := ownerOf(t, f.names, rt.cfg.VNodes, f.names[0], "qf")
	gate.open.Store(false)
	resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{0, 1}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("under-quorum write: status %d, want 502: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quorum") {
		t.Fatalf("under-quorum write error does not name the quorum: %s", body)
	}
	if m := routerMetrics(t, f.rts.URL); m.QuorumFailures != 1 {
		t.Fatalf("QuorumFailures = %d, want 1", m.QuorumFailures)
	}
}

// TestReplicatedConvergenceHammer: concurrent writers and readers
// through the router with R=2 — every write acknowledged at quorum,
// every read consistent, and the fleet digest-converged when the dust
// settles. Run with -race.
func TestReplicatedConvergenceHammer(t *testing.T) {
	f := bootFleet(t, 3, "", replConfig())
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("cv-%d", c)
				resp, _ := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{c, i % 7}})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
					failures.Add(1)
					continue
				}
				resp, _ = doJSON(t, http.MethodGet, f.rts.URL+"/v1/patients/"+id, nil)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d write/read failures under concurrency", n)
	}
	resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/v1/admin/registry/verify", nil)
	var verify VerifyResponse
	if err := json.Unmarshal(body, &verify); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !verify.OK || verify.Records != workers {
		t.Fatalf("post-hammer verify = status %d %+v, want OK with %d records", resp.StatusCode, verify, workers)
	}
}

// TestPinnedReadUnknownIDOnePass: an id no group member holds is
// answered 404 after one pass over the group — one attempt per member,
// and no backed-off retry pass.
func TestPinnedReadUnknownIDOnePass(t *testing.T) {
	f := bootFleet(t, 2, "", replConfig())
	resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/v1/patients/nobody", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown id: status %d, want 404: %s", resp.StatusCode, body)
	}
	m := routerMetrics(t, f.rts.URL)
	var attempts int64
	for _, b := range m.Backends {
		attempts += b.Requests
	}
	if attempts != 2 || m.Retries != 0 {
		t.Fatalf("unknown id took %d backend attempts and %d retries, want 2 and 0", attempts, m.Retries)
	}
}

// TestPinnedReadOwnerEjectedAtR1: at R=1 the replica group is the
// owner alone, so a read whose owner is out of rotation is answered 503
// with Retry-After at once, without an attempt at the ejected owner.
func TestPinnedReadOwnerEjectedAtR1(t *testing.T) {
	ts, name := fakeServer(t, func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{}`)) })
	cfg := fastConfig()
	cfg.Backends, cfg.FailAfter, cfg.Cooldown = []string{name}, 1, 10*time.Second
	rts := bootRouter(t, cfg)
	ts.Close()
	waitFor(t, "owner ejection", 5*time.Second, func() bool {
		return routerMetrics(t, rts.URL).Backends[name].State == "ejected"
	})
	resp, body := doJSON(t, http.MethodGet, rts.URL+"/v1/patients/p-1", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("GET with the owner ejected: status %d, Retry-After %q, want 503 with one: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if m := routerMetrics(t, rts.URL); m.Backends[name].Requests != 0 || m.Retries != 0 {
		t.Fatalf("the ejected owner got %d attempts and %d retries, want none", m.Backends[name].Requests, m.Retries)
	}
}

// TestReplicatedWriteAnswersAsAtR1: a write answers the client with the
// same members at R=2 as at R=1 — the replication echo never reaches
// the client, and Content-Length matches the relayed body — while the
// echoed record still reaches both replicas.
func TestReplicatedWriteAnswersAsAtR1(t *testing.T) {
	sys, _ := systems(t)
	put := map[string]any{"regimen": []int{0, 1}, "features": sys.Data().Features(0)}
	answer := func(cfg Config) (*fleet, map[string]any) {
		t.Helper()
		f := bootFleet(t, 2, "", cfg)
		resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/echo-patient", put)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("R=%d PUT: status %d: %s", cfg.ReplicationFactor, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("R=%d PUT: Content-Length %d for a %d-byte body", cfg.ReplicationFactor, resp.ContentLength, len(body))
		}
		var members map[string]any
		if err := json.Unmarshal(body, &members); err != nil {
			t.Fatalf("R=%d PUT answer %s: %v", cfg.ReplicationFactor, body, err)
		}
		return f, members
	}
	_, one := answer(fastConfig())
	f, two := answer(replConfig())
	if _, ok := two["record"]; ok {
		t.Fatalf("R=2 PUT answer carries the replication record: %v", two)
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("R=2 PUT answer %v, want the R=1 answer %v", two, one)
	}
	if a, b := digestOf(t, f.tss[0].URL), digestOf(t, f.tss[1].URL); a.Records != 1 || !reflect.DeepEqual(a, b) {
		t.Fatalf("replica digests %+v and %+v, want one record on both", a, b)
	}
}

// digestOf fetches one backend's registry digests directly.
func digestOf(t *testing.T, url string) regproto.DigestResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, url+"/v1/admin/registry/digest", nil)
	var d regproto.DigestResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &d) != nil {
		t.Fatalf("digest of %s: status %d: %s", url, resp.StatusCode, body)
	}
	return d
}

// TestReconcilePushesPastBodyCap: a rejoining backend missing more
// records than one apply request may carry (the backends refuse bodies
// over the cap) still converges: the push is split into requests that
// each fit under it.
func TestReconcilePushesPastBodyCap(t *testing.T) {
	f := bootFleet(t, 2, "", replConfig())
	recs := make([]regproto.Record, 1500)
	for i := range recs {
		features := make([]float64, 71)
		for j := range features {
			features[j] = float64(i*71+j) / 977
		}
		recs[i] = regproto.Record{ID: fmt.Sprintf("bulk-%04d", i), Version: 1, Regimen: []int{i % 11, 11 + i%13}, Features: features}
	}
	if whole, _ := json.Marshal(regproto.ApplyRequest{Records: recs}); len(whole) <= regproto.MaxBodyBytes {
		t.Fatalf("the full push is %d bytes, not past the %d-byte cap", len(whole), regproto.MaxBodyBytes)
	}
	const seedBatch = 250 // fits under the cap
	for i := 0; i < len(recs); i += seedBatch {
		resp, body := postJSON(t, f.tss[0].URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: recs[i : i+seedBatch]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding records %d-%d: status %d: %s", i, i+seedBatch, resp.StatusCode, body)
		}
	}
	if err := f.router.reconcile(f.router.backends[f.names[1]]); err != nil {
		t.Fatalf("reconcile of an empty backend: %v", err)
	}
	if peer, rejoiner := digestOf(t, f.tss[0].URL), digestOf(t, f.tss[1].URL); rejoiner.Records != len(recs) || !reflect.DeepEqual(peer, rejoiner) {
		t.Fatalf("rejoiner holds %d records, digests equal %t; want %d and equal", rejoiner.Records, reflect.DeepEqual(peer, rejoiner), len(recs))
	}
}

// TestReconcileAndVerifyPastControlCap: a registry whose whole sync
// answer is larger than the router reads from one control-plane answer
// (maxControlBody) still reconciles and verifies, because both pull it
// one shard per request. Both members of an R=2 fleet hold the smallest
// number of 71-feature records whose single sync answer would cross the
// cap, so reconcile has nothing to push. The cap is lowered to 1 MiB
// for the test; crossing the real 64 MiB takes about 47,000 such
// records and fails the same way.
func TestReconcileAndVerifyPastControlCap(t *testing.T) {
	defaultCap := maxControlBody
	t.Cleanup(func() { maxControlBody = defaultCap }) // after the fleet stops
	maxControlBody = 1 << 20
	f := bootFleet(t, 2, "", replConfig())
	features := make([]float64, 71)
	for j := range features {
		features[j] = -float64(j+1) / 977
	}
	var recs []regproto.Record
	// A sync answer is json.Marshal(SyncResponse): {"records":[...]}.
	size := int64(len(`{"records":[]}`) - 1)
	for size <= maxControlBody {
		i := len(recs)
		rec := regproto.Record{ID: fmt.Sprintf("bulk-%06d", i), Version: 1, Regimen: []int{i % 11, 11 + i%13}, Features: features}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		size += int64(len(enc)) + 1
		recs = append(recs, rec)
	}
	const seedBatch = 250 // fits under the backends' body cap
	for _, ts := range f.tss {
		for i := 0; i < len(recs); i += seedBatch {
			resp, body := postJSON(t, ts.URL+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: recs[i:min(i+seedBatch, len(recs))]})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seeding records %d+: status %d: %s", i, resp.StatusCode, body)
			}
		}
	}
	if err := f.router.reconcile(f.router.backends[f.names[1]]); err != nil {
		t.Errorf("reconcile over %d records (a %d-byte sync answer): %v", len(recs), size, err)
	}
	resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/v1/admin/registry/verify", nil)
	var v VerifyResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &v) != nil || !v.OK || v.Records != len(recs) {
		t.Fatalf("verify over %d records: status %d: %.300s", len(recs), resp.StatusCode, body)
	}
}

// TestHealthRetryAfterClampsSubSecond: near cooldown expiry the
// remainder must never quote below one second — a raw 800ms remainder
// truncates to Retry-After: 0 and tells clients to hammer.
func TestHealthRetryAfterClampsSubSecond(t *testing.T) {
	m := newHealthMachine(1, 2*time.Second)
	now := time.Now()
	m.OnFailure(now) // ejects (failAfter 1)
	if got := m.RetryAfter(now.Add(1800 * time.Millisecond)); got != time.Second {
		t.Fatalf("RetryAfter 200ms before expiry = %v, want clamped 1s", got)
	}
	if got := m.RetryAfter(now.Add(500 * time.Millisecond)); got != 1500*time.Millisecond {
		t.Fatalf("RetryAfter mid-cooldown = %v, want the real 1.5s remainder", got)
	}
	if s := retryAfterSeconds(m.RetryAfter(now.Add(1999 * time.Millisecond))); s != "1" {
		t.Fatalf("rendered Retry-After = %s, want 1", s)
	}
}
