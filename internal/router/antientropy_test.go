package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dssddi/internal/obs"
	"dssddi/internal/regproto"
)

// seedRecord installs rec on one backend directly, through its
// replica-apply endpoint.
func seedRecord(t *testing.T, url string, rec regproto.Record) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/admin/registry/apply", regproto.ApplyRequest{Records: []regproto.Record{rec}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding %s v%d: status %d: %s", rec.ID, rec.Version, resp.StatusCode, body)
	}
}

// ejectGated closes the gate and waits until the router has taken the
// gated backend out of rotation.
func ejectGated(t *testing.T, f *fleet, gate *gatedHandler, name string) {
	t.Helper()
	gate.open.Store(false)
	waitFor(t, "ejection of "+name, 5*time.Second, func() bool {
		return !f.router.backends[name].health.Healthy()
	})
}

// TestRejoinRepairsStalePeer: a rejoin pushes every pulled member what
// it lacks, so at R=3 an in-rotation peer that holds an older version
// than another peer catches up too, not just the rejoiner.
func TestRejoinRepairsStalePeer(t *testing.T) {
	cfg := fastConfig()
	cfg.ReplicationFactor = 3
	f, gate := gatedFleet(t, 3, 2, cfg)
	seedRecord(t, f.tss[0].URL, regproto.Record{ID: "x", Version: 2, Regimen: []int{2, 3}})
	seedRecord(t, f.tss[1].URL, regproto.Record{ID: "x", Version: 1, Regimen: []int{0, 1}})

	ejectGated(t, f, gate, f.names[2])
	gate.open.Store(true)
	waitFor(t, "rejoin after anti-entropy", 5*time.Second, func() bool {
		return f.router.backends[f.names[2]].health.Healthy()
	})

	resp, body := doJSON(t, http.MethodGet, f.tss[1].URL+"/v1/patients/x", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "[2,3]") {
		t.Fatalf("stale peer after the rejoin: x = %d %s, want v2's regimen [2,3]", resp.StatusCode, body)
	}
	want := digestOf(t, f.tss[0].URL)
	for i := 1; i < 3; i++ {
		if got := digestOf(t, f.tss[i].URL); !reflect.DeepEqual(got, want) {
			t.Fatalf("backend %d digests %+v, want backend 0's %+v", i, got, want)
		}
	}
}

// splitFleet boots an R=2 fleet whose two members hold different
// contents for one id at the same version, v2 [2,3] on the id's owner
// and v2 [4,5] on the other (the split two acting owners leave behind
// when each mints the same version), and ejects the owner. It returns
// the owner's name and the id.
func splitFleet(t *testing.T) (*fleet, *gatedHandler, string, string) {
	t.Helper()
	f, gate := gatedFleet(t, 2, 0, replConfig())
	owner := f.names[0]
	id := ownerOf(t, f.names, f.router.cfg.VNodes, owner, "split")
	seedRecord(t, f.tss[0].URL, regproto.Record{ID: id, Version: 2, Regimen: []int{2, 3}})
	seedRecord(t, f.tss[1].URL, regproto.Record{ID: id, Version: 2, Regimen: []int{4, 5}})
	ejectGated(t, f, gate, owner)
	return f, gate, owner, id
}

// TestVerifyNamesUnauditedMember: verify does not pull an
// out-of-rotation member, so it cannot vouch for it: the member is
// listed as not audited and the answer is 409, not a 200 that hides
// the split it holds.
func TestVerifyNamesUnauditedMember(t *testing.T) {
	f, _, owner, _ := splitFleet(t)
	resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/v1/admin/registry/verify", nil)
	var v VerifyResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("verify answer %s: %v", body, err)
	}
	if resp.StatusCode != http.StatusConflict || v.OK {
		t.Fatalf("verify with %s out of rotation: status %d %s, want 409 and not ok", owner, resp.StatusCode, body)
	}
	if len(v.Backends) != 2 {
		t.Fatalf("verify lists %d backends, want 2: %s", len(v.Backends), body)
	}
	for _, b := range v.Backends {
		wantErr := ""
		if b.Backend == owner {
			wantErr = "not audited: out of rotation"
		}
		if b.Error != wantErr || b.OK != (wantErr == "") {
			t.Fatalf("verify lists %+v; want the out-of-rotation %s alone, not ok and not audited", b, owner)
		}
	}
}

// TestReconcileFailureOnMetricsz: when the ejected owner of a split
// comes back, each half-open trial's reconcile fails its digest audit,
// and /metricsz says so: the member's reconcile_failures counter (in
// both views) and its last_reconcile_error, which names the diverging
// shard.
func TestReconcileFailureOnMetricsz(t *testing.T) {
	f, gate, owner, id := splitFleet(t)
	gate.open.Store(true)
	shard := fmt.Sprintf("shard %d diverges", regproto.ShardOf(id))
	var last string
	waitFor(t, "a reconcile failure on /metricsz", 5*time.Second, func() bool {
		bm := routerMetrics(t, f.rts.URL).Backends[owner]
		last = bm.LastReconcileError
		return bm.ReconcileFailures >= 1 && last != ""
	})
	if !strings.Contains(last, shard) {
		t.Fatalf("last_reconcile_error = %q, want it to name %q", last, shard)
	}
	resp, err := http.Get(f.rts.URL + "/metricsz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	set, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := set.Value("dssddi_router_backend_reconcile_failures_total", map[string]string{"backend": owner}); !ok || n < 1 {
		t.Fatalf("dssddi_router_backend_reconcile_failures_total for %s = %v (present %t), want >= 1", owner, n, ok)
	}
}

// TestApplyRecordsEncodesOnce: a push of 5,000 71-feature records is
// cut, in order, into apply bodies under the body cap, greedily (the
// next body's first record would not have fit), and each body is
// exactly the json.Marshal of the ApplyRequest it carries.
func TestApplyRecordsEncodesOnce(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	_, name := fakeServer(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		w.Write([]byte(`{}`))
	})
	cfg := fastConfig()
	cfg.Backends = []string{name}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	recs := make([]regproto.Record, 5000)
	for i := range recs {
		features := make([]float64, 71)
		for j := range features {
			features[j] = float64(i*71+j) / 977
		}
		recs[i] = regproto.Record{ID: fmt.Sprintf("push-%04d", i), Version: 1, Regimen: []int{i % 11, 11 + i%13}, Features: features}
	}
	if err := rt.applyRecords(rt.backends[name], recs, 1); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) < 2 {
		t.Fatalf("a push past the cap went out in %d request(s)", len(bodies))
	}
	var got []regproto.Record
	for i, body := range bodies {
		var req regproto.ApplyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if want, _ := json.Marshal(req); len(body) > regproto.MaxBodyBytes || !bytes.Equal(body, want) {
			t.Fatalf("body %d: %d bytes (cap %d), equal to the marshal of its request %t", i, len(body), regproto.MaxBodyBytes, bytes.Equal(body, want))
		}
		if i > 0 {
			next, _ := json.Marshal(req.Records[0])
			if prev := len(bodies[i-1]); prev+1+len(next) <= regproto.MaxBodyBytes {
				t.Fatalf("body %d (%d bytes) had room for the %d-byte record that opened body %d", i-1, prev, len(next), i)
			}
		}
		got = append(got, req.Records...)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("the %d bodies carry %d records, not the push in order", len(bodies), len(got))
	}
}
