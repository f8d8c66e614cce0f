package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dssddi/internal/chaos"
	"dssddi/internal/serve"
)

// TestRouterSurvivesChaoticBackend puts a fault-injecting TCP proxy
// between the router and one of three backends — connections reset,
// responses cut mid-body, latency added — and drives mixed reads
// through the fleet. The router must keep the overall success rate
// high (retries + failover around the flaky member) and, crucially,
// every 200 it does return must be bitwise-consistent per
// (patient, epoch): a flaky network may cost availability, never
// correctness.
func TestRouterSurvivesChaoticBackend(t *testing.T) {
	sys, _ := systems(t)
	f := &fleet{}
	for i := 0; i < 3; i++ {
		s, err := serve.New(sys, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		f.backends = append(f.backends, s)
		f.tss = append(f.tss, ts)
		f.names = append(f.names, strings.TrimPrefix(ts.URL, "http://"))
	}

	// Backend 0 goes behind the chaos proxy: 25% of connections RST,
	// 10% die mid-response, everything gets 5ms of latency.
	px, err := chaos.NewProxy("127.0.0.1:0", f.names[0], chaos.Faults{
		Latency:   5 * time.Millisecond,
		ResetProb: 0.25,
		DropProb:  0.10,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	f.names[0] = px.Addr()

	cfg := fastConfig()
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
		px.Close()
		for i := range f.tss {
			f.tss[i].Close()
			f.backends[i].Close()
		}
	})

	// Half the patients are owned by the proxied backend, half by the
	// others. The proxy's ephemeral port places it on the ring, so a
	// fixed patient set is sometimes owned entirely by the direct
	// backends, and then only probes would cross the chaos.
	var proxied, direct []int
	for p := 0; p < sys.Data().NumPatients() && (len(proxied) < 4 || len(direct) < 4); p++ {
		if rt.ring.Lookup(patientKey(p)) == px.Addr() {
			if len(proxied) < 4 {
				proxied = append(proxied, p)
			}
		} else if len(direct) < 4 {
			direct = append(direct, p)
		}
	}
	if len(proxied) < 4 || len(direct) < 4 {
		t.Fatalf("ring gives the proxied backend %d and the others %d of the cohort's patients, want 4 each", len(proxied), len(direct))
	}
	patients := append(proxied, direct...)

	seen := make(map[string]string) // patient|k|epoch -> body
	var ok, failed int
	for round := 0; round < 10; round++ {
		for _, patient := range patients {
			resp, body := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": patient, "k": 3})
			if resp.StatusCode != http.StatusOK {
				failed++
				continue
			}
			ok++
			epoch := resp.Header.Get("X-Epoch")
			if epoch == "" {
				t.Fatalf("200 without X-Epoch (patient %d)", patient)
			}
			key := fmt.Sprintf("%d|3|%s", patient, epoch)
			if prev, dup := seen[key]; dup {
				if prev != string(body) {
					t.Fatalf("bitwise divergence for %s under chaos:\n%s\nvs\n%s", key, prev, body)
				}
			} else {
				seen[key] = string(body)
			}
		}
	}
	total := ok + failed
	if ok < total*8/10 {
		t.Fatalf("only %d/%d requests succeeded under chaos; failover is not absorbing the faults", ok, total)
	}
	if px.Resets.Load() == 0 && px.Drops.Load() == 0 {
		t.Fatal("the chaos proxy injected nothing; the test proved nothing")
	}
}
