package router

import (
	"net/http"
	"strings"
	"testing"
)

// TestRouterRoutingTable pins where the router sends each well-formed
// body shape of the four scoring endpoints: the answer's X-Backend is
// the ring owner of the key the body names, at R=1 and at R=2.
func TestRouterRoutingTable(t *testing.T) {
	cases := []struct {
		path, body, key string
	}{
		{"/v1/suggest", `{"patient": 7, "k": 3}`, patientKey(7)},
		{"/v1/suggest", `{"patient": 0}`, patientKey(0)},
		{"/v1/suggest", `{"k": 2, "screen": false}`, patientKey(0)},
		{"/v1/suggest", `{"patient_id": "reg-1", "k": 2}`, registeredKey("reg-1")},
		{"/v1/suggest", `{"patient_id": "reg-2", "patient": 0}`, registeredKey("reg-2")},
		{"/v1/scores", `{"patients": [12, 3]}`, patientKey(12)},
		{"/v1/scores", `{"patients": [5]}`, patientKey(5)},
		{"/v1/explain", `{"patient": 9, "k": 2}`, patientKey(9)},
		{"/v1/explain", `{"patient": 4, "drugs": []}`, patientKey(4)},
		{"/v1/explain", `{"drugs": [9, 2, 5]}`, drugsKey([]int{2, 5, 9})},
		{"/v1/alerts", `{"drugs": [3, 1]}`, drugsKey([]int{1, 3})},
		{"/v1/alerts", `{"drugs": [3, 1], "patient": 6}`, patientKey(6)},
	}
	answer := func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{}`)) }
	for _, replicas := range []int{1, 2} {
		cfg := fastConfig()
		cfg.VNodes, cfg.ReplicationFactor = 64, replicas
		for i := 0; i < 3; i++ {
			_, name := fakeServer(t, answer)
			cfg.Backends = append(cfg.Backends, name)
		}
		rts := bootRouter(t, cfg)
		ring := NewRing(cfg.VNodes)
		for _, name := range cfg.Backends {
			ring.Add(name)
		}
		for _, c := range cases {
			resp, err := http.Post(rts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("R=%d %s %s: status %d", replicas, c.path, c.body, resp.StatusCode)
			}
			if got, want := resp.Header.Get("X-Backend"), ring.Lookup(c.key); got != want {
				t.Errorf("R=%d %s %s: served by %s, want %s, the owner of %q", replicas, c.path, c.body, got, want, c.key)
			}
		}
	}
}
