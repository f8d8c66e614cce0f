package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeServer is a fakeBackend that keeps its server handle, so a test
// can take the backend down: a live /healthz plus one handler for
// every routed path.
func fakeServer(t *testing.T, routed http.HandlerFunc) (*httptest.Server, string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","epoch":1}`))
	})
	mux.HandleFunc("/", routed)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

// routedPaths are the router's three request paths: the forward of an
// index read, and the replica-group walk of a pinned read and the
// replicated write, each at R=1 (a group of one) and at R=2.
var routedPaths = []struct {
	name     string
	replicas int
	method   string
	path     string
	body     string
	pinned   bool
}{
	{"forward", 1, http.MethodPost, "/v1/suggest", `{"patient": 0, "k": 1}`, false},
	{"forward pinned read", 1, http.MethodGet, "/v1/patients/p-1", "", true},
	{"forward pinned write", 1, http.MethodPut, "/v1/patients/p-1", `{"regimen": [0, 1]}`, true},
	{"pinned read", 2, http.MethodGet, "/v1/patients/p-1", "", true},
	{"replicated write", 2, http.MethodPut, "/v1/patients/p-1", `{"regimen": [0, 1]}`, true},
}

// TestRouterUnroutedReplies pins the reply the router writes itself
// when no backend answers, on every routed path: a pinned key whose
// whole group is ejected gets a 503 with Retry-After, a spent request
// budget a 504, and backends that are in rotation but refuse
// connections a 502 naming the last one tried. Each reply counts one
// proxy error, and the 503 and 504 their own counters too.
func TestRouterUnroutedReplies(t *testing.T) {
	answer := func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{}`)) }
	slow := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // so the server notices the router hanging up
		select {
		case <-time.After(300 * time.Millisecond):
		case <-r.Context().Done():
		}
		w.Write([]byte(`{}`))
	}
	cases := []struct {
		name       string
		cfg        Config
		handler    http.HandlerFunc
		down       bool   // the backends stop listening before the request
		deadline   string // the client's X-Deadline-Ms
		pinnedOnly bool
		status     int
		errText    []string
		pinned     int64 // want pinned_unavailable
		exhausted  int64 // want deadline_exhausted
	}{
		{
			name: "group ejected",
			cfg: Config{ProbeInterval: 20 * time.Millisecond, FailAfter: 1, Cooldown: 10 * time.Second,
				MaxRetries: 2, RetryBackoff: 5 * time.Millisecond, Timeout: 5 * time.Second},
			handler: answer, down: true, pinnedOnly: true,
			status: http.StatusServiceUnavailable, errText: []string{"router: backend ", " out of rotation"},
			pinned: 1,
		},
		{
			name: "budget spent",
			cfg: Config{ProbeInterval: 50 * time.Millisecond, FailAfter: 100, Cooldown: 10 * time.Second,
				MaxRetries: 2, RetryBackoff: 5 * time.Millisecond, Timeout: 5 * time.Second},
			handler: slow, deadline: "50",
			status: http.StatusGatewayTimeout, errText: []string{"router: request budget exhausted"},
			exhausted: 1,
		},
		{
			name: "connections refused",
			cfg: Config{ProbeInterval: time.Hour, FailAfter: 100, Cooldown: 10 * time.Second,
				MaxRetries: 2, RetryBackoff: 5 * time.Millisecond, Timeout: 5 * time.Second},
			handler: answer, down: true,
			status: http.StatusBadGateway, errText: []string{"router: backend ", " unreachable"},
		},
	}
	for _, p := range routedPaths {
		for _, c := range cases {
			if c.pinnedOnly && !p.pinned {
				continue
			}
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				var servers []*httptest.Server
				cfg := c.cfg
				cfg.ReplicationFactor = p.replicas
				for i := 0; i < 2; i++ {
					ts, name := fakeServer(t, c.handler)
					servers = append(servers, ts)
					cfg.Backends = append(cfg.Backends, name)
				}
				rts := bootRouter(t, cfg)
				if c.down {
					for _, ts := range servers {
						ts.Close()
					}
				}
				if c.pinnedOnly {
					waitFor(t, "whole fleet ejected", 5*time.Second, func() bool {
						resp, body := doJSON(t, http.MethodGet, rts.URL+"/healthz", nil)
						var h HealthResponse
						return resp.StatusCode == http.StatusServiceUnavailable &&
							json.Unmarshal(body, &h) == nil && h.Status == "down"
					})
				}

				req, err := http.NewRequest(p.method, rts.URL+p.path, strings.NewReader(p.body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				if c.deadline != "" {
					req.Header.Set(deadlineHeader, c.deadline)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}

				if resp.StatusCode != c.status {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.status, body)
				}
				var apiErr apiError
				if err := json.Unmarshal(body, &apiErr); err != nil {
					t.Fatalf("error body %q: %v", body, err)
				}
				for _, s := range c.errText {
					if !strings.Contains(apiErr.Error, s) {
						t.Errorf("error %q does not contain %q", apiErr.Error, s)
					}
				}
				ra := resp.Header.Get("Retry-After")
				if c.status == http.StatusServiceUnavailable {
					if n, err := strconv.Atoi(ra); err != nil || n < 1 {
						t.Errorf("Retry-After = %q, want a whole number of seconds >= 1", ra)
					}
				} else if ra != "" {
					t.Errorf("Retry-After = %q on a %d", ra, c.status)
				}
				m := routerMetrics(t, rts.URL)
				if m.ProxyErrors != 1 || m.PinnedUnavailable != c.pinned || m.DeadlineExhausted != c.exhausted {
					t.Errorf("proxy_errors %d, pinned_unavailable %d, deadline_exhausted %d; want 1, %d, %d",
						m.ProxyErrors, m.PinnedUnavailable, m.DeadlineExhausted, c.pinned, c.exhausted)
				}
			})
		}
	}
}

// TestRouterRelaysLargeBodiesWhole: a backend response is relayed
// byte for byte whatever its size and framing, on every routed path,
// and a large body is never mistaken for a transport failure.
func TestRouterRelaysLargeBodiesWhole(t *testing.T) {
	big := make([]byte, 2<<20)
	for i := range big {
		big[i] = byte(i % 251)
	}
	for _, chunked := range []bool{true, false} {
		serveBig := func(w http.ResponseWriter, _ *http.Request) {
			if !chunked {
				w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			}
			// Flushing before the rest of the body forces chunked
			// framing when no Content-Length is set.
			w.Write(big[:1])
			w.(http.Flusher).Flush()
			w.Write(big[1:])
		}
		for _, p := range routedPaths {
			t.Run(p.name+"/chunked="+strconv.FormatBool(chunked), func(t *testing.T) {
				cfg := fastConfig()
				cfg.ReplicationFactor = p.replicas
				for i := 0; i < 2; i++ {
					_, name := fakeServer(t, serveBig)
					cfg.Backends = append(cfg.Backends, name)
				}
				rts := bootRouter(t, cfg)
				req, err := http.NewRequest(p.method, rts.URL+p.path, strings.NewReader(p.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, big) {
					t.Fatalf("status %d with %d of %d bytes (whole: %v), want 200 with the whole body",
						resp.StatusCode, len(body), len(big), bytes.Equal(body, big))
				}
				for name, b := range routerMetrics(t, rts.URL).Backends {
					if b.Errors != 0 || b.Ejections != 0 {
						t.Errorf("backend %s: %d transport errors, %d ejections; want none", name, b.Errors, b.Ejections)
					}
				}
			})
		}
	}
}
