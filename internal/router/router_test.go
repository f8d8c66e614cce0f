package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssddi"
	"dssddi/internal/serve"
)

var (
	sysOnce sync.Once
	sysA    *dssddi.System
	sysB    *dssddi.System
)

// systems trains two small models over the same cohort (different
// parameter seeds) — one to serve, one to roll out.
func systems(t testing.TB) (*dssddi.System, *dssddi.System) {
	t.Helper()
	sysOnce.Do(func() {
		data := dssddi.GenerateChronic(11, 50, 40)
		train := func(seed int64) *dssddi.System {
			cfg := dssddi.DefaultConfig()
			cfg.DDIEpochs = 15
			cfg.MDEpochs = 25
			cfg.Hidden = 16
			cfg.Seed = seed
			sys := dssddi.New(cfg)
			if err := sys.Train(data); err != nil {
				panic(err)
			}
			return sys
		}
		sysA, sysB = train(1), train(7)
	})
	if sysA == nil || sysB == nil {
		t.Fatal("shared test systems failed to train")
	}
	return sysA, sysB
}

// saveSnapshot writes sys to dir/name and returns the path.
func saveSnapshot(t testing.TB, sys *dssddi.System, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fleet is a test cluster: n serve backends (each loaded from its own
// snapshot read, with SnapshotPath wired for reloads) plus a router.
type fleet struct {
	names    []string
	backends []*serve.Server
	tss      []*httptest.Server
	router   *Router
	rts      *httptest.Server
}

func bootFleet(t *testing.T, n int, snapPath string, cfg Config) *fleet {
	t.Helper()
	sys, _ := systems(t)
	f := &fleet{}
	for i := 0; i < n; i++ {
		backendSys := sys
		if snapPath != "" {
			fh, err := os.Open(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			backendSys, err = dssddi.Load(fh)
			fh.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		s, err := serve.New(backendSys, serve.Config{SnapshotPath: snapPath})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		f.backends = append(f.backends, s)
		f.tss = append(f.tss, ts)
		f.names = append(f.names, strings.TrimPrefix(ts.URL, "http://"))
	}
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
	return f
}

func fastConfig() Config {
	return Config{
		ProbeInterval: 50 * time.Millisecond,
		FailAfter:     2,
		Cooldown:      250 * time.Millisecond,
		MaxRetries:    2,
		RetryBackoff:  5 * time.Millisecond,
		Timeout:       5 * time.Second,
	}
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func doJSON(t testing.TB, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var reader io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestRouterStickyRouting: a patient's requests always land on the
// ring owner, the fleet as a whole is actually spread, and every
// proxied response carries exactly one X-Epoch and an X-Backend.
func TestRouterStickyRouting(t *testing.T) {
	f := bootFleet(t, 3, "", fastConfig())
	used := map[string]bool{}
	for p := 0; p < 30; p++ {
		var owner string
		for rep := 0; rep < 3; rep++ {
			resp, body := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": p, "k": 2})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("patient %d: status %d: %s", p, resp.StatusCode, body)
			}
			backend := resp.Header.Get("X-Backend")
			if backend == "" {
				t.Fatal("response missing X-Backend")
			}
			if epochs := resp.Header.Values("X-Epoch"); len(epochs) != 1 {
				t.Fatalf("response carries %d X-Epoch headers, want exactly 1", len(epochs))
			}
			if rep == 0 {
				owner = backend
			} else if backend != owner {
				t.Fatalf("patient %d moved between backends: %s then %s", p, owner, backend)
			}
		}
		used[owner] = true
	}
	if len(used) < 2 {
		t.Fatalf("30 patients all routed to %d backend(s); ring is not spreading", len(used))
	}

	// The router's view of the routing must match an identically
	// configured ring.
	ring := NewRing(f.router.cfg.VNodes)
	for _, n := range f.names {
		ring.Add(n)
	}
	resp, _ := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": 17, "k": 2})
	if got, want := resp.Header.Get("X-Backend"), ring.Lookup(patientKey(17)); got != want {
		t.Fatalf("patient 17 served by %s, ring says %s", got, want)
	}
}

// TestRouterRegistryShardLocal: a registered profile lives on exactly
// the ring owner, and registered suggests through the router reach it.
func TestRouterRegistryShardLocal(t *testing.T) {
	f := bootFleet(t, 3, "", fastConfig())
	const id = "shard-local-patient"
	resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+id, map[string]any{"regimen": []int{0, 1, 2}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", resp.StatusCode, body)
	}
	owner := resp.Header.Get("X-Backend")

	// Direct backend reads: only the owner knows the patient.
	for i, name := range f.names {
		direct, _ := doJSON(t, http.MethodGet, f.tss[i].URL+"/v1/patients/"+id, nil)
		want := http.StatusNotFound
		if name == owner {
			want = http.StatusOK
		}
		if direct.StatusCode != want {
			t.Fatalf("backend %s: GET patient = %d, want %d", name, direct.StatusCode, want)
		}
	}

	// Registered suggest routes to the same shard.
	resp, body = postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient_id": id, "k": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registered suggest: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Backend"); got != owner {
		t.Fatalf("registered suggest served by %s, profile lives on %s", got, owner)
	}

	// And the whole lifecycle stays on the shard through the router.
	resp, _ = doJSON(t, http.MethodDelete, f.rts.URL+"/v1/patients/"+id, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backend") != owner {
		t.Fatalf("DELETE: status %d via %s, want 200 via %s", resp.StatusCode, resp.Header.Get("X-Backend"), owner)
	}
}

// TestRouterCoordinatedRollout: one router reload rolls every backend
// to the new snapshot, canary first, each step verified.
func TestRouterCoordinatedRollout(t *testing.T) {
	a, b := systems(t)
	dir := t.TempDir()
	pathA := saveSnapshot(t, a, dir, "a.snap")
	pathB := saveSnapshot(t, b, dir, "b.snap")
	f := bootFleet(t, 3, pathA, fastConfig())

	resp, body := postJSON(t, f.rts.URL+"/v1/admin/reload", ReloadRequest{Path: pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout: status %d: %s", resp.StatusCode, body)
	}
	var rollout RolloutResponse
	if err := json.Unmarshal(body, &rollout); err != nil {
		t.Fatal(err)
	}
	if !rollout.OK || len(rollout.Steps) != 3 {
		t.Fatalf("rollout = %+v, want OK with 3 steps", rollout)
	}
	if !rollout.Steps[0].Canary {
		t.Fatal("first step is not marked canary")
	}
	for _, step := range rollout.Steps {
		if step.Status != "reloaded" || step.OldEpoch != 1 || step.NewEpoch != 2 {
			t.Fatalf("step %+v, want reloaded 1 -> 2", step)
		}
	}
	// Every backend is really on epoch 2.
	for i, s := range f.backends {
		if got := s.Epoch(); got != 2 {
			t.Fatalf("backend %d epoch = %d, want 2", i, got)
		}
	}
}

// TestRouterRolloutAbort: a failing canary aborts the rollout before
// any other backend is touched, and the report says so.
func TestRouterRolloutAbort(t *testing.T) {
	a, _ := systems(t)
	dir := t.TempDir()
	pathA := saveSnapshot(t, a, dir, "a.snap")
	f := bootFleet(t, 3, pathA, fastConfig())

	resp, body := postJSON(t, f.rts.URL+"/v1/admin/reload", ReloadRequest{Path: filepath.Join(dir, "missing.snap")})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("rollout with bad path: status %d: %s", resp.StatusCode, body)
	}
	var rollout RolloutResponse
	if err := json.Unmarshal(body, &rollout); err != nil {
		t.Fatal(err)
	}
	if rollout.OK || len(rollout.Steps) != 3 {
		t.Fatalf("rollout = %+v, want failed with 3 steps", rollout)
	}
	if rollout.Steps[0].Status != "failed" || !rollout.Steps[0].Canary {
		t.Fatalf("canary step = %+v, want failed canary", rollout.Steps[0])
	}
	for _, step := range rollout.Steps[1:] {
		if step.Status != "skipped" {
			t.Fatalf("post-canary step = %+v, want skipped", step)
		}
	}
	// No backend moved off epoch 1.
	for i, s := range f.backends {
		if got := s.Epoch(); got != 1 {
			t.Fatalf("backend %d epoch = %d after aborted rollout, want 1", i, got)
		}
	}
}

// gatedHandler simulates a crashed backend: while closed, every
// connection is hijacked and dropped, which the router sees as a
// transport failure.
type gatedHandler struct {
	open atomic.Bool
	h    http.Handler
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.open.Load() {
		g.h.ServeHTTP(w, r)
		return
	}
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic("gated handler: hijack unsupported")
}

// gatedFleet is bootFleet without snapshots, with one backend behind a
// gatedHandler that starts open.
func gatedFleet(t *testing.T, n, gated int, cfg Config) (*fleet, *gatedHandler) {
	t.Helper()
	sys, _ := systems(t)
	f := &fleet{}
	gate := &gatedHandler{}
	gate.open.Store(true)
	for i := 0; i < n; i++ {
		s, err := serve.New(sys, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		handler := http.Handler(s.Handler())
		if i == gated {
			gate.h = handler
			handler = gate
		}
		ts := httptest.NewServer(handler)
		f.backends = append(f.backends, s)
		f.tss = append(f.tss, ts)
		f.names = append(f.names, strings.TrimPrefix(ts.URL, "http://"))
	}
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
	return f, gate
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterFailoverEjectionRecovery: when a backend dies, its index
// keys fail over to the deterministic ring successor and the prober
// ejects it; pinned registry traffic for its shard is refused rather
// than silently served elsewhere; on recovery, its keys return.
func TestRouterFailoverEjectionRecovery(t *testing.T) {
	f, gate := gatedFleet(t, 3, 2, fastConfig())
	rt := f.router
	gated := f.names[2]

	// Find keys the gated backend owns.
	ring := NewRing(rt.cfg.VNodes)
	for _, n := range f.names {
		ring.Add(n)
	}
	gatedIndex := -1
	for p := 0; p < 50; p++ {
		if ring.Lookup(patientKey(p)) == gated {
			gatedIndex = p
			break
		}
	}
	gatedID := ""
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("fo-%d", i)
		if ring.Lookup(registeredKey(id)) == gated {
			gatedID = id
			break
		}
	}
	if gatedIndex < 0 || gatedID == "" {
		t.Fatal("could not find keys owned by the gated backend")
	}

	// Healthy: the owner serves its own keys.
	resp, _ := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": gatedIndex, "k": 2})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backend") != gated {
		t.Fatalf("pre-failure: status %d via %s, want 200 via %s", resp.StatusCode, resp.Header.Get("X-Backend"), gated)
	}

	// Kill it. Index reads must fail over to a survivor within the
	// retry budget — zero client-visible errors.
	gate.open.Store(false)
	resp, body := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": gatedIndex, "k": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover suggest: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Backend"); got == gated || got == "" {
		t.Fatalf("failover suggest served by %q, want a survivor", got)
	}

	// Registry writes for the dead shard fail fast (502 pre-ejection,
	// 503 once ejected) instead of landing on the wrong backend.
	resp, _ = doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+gatedID, map[string]any{"regimen": []int{0, 1}})
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write to dead shard: status %d, want 502/503", resp.StatusCode)
	}

	// The prober ejects it.
	waitFor(t, "ejection", 5*time.Second, func() bool {
		var health HealthResponse
		resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/healthz", nil)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if err := json.Unmarshal(body, &health); err != nil {
			return false
		}
		return health.Status == "degraded" && health.Healthy == 2
	})

	// Recovery: reopen the gate; the half-open trial brings it back
	// and its keys return home.
	gate.open.Store(true)
	waitFor(t, "recovery", 5*time.Second, func() bool {
		var health HealthResponse
		resp, body := doJSON(t, http.MethodGet, f.rts.URL+"/healthz", nil)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if err := json.Unmarshal(body, &health); err != nil {
			return false
		}
		return health.Status == "ok"
	})
	waitFor(t, "keys returning to the recovered owner", 5*time.Second, func() bool {
		resp, _ := postJSON(t, f.rts.URL+"/v1/suggest", map[string]any{"patient": gatedIndex, "k": 2})
		return resp.StatusCode == http.StatusOK && resp.Header.Get("X-Backend") == gated
	})
}

// TestRouterRollingReloadHammer: concurrent index and registered
// suggests through the router while a rolling reload sweeps the
// fleet. Every response must be 200 with exactly one X-Epoch header
// whose value is a real epoch (1 pre-reload, 2 post) — i.e. each
// response was produced wholly by one backend generation.
func TestRouterRollingReloadHammer(t *testing.T) {
	a, b := systems(t)
	dir := t.TempDir()
	pathA := saveSnapshot(t, a, dir, "a.snap")
	pathB := saveSnapshot(t, b, dir, "b.snap")
	f := bootFleet(t, 3, pathA, fastConfig())

	// Register a patient per worker up front.
	const workers = 8
	for c := 0; c < workers; c++ {
		resp, body := doJSON(t, http.MethodPut, f.rts.URL+"/v1/patients/"+fmt.Sprintf("h-%d", c), map[string]any{"regimen": []int{0, 1, 2}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT h-%d: status %d: %s", c, resp.StatusCode, body)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, workers)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				var req any
				if it%2 == 0 {
					req = map[string]any{"patient": (c*7 + it) % 40, "k": 2}
				} else {
					req = map[string]any{"patient_id": fmt.Sprintf("h-%d", c), "k": 2}
				}
				buf, _ := json.Marshal(req)
				resp, err := client.Post(f.rts.URL+"/v1/suggest", "application/json", bytes.NewReader(buf))
				if err != nil {
					errc <- fmt.Errorf("worker %d: transport error: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("worker %d: status %d", c, resp.StatusCode)
					return
				}
				epochs := resp.Header.Values("X-Epoch")
				if len(epochs) != 1 {
					errc <- fmt.Errorf("worker %d: %d X-Epoch headers", c, len(epochs))
					return
				}
				if epochs[0] != "1" && epochs[0] != "2" {
					errc <- fmt.Errorf("worker %d: impossible epoch %q", c, epochs[0])
					return
				}
			}
		}(c)
	}

	time.Sleep(100 * time.Millisecond)
	resp, body := postJSON(t, f.rts.URL+"/v1/admin/reload", ReloadRequest{Path: pathB})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-load rollout: status %d: %s", resp.StatusCode, body)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for i, s := range f.backends {
		if got := s.Epoch(); got != 2 {
			t.Fatalf("backend %d epoch = %d after rollout, want 2", i, got)
		}
	}
}
