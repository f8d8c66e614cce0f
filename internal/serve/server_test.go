package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dssddi"
	"dssddi/internal/regproto"
)

var (
	sysOnce sync.Once
	testSys *dssddi.System
)

// system trains one small shared system for every server test.
func system(t testing.TB) *dssddi.System {
	t.Helper()
	sysOnce.Do(func() {
		data := dssddi.GenerateChronic(11, 50, 40)
		cfg := dssddi.DefaultConfig()
		cfg.DDIEpochs = 15
		cfg.MDEpochs = 25
		cfg.Hidden = 16
		sys := dssddi.New(cfg)
		if err := sys.Train(data); err != nil {
			panic(err)
		}
		testSys = sys
	})
	if testSys == nil {
		t.Fatal("shared test system failed to train")
	}
	return testSys
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(system(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
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

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func TestSuggestMatchesLibrary(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[0]

	resp, body := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SuggestResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Suggest(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Suggestions) != len(want) {
		t.Fatalf("got %d suggestions, want %d", len(got.Suggestions), len(want))
	}
	for i, sg := range want {
		g := got.Suggestions[i]
		if g.DrugID != sg.DrugID || g.DrugName != sg.DrugName || g.Score != sg.Score {
			t.Fatalf("suggestion %d diverged: %+v vs %+v", i, g, sg)
		}
	}
	if got.Regimen == nil {
		t.Fatal("regimen missing")
	}
}

func TestSuggestCacheHit(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[1]

	first, firstBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if first.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first call X-Cache = %q, want MISS", first.Header.Get("X-Cache"))
	}
	second, secondBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if second.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second call X-Cache = %q, want HIT", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cached body differs from computed body")
	}
}

// TestConcurrentBatchedSuggestMatchesSerial is the acceptance-critical
// test: under concurrent load (run with -race) the batched + cached
// server must return byte-identical suggestion payloads to the direct
// library path for every patient.
func TestConcurrentBatchedSuggestMatchesSerial(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{MaxBatch: 16, BatchWindow: 2 * time.Millisecond})

	patients := sys.Data().TestPatients()
	if len(patients) > 10 {
		patients = patients[:10]
	}
	// Serial ground truth via the library.
	wantRows := make(map[int][]float64, len(patients))
	for _, p := range patients {
		rows, err := sys.Scores([]int{p})
		if err != nil {
			t.Fatal(err)
		}
		wantRows[p] = rows[0]
	}

	const goroutines = 24
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := patients[(g+it)%len(patients)]
				resp, body := postQuiet(ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
				if resp == nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("patient %d: bad response %v: %s", p, resp, body)
					return
				}
				var got SuggestResponse
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- err
					return
				}
				want, err := sys.SuggestFromScores(wantRows[p], 4)
				if err != nil {
					errs <- err
					return
				}
				for i, sg := range want {
					g := got.Suggestions[i]
					if g.DrugID != sg.DrugID || g.Score != sg.Score {
						errs <- fmt.Errorf("patient %d suggestion %d diverged under load: %+v vs %+v", p, i, g, sg)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The load above must actually have exercised coalescing: far more
	// requests than Scores calls (cache hits also reduce batch calls,
	// so just assert the invariant requests >= batches).
	batches, requests := srv.epoch.Load().batcher.Stats()
	if batches == 0 || requests < batches {
		t.Fatalf("batching counters implausible: %d batches for %d requests", batches, requests)
	}
}

// postQuiet is post without *testing.T (for goroutines).
func postQuiet(url string, body any) (*http.Response, []byte) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func TestBatcherCoalesces(t *testing.T) {
	sys := system(t)
	b := newBatcher(sys, 32, 5*time.Millisecond, sys.Data().NumDrugs())
	defer b.Close()

	patients := sys.Data().TestPatients()[:8]
	var wg sync.WaitGroup
	rows := make([][]float64, len(patients))
	for i, p := range patients {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			row, err := b.Score(context.Background(), p)
			if err != nil {
				t.Error(err)
				return
			}
			rows[i] = row
		}(i, p)
	}
	wg.Wait()
	batches, requests := b.Stats()
	if requests != int64(len(patients)) {
		t.Fatalf("requests %d, want %d", requests, len(patients))
	}
	if batches >= requests {
		t.Fatalf("no coalescing: %d batches for %d requests", batches, requests)
	}
	for i, p := range patients {
		want, err := sys.Scores([]int{p})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want[0] {
			if rows[i][j] != want[0][j] {
				t.Fatalf("batched row for patient %d differs at col %d", p, j)
			}
		}
	}
}

func TestScoresEndpoint(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	patients := sys.Data().TestPatients()[:3]

	resp, body := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: patients})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ScoresResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Scores(patients)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Scores) != len(want) || got.Drugs != sys.Data().NumDrugs() {
		t.Fatalf("shape wrong: %d rows, %d drugs", len(got.Scores), got.Drugs)
	}
	for i := range want {
		for j := range want[i] {
			if got.Scores[i][j] != want[i][j] {
				t.Fatalf("score (%d,%d) differs", i, j)
			}
		}
	}

	// Validation: an out-of-range patient is unknown (404), a negative
	// one malformed (400), and oversized batches are rejected.
	if resp, body := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: []int{1 << 30}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range patient: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: []int{-1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("negative patient must 400")
	}
	if resp, _ := post(t, ts.URL+"/v1/scores", ScoresRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("empty patients must 400")
	}
	big := make([]int, 10_000)
	if resp, _ := post(t, ts.URL+"/v1/scores", ScoresRequest{Patients: big}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("oversized batch must 400")
	}
}

func TestExplainEndpoint(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[2]

	// Patient form must match the library's suggest-then-explain.
	resp, body := post(t, ts.URL+"/v1/explain", ExplainRequest{Patient: &p, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ExplainResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	suggs, err := sys.Suggest(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.ExplainSuggestions(suggs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text || got.SS != want.SS {
		t.Fatalf("explain diverged:\nserver %q\nlibrary %q", got.Text, want.Text)
	}

	// Drug-set form, plus cache behaviour (key is order-independent).
	r1, b1 := post(t, ts.URL+"/v1/explain", ExplainRequest{Drugs: []int{5, 2, 9}})
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("drug-set explain: %d %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, b2 := post(t, ts.URL+"/v1/explain", ExplainRequest{Drugs: []int{9, 5, 2}})
	if r2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("permuted drug set must hit the cache, got %q", r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached explain body differs")
	}

	if resp, _ := post(t, ts.URL+"/v1/explain", ExplainRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("empty explain request must 400")
	}
	if resp, _ := post(t, ts.URL+"/v1/explain", ExplainRequest{Drugs: []int{-1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("negative drug must 400")
	}
}

func TestAlertsEndpoint(t *testing.T) {
	sys := system(t)
	srv, ts := newTestServer(t, Config{})

	// Find a recorded antagonistic pair to guarantee an alert.
	ddi := sys.Data().Dataset().DDI
	el := ddi.Edges()
	var u, v int
	found := false
	for i := range el.U {
		if el.S[i] == -1 {
			u, v, found = el.U[i], el.V[i], true
			break
		}
	}
	if !found {
		t.Skip("no antagonistic edge in the synthetic graph")
	}
	resp, body := post(t, ts.URL+"/v1/alerts", AlertsRequest{Drugs: []int{u, v}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got AlertsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.ListAlerts) == 0 {
		t.Fatalf("antagonistic pair (%d,%d) produced no alert: %s", u, v, body)
	}
	if got.MaxSeverity != "critical" && got.MaxSeverity != "major" {
		t.Fatalf("recorded antagonism must tier major or critical, got %q", got.MaxSeverity)
	}
	if got.ListAlerts[0].Message == "" {
		t.Fatal("alert message empty")
	}

	// With a patient, the regimen screening section appears.
	p := sys.Data().TestPatients()[0]
	resp, body = post(t, ts.URL+"/v1/alerts", AlertsRequest{Drugs: []int{u, v}, Patient: &p})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Regimen == nil {
		t.Fatal("patient screening must include the regimen")
	}

	_ = srv
	if resp, _ := post(t, ts.URL+"/v1/alerts", AlertsRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("empty alerts request must 400")
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Model.Drugs != sys.Data().NumDrugs() {
		t.Fatalf("healthz payload wrong: %s", body)
	}
	if health.Model.DatasetSHA256 == "" {
		t.Fatal("healthz must expose the dataset digest")
	}

	// Drive one suggest so the counters move.
	p := sys.Data().TestPatients()[0]
	post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p})

	resp, body = get(t, ts.URL+"/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Endpoints["suggest"].Requests < 1 {
		t.Fatalf("suggest counter did not move: %s", body)
	}
	if m.Endpoints["healthz"].Requests < 1 {
		t.Fatal("healthz counter did not move")
	}
	if m.Batching.Requests < 1 {
		t.Fatal("batching counters did not move")
	}
}

func TestMethodEnforcement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/suggest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on suggest: %d", resp.StatusCode)
	}
}

func TestCacheDisabled(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{CacheSize: -1})
	p := sys.Data().TestPatients()[0]
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p})
		if resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("call %d: caching disabled must always MISS, got %q", i, resp.Header.Get("X-Cache"))
		}
	}
}

func TestZeroBatchWindowNeverWaits(t *testing.T) {
	sys := system(t)
	b := newBatcher(sys, 32, 0, sys.Data().NumDrugs())
	defer b.Close()
	p := sys.Data().TestPatients()[0]
	start := time.Now()
	if _, err := b.Score(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	// A lone request with no window must not sit in the collector; the
	// bound here is generous (scoring itself takes well under 50ms).
	if lat := time.Since(start); lat > 500*time.Millisecond {
		t.Fatalf("zero-window lone request took %v", lat)
	}
}

func TestScoreAfterCloseErrors(t *testing.T) {
	sys := system(t)
	b := newBatcher(sys, 4, 0, sys.Data().NumDrugs())
	b.Close()
	if _, err := b.Score(context.Background(), 0); err == nil {
		t.Fatal("Score after Close must error, not hang")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(4, 2)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if got := c.Len(); got > 4 {
		t.Fatalf("cache holds %d entries, cap 4", got)
	}
	if newLRUCache(0, 4) != nil {
		t.Fatal("zero capacity must disable the cache")
	}
	// nil cache is a valid always-miss cache.
	var nilCache *lruCache
	if _, ok := nilCache.Get("x"); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.Put("x", nil) // must not panic
}

// TestCacheControlNoCacheBypasses pins the cold-path benchmarking
// hook: a Cache-Control: no-cache request is recomputed every time,
// never reads the cache and never populates it — but returns the
// byte-identical body a cached request would.
func TestCacheControlNoCacheBypasses(t *testing.T) {
	sys := system(t)
	_, ts := newTestServer(t, Config{})
	p := sys.Data().TestPatients()[2]

	cold := func() (*http.Response, []byte) {
		buf, _ := json.Marshal(SuggestRequest{Patient: p, K: 4})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/suggest", bytes.NewReader(buf))
		req.Header.Set("Cache-Control", "no-cache")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}

	first, firstBody := cold()
	if first.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first no-cache call X-Cache = %q, want MISS", first.Header.Get("X-Cache"))
	}
	second, secondBody := cold()
	if second.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("second no-cache call X-Cache = %q, want MISS (nothing may be stored)", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cold responses must be identical")
	}

	// A normal request now misses (no-cache never populated the cache)
	// and then hits; the bodies all agree.
	warm1, warmBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if warm1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first cached-path call X-Cache = %q, want MISS", warm1.Header.Get("X-Cache"))
	}
	warm2, hitBody := post(t, ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: 4})
	if warm2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second cached-path call X-Cache = %q, want HIT", warm2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(firstBody, warmBody) || !bytes.Equal(warmBody, hitBody) {
		t.Fatal("cold, computed and cached bodies must be byte-identical")
	}
}

// TestServeRequestCycleAllocBudget gates the allocations of one full
// cold serve request — handler, batcher, fused scoring, response
// encoding — with caching bypassed and screening off. The budget
// includes the test's own recorder and request plumbing, so the
// serving path itself sits well below it.
func TestServeRequestCycleAllocBudget(t *testing.T) {
	const budget = 120
	sys := system(t)
	s, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	handler := s.Handler()

	p := sys.Data().TestPatients()[0]
	screen := false
	reqBody, _ := json.Marshal(SuggestRequest{Patient: p, K: 4, Screen: &screen})
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/suggest", bytes.NewReader(reqBody))
		req.Header.Set("Cache-Control", "no-cache")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	run() // warm pools
	got := testing.AllocsPerRun(20, run)
	if got > budget {
		t.Fatalf("cold serve request cycle allocates %.1f objects, budget %d", got, budget)
	}
	t.Logf("cold serve request cycle: %.1f allocs/op", got)
}

// TestRegistryWriteAllocBudget gates the allocations of registry
// writes through the handler: a PUT cycle on a volatile registry and
// on a WAL (fsync off), each with and without the router's
// X-Replicate echo, and a one-record replica apply on the WAL. Each
// body is marshalled inside the measured function. Each budget is at
// most 10% above the count measured when it was set (92, 95, 95 and 98
// allocations per PUT, 100 per apply; 96 to 104 under -race), so the
// write latencies cannot regress through the allocator unnoticed.
func TestRegistryWriteAllocBudget(t *testing.T) {
	sys := system(t)
	measure := func(name string, wal bool, budget float64, run func(http.Handler, int)) {
		t.Helper()
		cfg := Config{}
		if wal {
			cfg = Config{WALPath: filepath.Join(t.TempDir(), "registry.wal"), WALSync: "off"}
		}
		s, err := New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		handler := s.Handler()
		i := 0
		cycle := func() { i++; run(handler, i) }
		cycle() // warm pools
		got := testing.AllocsPerRun(20, cycle)
		if got > budget {
			t.Errorf("%s allocates %.1f objects, budget %.0f", name, got, budget)
		}
		t.Logf("%s: %.1f allocs/op", name, got)
	}
	serveOK := func(handler http.Handler, req *http.Request) {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK && w.Code != http.StatusCreated {
			t.Fatalf("%s %s: status %d: %s", req.Method, req.URL.Path, w.Code, w.Body.String())
		}
	}
	put := func(replicate bool) func(http.Handler, int) {
		return func(handler http.Handler, i int) {
			body, _ := json.Marshal(PatientPutRequest{Regimen: []int{i % 7, 8, 13}})
			req := httptest.NewRequest(http.MethodPut, "/v1/patients/alloc-budget", bytes.NewReader(body))
			if replicate {
				req.Header.Set(regproto.ReplicateHeader, "1")
			}
			serveOK(handler, req)
		}
	}
	measure("volatile PUT", false, 101, put(false))
	measure("volatile PUT with X-Replicate", false, 104, put(true))
	measure("WAL PUT", true, 104, put(false))
	measure("WAL PUT with X-Replicate", true, 107, put(true))
	measure("WAL replica apply", true, 110, func(handler http.Handler, i int) {
		body, _ := json.Marshal(regproto.ApplyRequest{Records: []regproto.Record{
			{ID: "alloc-budget", Version: uint64(i), Regimen: []int{i % 7, 8, 13}},
		}})
		serveOK(handler, httptest.NewRequest(http.MethodPost, "/v1/admin/registry/apply", bytes.NewReader(body)))
	})
}

// BenchmarkServeSuggestCold drives one full cold suggest request —
// handler, batcher, fused scoring, encode — per iteration, bypassing
// the result cache. `make profile` runs this under the CPU and heap
// profilers; it is the serve hot path minus the network stack.
func BenchmarkServeSuggestCold(b *testing.B) {
	sys := system(b)
	s, err := New(sys, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	handler := s.Handler()
	screen := false
	reqBody, _ := json.Marshal(SuggestRequest{Patient: sys.Data().TestPatients()[0], K: 4, Screen: &screen})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/suggest", bytes.NewReader(reqBody))
		req.Header.Set("Cache-Control", "no-cache")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}
