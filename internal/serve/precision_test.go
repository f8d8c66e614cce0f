package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"dssddi"
)

// snapshotPath saves the shared test system to a temp file so servers
// and reference systems can load fresh, independent copies of it.
func snapshotPath(t *testing.T) string {
	t.Helper()
	sys := system(t)
	path := filepath.Join(t.TempDir(), "model.snap")
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

func loadSnapshot(t *testing.T, path string) *dssddi.System {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := dssddi.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPrecisionBootAndMemory boots the same snapshot at f64 and f32,
// and checks the precision surfaces end to end: the X-Precision
// response header, /healthz, and /metricsz explicit byte accounting —
// where the f64 model and registry embeddings must cost exactly twice
// their f32 counterparts — plus scores that track the f64 oracle.
func TestPrecisionBootAndMemory(t *testing.T) {
	path := snapshotPath(t)

	newServer := func(precision string) (*Server, *httptest.Server) {
		s, err := New(loadSnapshot(t, path), Config{SnapshotPath: path, Precision: precision})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts
	}
	_, ts64 := newServer("")
	_, ts32 := newServer("f32")

	// Same registered patient on both, so registry bytes compare.
	for _, ts := range []*httptest.Server{ts64, ts32} {
		if resp, body := do(t, http.MethodPut, ts.URL+"/v1/patients/carol", PatientPutRequest{Regimen: []int{1, 3, 5}}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register: %d %s", resp.StatusCode, body)
		}
	}

	suggest := func(ts *httptest.Server) (*http.Response, SuggestResponse) {
		resp, body := post(t, ts.URL+"/v1/suggest", SuggestRequest{PatientID: "carol", K: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("suggest: %d %s", resp.StatusCode, body)
		}
		var out SuggestResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}
	r64, got64 := suggest(ts64)
	r32, got32 := suggest(ts32)
	if p := r64.Header.Get("X-Precision"); p != "f64" {
		t.Fatalf("f64 server X-Precision %q", p)
	}
	if p := r32.Header.Get("X-Precision"); p != "f32" {
		t.Fatalf("f32 server X-Precision %q", p)
	}
	// The f32 scores track the f64 oracle: identical ranking on this
	// fixture and scores within a tolerance far looser than the
	// measured worst-case divergence.
	if len(got32.Suggestions) != len(got64.Suggestions) {
		t.Fatalf("suggestion count diverged: %d vs %d", len(got32.Suggestions), len(got64.Suggestions))
	}
	for i, s64 := range got64.Suggestions {
		s32 := got32.Suggestions[i]
		if s32.DrugID != s64.DrugID {
			t.Fatalf("rank %d drug diverged: f32 %d vs f64 %d", i, s32.DrugID, s64.DrugID)
		}
		if d := math.Abs(s32.Score - s64.Score); d > 1e-4 {
			t.Fatalf("rank %d score diverged by %g", i, d)
		}
	}

	metricsOf := func(ts *httptest.Server) Metrics {
		_, body := get(t, ts.URL+"/metricsz")
		var m Metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m64, m32 := metricsOf(ts64), metricsOf(ts32)
	if m64.Memory.Precision != "f64" || m32.Memory.Precision != "f32" {
		t.Fatalf("memory precision: %q / %q", m64.Memory.Precision, m32.Memory.Precision)
	}
	if m32.Memory.ModelBytes <= 0 || m64.Memory.ModelBytes != 2*m32.Memory.ModelBytes {
		t.Fatalf("model bytes f64 %d vs f32 %d, want exactly 2x", m64.Memory.ModelBytes, m32.Memory.ModelBytes)
	}
	if m32.Memory.RegistryEmbeddingBytes <= 0 || m64.Memory.RegistryEmbeddingBytes != 2*m32.Memory.RegistryEmbeddingBytes {
		t.Fatalf("registry bytes f64 %d vs f32 %d, want exactly 2x", m64.Memory.RegistryEmbeddingBytes, m32.Memory.RegistryEmbeddingBytes)
	}

	var health HealthResponse
	if _, body := get(t, ts32.URL+"/healthz"); true {
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
	}
	if health.Precision != "f32" {
		t.Fatalf("healthz precision %q, want f32", health.Precision)
	}

	// Hot reload flips the f32 server to f64: header follows, model
	// bytes return to the f64 footprint, and the patient still serves
	// the f64 server's exact answer.
	resp, body := post(t, ts32.URL+"/v1/admin/reload", ReloadRequest{Precision: "f64"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("f64 reload: %d %s", resp.StatusCode, body)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Precision != "f64" {
		t.Fatalf("reload precision %q", rr.Precision)
	}
	rBack, gotBack := suggest(ts32)
	if p := rBack.Header.Get("X-Precision"); p != "f64" {
		t.Fatalf("reloaded X-Precision %q", p)
	}
	if len(gotBack.Suggestions) != len(got64.Suggestions) {
		t.Fatalf("reloaded suggestion count %d", len(gotBack.Suggestions))
	}
	for i, s := range gotBack.Suggestions {
		if s.DrugID != got64.Suggestions[i].DrugID || math.Float64bits(s.Score) != math.Float64bits(got64.Suggestions[i].Score) {
			t.Fatalf("rank %d after f64 reload: %+v, want the f64 server's %+v", i, s, got64.Suggestions[i])
		}
	}
	if mBack := metricsOf(ts32); mBack.Memory.ModelBytes != m64.Memory.ModelBytes {
		t.Fatalf("model bytes after f64 reload %d, want the f64 server's %d", mBack.Memory.ModelBytes, m64.Memory.ModelBytes)
	}

	// Invalid precisions fail loudly: at boot and over the reload API.
	for _, bad := range []string{"f16", "int8-experimental"} {
		if _, err := New(loadSnapshot(t, path), Config{Precision: bad}); err == nil {
			t.Fatalf("New accepted precision %s", bad)
		}
	}
	for _, bad := range []string{"bf16", "int8-experimental"} {
		resp, _ = post(t, ts64.URL+"/v1/admin/reload", ReloadRequest{Precision: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("reload to %s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestPrecisionSwapHammer is satellite coverage for quantized hot
// reloads (run with -race): concurrent index and registry suggests
// while the snapshot is reloaded back and forth between f32 and f64.
// Every response must carry an X-Precision consistent with the
// precision its X-Epoch was published at, and a body bitwise equal to
// what a reference system quantized to that precision produces — so a
// request can never observe a half-switched model.
func TestPrecisionSwapHammer(t *testing.T) {
	path := snapshotPath(t)
	s, err := New(loadSnapshot(t, path), Config{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	regimen := []int{0, 2, 5}
	const regPatients = 3
	for i := 0; i < regPatients; i++ {
		id := fmt.Sprintf("prec-%d", i)
		if resp, body := do(t, http.MethodPut, ts.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: regimen}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: %d %s", id, resp.StatusCode, body)
		}
	}

	// Reference systems: fresh loads of the same snapshot, one per
	// precision. Quantization is deterministic, so the server's
	// reloaded copies must score bitwise identically to these.
	const k = 4
	refs := map[string]*dssddi.System{"f64": loadSnapshot(t, path), "f32": loadSnapshot(t, path)}
	if err := refs["f32"].SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	indexPatients := refs["f64"].Data().TestPatients()[:4]
	wantIndex := map[string]map[int][]dssddi.Suggestion{}
	wantReg := map[string][]dssddi.Suggestion{}
	for prec, ref := range refs {
		wantIndex[prec] = make(map[int][]dssddi.Suggestion, len(indexPatients))
		for _, p := range indexPatients {
			sg, err := ref.Suggest(p, k)
			if err != nil {
				t.Fatal(err)
			}
			wantIndex[prec][p] = sg
		}
		sg, err := ref.SuggestFor(dssddi.PatientProfile{Regimen: regimen}, k)
		if err != nil {
			t.Fatal(err)
		}
		wantReg[prec] = sg
	}

	// epochPrec maps each epoch id to the precision it was published
	// at. Epoch ids are sequential and the only reloader is this test,
	// so the mapping is stored before the epoch can go live.
	var epochPrec sync.Map
	epochPrec.Store(int64(1), "f64")
	precOf := func(epochHeader string) (string, error) {
		id, err := strconv.ParseInt(epochHeader, 10, 64)
		if err != nil {
			return "", fmt.Errorf("bad X-Epoch %q: %v", epochHeader, err)
		}
		v, ok := epochPrec.Load(id)
		if !ok {
			return "", fmt.Errorf("response on unknown epoch %d", id)
		}
		return v.(string), nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	check := func(resp *http.Response, body []byte, want func(prec string) []dssddi.Suggestion, label string) error {
		if resp == nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: dropped/failed request: %v %s", label, resp, body)
		}
		prec, err := precOf(resp.Header.Get("X-Epoch"))
		if err != nil {
			return err
		}
		if got := resp.Header.Get("X-Precision"); got != prec {
			return fmt.Errorf("%s: X-Precision %q on epoch %s published at %q", label, got, resp.Header.Get("X-Epoch"), prec)
		}
		var got SuggestResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !sameSuggestions(got.Suggestions, want(prec)) {
			return fmt.Errorf("%s: response not bitwise consistent with its epoch's %s model: %s", label, prec, body)
		}
		return nil
	}

	// Index readers: scores must match the reference at the epoch's
	// precision bitwise.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				p := indexPatients[(g+it)%len(indexPatients)]
				resp, body := postQuiet(ts.URL+"/v1/suggest", SuggestRequest{Patient: p, K: k})
				want := func(prec string) []dssddi.Suggestion { return wantIndex[prec][p] }
				if err := check(resp, body, want, "index"); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}

	// Registry readers: embeddings are re-quantized on every swap; the
	// response must match the reference SuggestFor at the precision.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				id := fmt.Sprintf("prec-%d", (g+it)%regPatients)
				resp, body := postQuiet(ts.URL+"/v1/suggest", SuggestRequest{PatientID: id, K: k})
				want := func(prec string) []dssddi.Suggestion { return wantReg[prec] }
				if err := check(resp, body, want, "registry"); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}

	// One writer re-registering the same regimen: registry writes and
	// their inline embeds race the precision swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 15; it++ {
			id := fmt.Sprintf("prec-%d", it%regPatients)
			r, b := doQuiet(http.MethodPut, ts.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: regimen})
			if r == nil || r.StatusCode != http.StatusOK && r.StatusCode != http.StatusCreated {
				fail(fmt.Errorf("writer: PUT %s failed: %v %s", id, r, b))
				return
			}
		}
	}()

	// Reloads run on the test goroutine, alternating f32 and f64; the
	// epoch->precision mapping is announced before each reload so no
	// reader can observe an unmapped epoch.
	const reloadCount = 6
	for i := 0; i < reloadCount; i++ {
		prec := "f32"
		if i%2 == 1 {
			prec = "f64"
		}
		epochPrec.Store(int64(i+2), prec)
		resp, body := post(t, ts.URL+"/v1/admin/reload", ReloadRequest{Precision: prec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: %d %s", i, resp.StatusCode, body)
		}
		var rr ReloadResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Epoch != int64(i+2) || rr.Precision != prec {
			t.Fatalf("reload %d: epoch %d precision %q, want %d %q", i, rr.Epoch, rr.Precision, i+2, prec)
		}
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
