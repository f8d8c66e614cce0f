package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dssddi/internal/serve"
)

// TestBenchmarkJSONMatchesSpecs checks that BENCHMARK.json names exactly
// the metrics a run reports, with the same units and directions.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the reported metrics\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the reported metrics\n%v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if rate := fmt.Sprintf("paced at %g req/s", workloads[i].pacedRate); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %s: why %q does not record its rate (%s)", w.Name, w.Why, rate)
		}
	}
}

func TestWithUnitsRejectsMissingMetric(t *testing.T) {
	values := map[string]float64{}
	for _, sp := range endToEnd[1:] {
		values[sp.Name] = 1
	}
	if _, err := withUnits(endToEnd, values); err == nil {
		t.Fatal("withUnits accepted a run missing setup_s")
	}
	values["setup_s"] = 1
	m, err := withUnits(endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range endToEnd {
		if m[sp.Name].Unit != sp.Unit {
			t.Errorf("%s: unit %q, want %q", sp.Name, m[sp.Name].Unit, sp.Unit)
		}
	}
}

// perturbOne moves the first score of a suggest body by one ulp.
func perturbOne(body []byte) []byte {
	var resp serve.SuggestResponse
	if json.Unmarshal(body, &resp) != nil || len(resp.Suggestions) == 0 {
		return body
	}
	resp.Suggestions[0].Score = math.Nextafter(resp.Suggestions[0].Score, math.Inf(1))
	out, err := json.Marshal(resp)
	if err != nil {
		return body
	}
	return out
}

// driveCold runs the cold-f64 traffic against a real in-process server
// whose nth suggest answer (0 = none) is perturbed, and returns the
// failures the oracle counted.
func driveCold(t *testing.T, snap string, nth int64) (attempted, failed int) {
	t.Helper()
	w, err := workloadByName("cold-f64")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(snap, w.precision)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := loadSystem(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(sys, serveConfig(w, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if seen.Add(1) == nth {
			body = perturbOne(body)
		}
		for k, v := range rec.Header() {
			rw.Header()[k] = v
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	}))
	defer ts.Close()

	r := &runner{w: w, seed: 5, o: o, origin: time.Now(), e: &env{control: ts.Client()}}
	s := r.newSession(&deployment{entry: ts.URL}, false, nil)
	defer s.close()
	s.add(closedLoop(s.c, "peak", r.streams(0), 200*time.Millisecond))
	if err := s.verify(); err != nil {
		t.Fatal(err)
	}
	return s.attempted, s.failed
}

func TestOracleCatchesOnePerturbedScore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "model.snap")
	if err := ensureModel(snap); err != nil {
		t.Fatal(err)
	}
	attempted, failed := driveCold(t, snap, 0)
	if attempted == 0 || failed != 0 {
		t.Fatalf("unmodified server: %d of %d requests failed, want 0 of >0", failed, attempted)
	}
	attempted, failed = driveCold(t, snap, 3)
	if failed != 1 {
		t.Fatalf("one answer perturbed by one ulp: %d of %d requests failed, want 1", failed, attempted)
	}
}
