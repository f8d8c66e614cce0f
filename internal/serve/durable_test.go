package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dssddi/internal/regproto"
	"dssddi/internal/wal"
)

// newDurableServer boots a WAL-backed server WITHOUT registering
// cleanup — crash tests abandon it deliberately (no Close, no final
// checkpoint), simulating a SIGKILL'd process whose only legacy is
// the WAL file.
func newDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(system(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func durableConfig(dir string) Config {
	return Config{WALPath: filepath.Join(dir, "registry.wal"), WALSync: "always"}
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
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
	resp, err := http.DefaultClient.Do(req)
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

// TestDurableCrashRecovery is the core zero-acknowledged-write-loss
// contract: register, patch and delete patients against a WAL-backed
// server, "crash" it (abandon without Close — no final checkpoint),
// boot a fresh server on the same WAL, and verify the recovered
// registry serves every acknowledged state: survivors GET 200 with
// their last acknowledged profile and suggest byte-identically to the
// pre-crash responses; the deleted patient stays deleted.
func TestDurableCrashRecovery(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	a, tsA := newDurableServer(t, cfg)
	_ = a // abandoned below: the crash keeps its WAL fd open, harmlessly

	type acked struct {
		regimen []int
		suggest []byte
	}
	want := map[string]acked{}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("crash-%d", i)
		regimen := []int{i % 5, 5 + i%7}
		resp, body := doJSON(t, http.MethodPut, tsA.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: regimen})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", id, resp.StatusCode, body)
		}
		want[id] = acked{regimen: regimen}
	}
	// Patch a few: recovery must serve the patched regimen, not the
	// original PUT.
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("crash-%d", i)
		regimen := []int{9 - i%3, 12 + i%9, 3}
		resp, body := doJSON(t, http.MethodPatch, tsA.URL+"/v1/patients/"+id, map[string]any{"regimen": regimen})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PATCH %s: %d %s", id, resp.StatusCode, body)
		}
		want[id] = acked{regimen: regimen}
	}
	// Delete one: recovery must not resurrect it.
	if resp, body := doJSON(t, http.MethodDelete, tsA.URL+"/v1/patients/crash-11", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, body)
	}
	delete(want, "crash-11")
	// Record the acknowledged suggest bytes for each survivor.
	for id, w := range want {
		resp, body := post(t, tsA.URL+"/v1/suggest", SuggestRequest{PatientID: id, K: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-crash suggest %s: %d %s", id, resp.StatusCode, body)
		}
		w.suggest = body
		want[id] = w
	}

	tsA.Close() // crash: no s.Close(), no final checkpoint

	b, tsB := newDurableServer(t, cfg)
	defer func() { tsB.Close(); b.Close() }()
	if got := b.patients.len(); got != len(want) {
		t.Fatalf("recovered %d patients, want %d", got, len(want))
	}
	if st := b.patients.store; st.recovered != len(want) {
		t.Fatalf("store.recovered = %d, want %d", st.recovered, len(want))
	}
	for id, w := range want {
		resp, body := get(t, tsB.URL+"/v1/patients/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-crash GET %s: %d %s", id, resp.StatusCode, body)
		}
		var pr PatientResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(pr.Regimen) != fmt.Sprint(w.regimen) {
			t.Fatalf("%s recovered regimen %v, want %v", id, pr.Regimen, w.regimen)
		}
		resp, body = post(t, tsB.URL+"/v1/suggest", SuggestRequest{PatientID: id, K: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-crash suggest %s: %d %s", id, resp.StatusCode, body)
		}
		if !bytes.Equal(body, w.suggest) {
			t.Fatalf("%s post-crash suggest diverged from the acknowledged bytes:\n pre: %s\npost: %s", id, w.suggest, body)
		}
	}
	if resp, _ := get(t, tsB.URL+"/v1/patients/crash-11"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted patient resurrected with status %d", resp.StatusCode)
	}
}

// TestCheckpointCompaction drives enough mutations to trip automatic
// checkpoints and verifies (a) the WAL actually shrank (compaction
// happened), (b) a post-compaction boot — which recovers from the
// checkpoint file plus a short log suffix — rebuilds a registry whose
// GETs and suggests are byte-identical to the pre-restart ones.
func TestCheckpointCompaction(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.CheckpointEvery = 8
	a, tsA := newDurableServer(t, cfg)

	const n = 30
	// Feature vectors must match the dataset's width; vary one slot so
	// the checkpoint round-trip is checked against distinct bit
	// patterns per patient.
	width := len(system(t).Data().Features(0))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ckpt-%d", i)
		features := make([]float64, width)
		features[i%width] = float64(i) * 0.25
		resp, body := doJSON(t, http.MethodPut, tsA.URL+"/v1/patients/"+id, PatientPutRequest{
			Regimen:  []int{i % 11, (i * 3) % 13},
			Features: features,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", id, resp.StatusCode, body)
		}
	}
	st := a.patients.store
	if st.checkpoints.Load() == 0 {
		t.Fatalf("no automatic checkpoint after %d mutations with CheckpointEvery=8", n)
	}
	if recs := st.log.Records(); recs >= n {
		t.Fatalf("WAL still holds %d records after compaction (want < %d)", recs, n)
	}
	if _, err := os.Stat(cfg.WALPath + ".ckpt"); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	pre := map[string][]byte{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ckpt-%d", i)
		_, body := post(t, tsA.URL+"/v1/suggest", SuggestRequest{PatientID: id, K: 3})
		pre[id] = body
	}
	tsA.Close() // crash again: checkpoint + WAL suffix is all that survives

	b, tsB := newDurableServer(t, cfg)
	defer func() { tsB.Close(); b.Close() }()
	if got := b.patients.len(); got != n {
		t.Fatalf("recovered %d patients, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ckpt-%d", i)
		resp, body := get(t, tsB.URL+"/v1/patients/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", id, resp.StatusCode, body)
		}
		var pr PatientResponse
		json.Unmarshal(body, &pr)
		if !pr.HasFeatures {
			t.Fatalf("%s lost its feature vector through checkpoint round-trip", id)
		}
		_, sbody := post(t, tsB.URL+"/v1/suggest", SuggestRequest{PatientID: id, K: 3})
		if !bytes.Equal(sbody, pre[id]) {
			t.Fatalf("%s suggest diverged across checkpointed restart", id)
		}
	}
}

// TestGracefulCloseCheckpoints: Close must leave a final checkpoint
// and an empty (reset) WAL, so a clean restart replays nothing.
func TestGracefulCloseCheckpoints(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	a, tsA := newDurableServer(t, cfg)
	for i := 0; i < 5; i++ {
		doJSON(t, http.MethodPut, fmt.Sprintf("%s/v1/patients/clean-%d", tsA.URL, i), PatientPutRequest{Regimen: []int{i}})
	}
	tsA.Close()
	if err := a.Close(); err != nil {
		t.Fatalf("graceful Close: %v", err)
	}
	if _, err := os.Stat(cfg.WALPath + ".ckpt"); err != nil {
		t.Fatalf("graceful Close left no checkpoint: %v", err)
	}

	b, tsB := newDurableServer(t, cfg)
	defer func() { tsB.Close(); b.Close() }()
	st := b.patients.store
	if st.log.Replayed() != 0 {
		t.Fatalf("clean restart replayed %d WAL records, want 0 (all state in the checkpoint)", st.log.Replayed())
	}
	if got := b.patients.len(); got != 5 {
		t.Fatalf("recovered %d patients from checkpoint, want 5", got)
	}
	for i := 0; i < 5; i++ {
		if resp, _ := get(t, fmt.Sprintf("%s/v1/patients/clean-%d", tsB.URL, i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("clean-%d not served after graceful restart", i)
		}
	}
}

// TestCloseReportsFailedCheckpoint: when the final checkpoint cannot be
// written, here because the WAL's directory is gone, Close returns the
// error instead of passing for a clean shutdown, and a second Close
// returns it again.
func TestCloseReportsFailedCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, ts := newDurableServer(t, durableConfig(dir))
	doJSON(t, http.MethodPut, ts.URL+"/v1/patients/lost-ckpt", PatientPutRequest{Regimen: []int{1}})
	ts.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close with the WAL directory removed returned nil")
	}
	if again := s.Close(); again == nil || again.Error() != err.Error() {
		t.Fatalf("second Close = %v, want %v", again, err)
	}
}

// TestCheckpointBytesFollowRecords: two registries holding the same 64
// records write identical checkpoint bytes, whatever order the records
// arrived in. With 64 records several shards hold more than one, so
// the bytes depend on how each shard lists its records.
func TestCheckpointBytesFollowRecords(t *testing.T) {
	checkpoint := func(order []int) []byte {
		t.Helper()
		cfg := durableConfig(t.TempDir())
		cfg.WALSync, cfg.CheckpointEvery = "off", -1
		s, ts := newDurableServer(t, cfg)
		for _, i := range order {
			url := fmt.Sprintf("%s/v1/patients/ck-%02d", ts.URL, i)
			if resp, body := doJSON(t, http.MethodPut, url, PatientPutRequest{Regimen: []int{i % 7, 7 + i%5}}); resp.StatusCode != http.StatusCreated {
				t.Fatalf("PUT ck-%02d: status %d: %s", i, resp.StatusCode, body)
			}
		}
		ts.Close()
		s.Close() // writes the final checkpoint
		buf, err := os.ReadFile(cfg.WALPath + ".ckpt")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	order := make([]int, 64)
	for i := range order {
		order[i] = i
	}
	shared := make(map[int]int)
	for _, i := range order {
		shared[regproto.ShardOf(fmt.Sprintf("ck-%02d", i))]++
	}
	if len(shared) == len(order) {
		t.Fatal("every record has a shard to itself; the test cannot see the order within a shard")
	}
	first := checkpoint(order)
	slices.Reverse(order)
	if second := checkpoint(order); !bytes.Equal(first, second) {
		t.Fatalf("the same 64 records wrote different checkpoints (%d vs %d bytes)", len(first), len(second))
	}
}

// TestCorruptWALRefusesBoot: interior damage in the WAL must refuse
// to start the server, not silently drop registered patients.
func TestCorruptWALRefusesBoot(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	_, tsA := newDurableServer(t, cfg)
	for i := 0; i < 6; i++ {
		doJSON(t, http.MethodPut, fmt.Sprintf("%s/v1/patients/c-%d", tsA.URL, i), PatientPutRequest{Regimen: []int{i}})
	}
	tsA.Close() // crash, WAL keeps all records

	raw, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04 // interior bit flip
	if err := os.WriteFile(cfg.WALPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(system(t), cfg)
	if err == nil {
		t.Fatal("New booted over a corrupt WAL")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not name the corruption", err)
	}

	// A torn tail, by contrast, must boot: truncate mid-record.
	fixed := append([]byte(nil), raw...)
	fixed[len(raw)/2] ^= 0x04 // undo the flip
	if err := os.WriteFile(cfg.WALPath, fixed[:len(fixed)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := New(system(t), cfg)
	if err != nil {
		t.Fatalf("New refused a torn-tail WAL: %v", err)
	}
	defer b.Close()
	if b.patients.store.log.TornBytes() == 0 {
		t.Fatal("torn tail not detected")
	}
	if got := b.patients.len(); got != 5 {
		t.Fatalf("recovered %d patients from torn WAL, want 5 (last record torn)", got)
	}
}

// TestCrashRestartHammer is the -race crash/restart proof: concurrent
// writers register and update patients against a WAL-backed server,
// the server is abandoned mid-traffic state (no Close), and a fresh
// boot on the same WAL must serve EVERY acknowledged write: each
// patient GETs 200 with its last acknowledged regimen and suggests
// inductively.
func TestCrashRestartHammer(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	_, tsA := newDurableServer(t, cfg)

	const writers, iters = 8, 15
	type last struct {
		regimen []int
	}
	ackMu := sync.Mutex{}
	acked := map[string]last{}
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				id := fmt.Sprintf("hammer-%d-%d", wid, it%5)
				regimen := []int{wid % 7, it % 11, (wid + it) % 13}
				resp, body := doJSON(t, http.MethodPut, tsA.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: regimen})
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
					t.Errorf("PUT %s: %d %s", id, resp.StatusCode, body)
					return
				}
				// Acknowledged: this exact regimen must survive the
				// crash (each id is owned by one sequential writer, so
				// the last ack per id is well-defined).
				ackMu.Lock()
				acked[id] = last{regimen: regimen}
				ackMu.Unlock()
			}
		}(wid)
	}
	wg.Wait()
	tsA.Close() // SIGKILL equivalent: no drain, no checkpoint, no WAL close

	b, tsB := newDurableServer(t, cfg)
	defer func() { tsB.Close(); b.Close() }()
	if got, want := b.patients.len(), len(acked); got != want {
		t.Fatalf("recovered %d patients, want %d", got, want)
	}
	for id, w := range acked {
		resp, body := get(t, tsB.URL+"/v1/patients/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("acknowledged patient %s lost: GET %d %s", id, resp.StatusCode, body)
		}
		var pr PatientResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(pr.Regimen) != fmt.Sprint(w.regimen) {
			t.Fatalf("%s recovered regimen %v, want last acknowledged %v", id, pr.Regimen, w.regimen)
		}
		if resp, body := post(t, tsB.URL+"/v1/suggest", SuggestRequest{PatientID: id, K: 4}); resp.StatusCode != http.StatusOK {
			t.Fatalf("recovered patient %s cannot suggest: %d %s", id, resp.StatusCode, body)
		}
	}
}

// TestCloseCheckpointRace: registrations racing a graceful Close. The
// final checkpoint snapshots the registry under the durable gate while
// writers keep landing; a registration acknowledged after that
// snapshot began goes to the freshly reset WAL instead. Either way,
// every 2xx-acknowledged registration must survive the restart —
// writes refused mid-shutdown (non-2xx) may be lost, acknowledged ones
// never. Run with -race: the hammer overlaps the checkpoint's
// snapshot scan with concurrent shard mutations.
func TestCloseCheckpointRace(t *testing.T) {
	for round := 0; round < 3; round++ {
		cfg := durableConfig(t.TempDir())
		a, tsA := newDurableServer(t, cfg)

		ackMu := sync.Mutex{}
		acked := map[string][]int{}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for wid := 0; wid < 6; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				for it := 0; ; it++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("race-%d-%d", wid, it)
					regimen := []int{wid % 7, it % 11}
					resp, _ := doJSON(t, http.MethodPut, tsA.URL+"/v1/patients/"+id, PatientPutRequest{Regimen: regimen})
					if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
						ackMu.Lock()
						acked[id] = regimen
						ackMu.Unlock()
					}
				}
			}(wid)
		}
		// Let the hammer build momentum, then Close concurrently with it:
		// the final checkpoint races in-flight registrations.
		for {
			ackMu.Lock()
			n := len(acked)
			ackMu.Unlock()
			if n >= 20 {
				break
			}
		}
		a.Close()
		close(stop)
		wg.Wait()
		tsA.Close()

		b, tsB := newDurableServer(t, cfg)
		for id, regimen := range acked {
			resp, body := get(t, tsB.URL+"/v1/patients/"+id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: acked registration %s lost across Close+restart: GET %d %s", round, id, resp.StatusCode, body)
			}
			var pr PatientResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(pr.Regimen) != fmt.Sprint(regimen) {
				t.Fatalf("round %d: %s recovered regimen %v, want acknowledged %v", round, id, pr.Regimen, regimen)
			}
		}
		tsB.Close()
		b.Close()
	}
}

// TestWALSyncPolicyFlagged: a bad sync policy string is a boot error,
// not a silent default.
func TestWALSyncPolicyRejected(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.WALSync = "sometimes"
	if _, err := New(system(t), cfg); err == nil {
		t.Fatal("New accepted an unknown WAL sync policy")
	}
	if _, err := wal.ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

// sameRecord compares two records field by field, telling a nil slice
// from an empty one and comparing floats by their bits (NaN included).
func sameRecord(a, b regproto.Record) bool {
	if a.ID != b.ID || a.Version != b.Version || a.Deleted != b.Deleted ||
		(a.Regimen == nil) != (b.Regimen == nil) || !slices.Equal(a.Regimen, b.Regimen) ||
		(a.Features == nil) != (b.Features == nil) || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if math.Float64bits(a.Features[i]) != math.Float64bits(b.Features[i]) {
			return false
		}
	}
	return true
}

// FuzzRegistryRecord feeds arbitrary WAL payloads to the record
// decoder. It must never panic, and a payload it accepts must decode
// to a record whose encoding decodes to an equal record and re-encodes
// to the same bytes. The seed corpus in
// testdata/fuzz/FuzzRegistryRecord holds a set record with features, a
// tombstone, an empty regimen, and a float count of 2^61, whose byte
// length once wrapped to 0 and panicked replay.
func FuzzRegistryRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, version uint64, payload []byte) {
		rec, err := decodeRecord(version, payload)
		if err != nil {
			return
		}
		enc := encodeRecord(rec)
		again, err := decodeRecord(version, enc)
		if err != nil {
			t.Fatalf("payload %x decoded to %+v, whose encoding %x does not decode: %v", payload, rec, enc, err)
		}
		if !sameRecord(rec, again) {
			t.Fatalf("payload %x: record %+v re-decoded as %+v", payload, rec, again)
		}
		if re := encodeRecord(again); !bytes.Equal(re, enc) {
			t.Fatalf("payload %x: encoding is not a fixed point: %x then %x", payload, enc, re)
		}
	})
}
