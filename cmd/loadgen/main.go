// Command loadgen drives a running dssddi-serve instance with
// concurrent traffic and reports throughput and latency quantiles,
// optionally recording them in the shared benchfmt JSON schema next to
// the training benchmarks.
//
// Usage:
//
//	dssddi-serve -m model.snap -addr 127.0.0.1:8080 &
//	loadgen -addr 127.0.0.1:8080 -duration 10s -concurrency 32 -json BENCH_serve.json
//	loadgen -addr 127.0.0.1:8080 -cold -json BENCH_serve.json -append
//	loadgen -addr 127.0.0.1:8080 -mix -json BENCH_serve.json -append
//
// Patients are sampled uniformly from the model's cohort (discovered
// via /healthz), so cache hit rates reflect the -spread flag: the
// sampled patient pool size (0 = the whole cohort). With -cold every
// request targets a distinct patient and carries Cache-Control:
// no-cache, measuring the scoring path itself (recorded as
// "suggest-cold"). With -mix each client owns a registered patient and
// interleaves registry writes (PUT /v1/patients/{id}), inductive
// suggests by registered id, and cached index suggests — the online
// serving workload — recorded as the "patient-update" and
// "suggest-inductive" entries. -append merges entries into an existing
// report so the measurements live side by side; -strict exits non-zero
// on ANY failed request — non-2xx status or transport error
// (connection refused/reset, timeout) — which is how the hot-reload
// and rolling-reload smoke tests assert zero dropped requests under a
// mid-load model swap.
//
// With -cluster the target is a dssddi-router front tier instead of a
// single dssddi-serve: entries are recorded under cluster-prefixed
// names ("cluster-suggest", ...) so one report can hold both
// single-backend and fleet measurements, and the single-backend
// /metricsz enrichment is skipped (the router aggregates per-backend
// metrics in its own shape).
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dssddi/internal/benchfmt"
	"dssddi/internal/obs"
	"dssddi/internal/router"
	"dssddi/internal/serve"
)

type suggestRequest struct {
	Patient   int    `json:"patient,omitempty"`
	PatientID string `json:"patient_id,omitempty"`
	K         int    `json:"k,omitempty"`
}

type patientPutRequest struct {
	Regimen []int `json:"regimen"`
}

// opStats accumulates one operation class's counters and latencies.
// Transport errors (connection refused/reset, timeout — no HTTP
// response at all) are tracked separately from non-2xx statuses: a
// dropped connection during a rolling reload is exactly the failure
// -strict exists to catch, and lumping it into generic errors would
// let a zero-non-2xx assertion pass while requests were being dropped
// on the floor.
type opStats struct {
	op        string // operation-class label for request-id reporting
	mu        sync.Mutex
	requests  int64
	errors    int64
	transport int64 // subset of errors that never got a response
	statuses  map[string]int64
	lats      []int64
}

// observe records one request: status is the HTTP status code, or 0
// with transport=true when no response arrived at all.
func (s *opStats) observe(latNs int64, status int, transport bool) {
	s.mu.Lock()
	s.requests++
	key := strconv.Itoa(status)
	if transport {
		key = "transport"
	}
	if s.statuses == nil {
		s.statuses = make(map[string]int64)
	}
	s.statuses[key]++
	if transport || status < 200 || status >= 300 {
		s.errors++
		if transport {
			s.transport++
		}
	} else {
		s.lats = append(s.lats, latNs)
	}
	s.mu.Unlock()
}

// bench converts the accumulated samples into a ServeBench entry.
func (s *opStats) bench(name string, concurrency int, elapsed time.Duration) benchfmt.ServeBench {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.lats, func(i, j int) bool { return s.lats[i] < s.lats[j] })
	q := func(p float64) float64 {
		if len(s.lats) == 0 {
			return 0
		}
		return float64(s.lats[int(p*float64(len(s.lats)-1))]) / 1e6
	}
	var counts map[string]int
	if len(s.statuses) > 0 {
		counts = make(map[string]int, len(s.statuses))
		for k, v := range s.statuses {
			counts[k] = int(v)
		}
	}
	return benchfmt.ServeBench{
		Name:            name,
		Concurrency:     concurrency,
		Requests:        int(s.requests),
		Errors:          int(s.errors),
		TransportErrors: int(s.transport),
		StatusCounts:    counts,
		Seconds:         elapsed.Seconds(),
		RPS:             float64(s.requests-s.errors) / elapsed.Seconds(),
		P50Ms:           q(0.50),
		P90Ms:           q(0.90),
		P99Ms:           q(0.99),
	}
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "dssddi-serve address (host:port)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to drive load")
		concurrency = flag.Int("concurrency", 16, "concurrent client goroutines")
		k           = flag.Int("k", 4, "suggestion list length per request")
		spread      = flag.Int("spread", 0, "distinct patients to sample (0 = whole cohort)")
		seed        = flag.Int64("seed", 1, "patient sampling seed")
		jsonPath    = flag.String("json", "", "write a benchfmt report to this JSON file")
		cold        = flag.Bool("cold", false, "cold-path mode: walk distinct patients and send Cache-Control: no-cache, so every request is scored, not served from the result cache")
		mix         = flag.Bool("mix", false, "online mix mode: interleave registry writes, inductive suggests by registered id, and cached index suggests")
		strict      = flag.Bool("strict", false, "exit non-zero if ANY request fails — non-2xx status OR transport error (zero-drop assertion)")
		cluster     = flag.Bool("cluster", false, "cluster mode: the target is a dssddi-router front tier; entries are recorded with a cluster- prefix and backend-shape /metricsz enrichment is skipped")
		appendJSON  = flag.Bool("append", false, "merge the measurements into an existing -json report instead of overwriting it")
		maxErrRate  = flag.Float64("max-error-rate", -1, "exit non-zero if the overall failure rate exceeds this fraction (e.g. 0.05); negative disables — chaos runs use it to assert bounded degradation instead of -strict's zero tolerance")
		verifyEpoch = flag.Bool("verify-epoch", false, "hash every index-suggest response keyed by (patient, k, X-Epoch) and exit non-zero on any bitwise mismatch — the correctness-under-chaos assertion")
		verifyReg   = flag.Bool("verify-registry", false, "mix mode: after the run, re-read every registration the server acknowledged and exit non-zero if any is gone — the zero-lost-registration assertion; counts land in the report's replication section")
		entryPrefix = flag.String("entry-prefix", "", "extra prefix for recorded entry names (e.g. permakill-), so one report can hold several scenarios of the same mode without -append overwriting the earlier one")
		entrySuffix = flag.String("entry-suffix", "", "extra suffix for recorded entry names (e.g. -f32), so quantized passes record beside the f64 ones (suggest-cold vs suggest-cold-f32)")
	)
	flag.Parse()
	log.SetFlags(0)
	if *cold && *mix {
		log.Fatal("loadgen: -cold and -mix are mutually exclusive")
	}
	if *verifyReg && !*mix {
		log.Fatal("loadgen: -verify-registry requires -mix (it audits the mix's registrations)")
	}
	base := "http://" + *addr

	// Discover the cohort size (and prove the server is up). Retried:
	// a chaos-injected or mid-recovery target can drop one probe
	// without invalidating the whole run.
	var health struct {
		Model struct {
			Patients int `json:"patients"`
			Drugs    int `json:"drugs"`
		} `json:"model"`
	}
	var discoverErr error
	for attempt := 0; attempt < 10; attempt++ {
		health.Model.Patients, health.Model.Drugs = 0, 0
		discoverErr = getJSON(base+"/healthz", &health)
		if discoverErr == nil && health.Model.Patients > 0 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if discoverErr != nil {
		log.Fatalf("loadgen: %s unreachable: %v", base, discoverErr)
	}
	patients, drugs := health.Model.Patients, health.Model.Drugs
	if patients <= 0 {
		log.Fatalf("loadgen: server reports %d patients", patients)
	}
	pool := patients
	if *spread > 0 && *spread < pool {
		pool = *spread
	}

	mode := "cached"
	if *cold {
		mode = "cold"
	} else if *mix {
		mode = "mix"
	}
	if *cluster {
		mode = "cluster " + mode
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d clients, %v, %d-patient pool, %s mode against %s\n",
		*concurrency, *duration, pool, mode, base)

	var (
		wg        sync.WaitGroup
		next      int64      // cold mode: round-robin patient cursor
		nextMu    sync.Mutex // guards next
		suggest   opStats    // plain / cold suggests
		inductive opStats    // mix: suggests by registered id
		update    opStats    // mix: registry PUTs
		verifier  *epochVerifier
	)
	suggest.op, inductive.op, update.op = "suggest", "suggest-inductive", "patient-update"
	if *verifyEpoch {
		verifier = newEpochVerifier()
	}
	takeNext := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		v := next
		next++
		return int(v)
	}
	// ackedIDs[c] is client c's registered patient id once at least one
	// PUT for it was acknowledged — the set -verify-registry audits.
	// One slot per client, so no locking.
	ackedIDs := make([]string, *concurrency)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			client := &http.Client{Timeout: 10 * time.Second}
			regID := fmt.Sprintf("lg-%d-%d", *seed, c)
			registered := false
			for it := 0; time.Now().Before(deadline); it++ {
				switch {
				case *mix && (it%4 == 0 || !registered):
					// Registry write: register or replace this client's
					// patient with a fresh random regimen.
					reg := make([]int, 3+rng.Intn(6))
					for i := range reg {
						reg[i] = rng.Intn(drugs)
					}
					body, _ := json.Marshal(patientPutRequest{Regimen: reg})
					req, err := http.NewRequest(http.MethodPut, base+"/v1/patients/"+regID, bytes.NewReader(body))
					if err != nil {
						update.observe(0, 0, true)
						continue
					}
					req.Header.Set("Content-Type", "application/json")
					ok := issue(client, req, &update)
					registered = registered || ok
					if ok {
						ackedIDs[c] = regID
					}
				case *mix && it%2 == 1:
					// Inductive suggest by registered id.
					body, _ := json.Marshal(suggestRequest{PatientID: regID, K: *k})
					req, err := http.NewRequest(http.MethodPost, base+"/v1/suggest", bytes.NewReader(body))
					if err != nil {
						inductive.observe(0, 0, true)
						continue
					}
					req.Header.Set("Content-Type", "application/json")
					issue(client, req, &inductive)
				default:
					patient := rng.Intn(pool)
					if *cold {
						// Unique patients per request (until the pool
						// wraps), and the no-cache header keeps even
						// wrapped patients on the scoring path.
						patient = takeNext() % pool
					}
					body, _ := json.Marshal(suggestRequest{Patient: patient, K: *k})
					req, err := http.NewRequest(http.MethodPost, base+"/v1/suggest", bytes.NewReader(body))
					if err != nil {
						suggest.observe(0, 0, true)
						continue
					}
					req.Header.Set("Content-Type", "application/json")
					if *cold {
						req.Header.Set("Cache-Control", "no-cache")
					}
					var check responseCheck
					if verifier != nil {
						check = verifier.check(patient, *k)
					}
					issueVerified(client, req, &suggest, check)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Cluster measurements get their own entry names so a single
	// report can hold single-backend and fleet numbers side by side
	// (the cluster smoke's scaling assertion diffs the two).
	prefix := ""
	if *cluster {
		prefix = "cluster-"
	}
	prefix = *entryPrefix + prefix
	var benches []benchfmt.ServeBench
	if *mix {
		benches = append(benches,
			inductive.bench(prefix+"suggest-inductive"+*entrySuffix, *concurrency, elapsed),
			update.bench(prefix+"patient-update"+*entrySuffix, *concurrency, elapsed))
	} else {
		name := "suggest"
		if *cold {
			name = "suggest-cold"
		}
		benches = append(benches, suggest.bench(prefix+name+*entrySuffix, *concurrency, elapsed))
	}

	// Enrich with the server's own cache/batching counters. A router's
	// /metricsz aggregates per-backend stats in a different shape, so
	// cluster runs skip this rather than record misleading zeros.
	if !*cluster {
		var metrics serve.Metrics
		if err := getJSON(base+"/metricsz", &metrics); err == nil {
			for i := range benches {
				benches[i].CacheHitRate = metrics.SuggestCache.HitRate
				benches[i].AvgBatchSize = metrics.Batching.AvgBatchSize
				// The memory section is the server's explicit per-precision
				// byte accounting — the entry records what the run actually
				// served at and what it cost resident.
				benches[i].Precision = metrics.Memory.Precision
				benches[i].ModelBytes = metrics.Memory.ModelBytes
				benches[i].RegistryBytes = metrics.Memory.RegistryEmbeddingBytes
			}
			if metrics.Memory.Precision != "" {
				fmt.Fprintf(os.Stderr, "loadgen: server precision %s, model %d bytes resident, registry embeddings %d bytes\n",
					metrics.Memory.Precision, metrics.Memory.ModelBytes, metrics.Memory.RegistryEmbeddingBytes)
			}
		}
	}

	var totalReqs, totalErrs, totalTransport int64
	for _, b := range benches {
		totalReqs += int64(b.Requests)
		totalErrs += int64(b.Errors)
		totalTransport += int64(b.TransportErrors)
		fmt.Printf("%-24s %8.0f req/s  %6d reqs  %4d errs  %4d terrs  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  cache %4.1f%%  batch %.2f\n",
			b.Name, b.RPS, b.Requests, b.Errors, b.TransportErrors,
			b.P50Ms, b.P90Ms, b.P99Ms, 100*b.CacheHitRate, b.AvgBatchSize)
	}
	if *mix {
		// The cached index suggests of the mix are warm-up traffic, not
		// a recorded entry, but their failures still count.
		totalReqs += suggest.requests
		totalErrs += suggest.errors
		totalTransport += suggest.transport
	}
	// Failure-mix summary shared by -strict and -max-error-rate: which
	// codes failed, how often — "1483 errors" is unactionable, "503×1480
	// transport×3" names the behavior.
	breakdown := failureBreakdown(&suggest, &inductive, &update)
	if *strict && totalErrs > 0 {
		tracker.dump()
		log.Fatalf("loadgen: -strict: %d/%d requests failed (%d transport errors, %d non-2xx): %s",
			totalErrs, totalReqs, totalTransport, totalErrs-totalTransport, breakdown)
	}
	if misses := tracker.echoMisses(); *strict && misses > 0 {
		log.Fatalf("loadgen: -strict: %d responses missing or mismatching the X-Request-Id echo", misses)
	}
	if *maxErrRate >= 0 && totalReqs > 0 && float64(totalErrs) > *maxErrRate*float64(totalReqs) {
		tracker.dump()
		log.Fatalf("loadgen: -max-error-rate: %d/%d requests failed (%.1f%% > %.1f%% allowed): %s",
			totalErrs, totalReqs, 100*float64(totalErrs)/float64(totalReqs), 100**maxErrRate, breakdown)
	}
	if *maxErrRate < 0 && totalErrs > 0 && totalErrs*10 > totalReqs {
		tracker.dump()
		log.Fatalf("loadgen: %d/%d requests failed: %s", totalErrs, totalReqs, breakdown)
	}
	if verifier != nil && !verifier.report() {
		log.Fatal("loadgen: -verify-epoch: responses diverged within a single epoch")
	}

	// The replication section: loadgen's own registry audit plus the
	// router's replication counters. Gathered before the report is
	// written so a failing audit still leaves its evidence in the JSON.
	var repl *benchfmt.ReplicationStats
	var lostIDs []string
	if *verifyReg {
		repl = &benchfmt.ReplicationStats{}
		repl.VerifiedRegistrations, lostIDs = auditRegistrations(base, ackedIDs)
		repl.LostRegistrations = len(lostIDs)
		if *cluster {
			var rm router.Metrics
			if err := getJSON(base+"/metricsz", &rm); err != nil {
				log.Fatalf("loadgen: -verify-registry: scraping router metrics: %v", err)
			}
			repl.ReplicaReads = rm.ReplicaReads
			repl.ReadRepairs = rm.ReadRepairs
			repl.ReplicationFanouts = rm.ReplicationFanouts
			repl.QuorumFailures = rm.QuorumFailures
			repl.AntiEntropySyncs = rm.AntiEntropySyncs
			repl.AntiEntropyRecords = rm.AntiEntropyRecords
			repl.PinnedUnavailable = rm.PinnedUnavailable
		}
		fmt.Fprintf(os.Stderr, "loadgen: -verify-registry: %d acknowledged registrations re-read, %d lost\n",
			repl.VerifiedRegistrations, repl.LostRegistrations)
	}

	if *jsonPath != "" {
		rep := benchfmt.Report{
			Schema:       benchfmt.Schema,
			Profile:      "serve",
			GoMaxProcs:   runtime.GOMAXPROCS(0),
			Seed:         *seed,
			Serving:      benches,
			Replication:  repl,
			TotalSeconds: elapsed.Seconds(),
		}
		if *appendJSON {
			// Merge into an existing report (replacing same-named
			// entries), so one BENCH_serve.json carries the cached, cold
			// and mix measurements side by side. A missing file starts a
			// fresh report; an unreadable or foreign one is an error —
			// silently dropping the earlier entries would corrupt the
			// committed record.
			switch prev, err := os.ReadFile(*jsonPath); {
			case err == nil:
				var old benchfmt.Report
				if err := json.Unmarshal(prev, &old); err != nil {
					log.Fatalf("loadgen: -append: %s is not a benchfmt report: %v", *jsonPath, err)
				}
				if old.Schema != rep.Schema {
					log.Fatalf("loadgen: -append: %s has schema %q, want %q", *jsonPath, old.Schema, rep.Schema)
				}
				replaced := make(map[string]bool, len(benches))
				for _, b := range benches {
					replaced[b.Name] = true
				}
				merged := old.Serving[:0]
				for _, sb := range old.Serving {
					if !replaced[sb.Name] {
						merged = append(merged, sb)
					}
				}
				old.Serving = append(merged, benches...)
				old.TotalSeconds += elapsed.Seconds()
				if repl != nil {
					old.Replication = repl
				}
				rep = old
			case !os.IsNotExist(err):
				log.Fatalf("loadgen: -append: %v", err)
			}
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("loadgen: marshal report: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			log.Fatalf("loadgen: write %s: %v", *jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *jsonPath)
	}
	// The audit failure exits AFTER the report is written: the lost
	// count must land in the JSON so benchdiff's gate and the artifact
	// trail both see it.
	if len(lostIDs) > 0 {
		if len(lostIDs) > trackerKeep {
			lostIDs = lostIDs[:trackerKeep]
		}
		log.Fatalf("loadgen: -verify-registry: %d acknowledged registrations lost (first: %s)",
			repl.LostRegistrations, strings.Join(lostIDs, ", "))
	}
}

// auditRegistrations re-reads every acknowledged registration after
// the run. Each id gets a patient GET with retries — the fleet may
// still be healing from a mid-run crash — and counts as lost only if
// it never answers 200 within the retry budget. Returns the verified
// count and the lost ids.
func auditRegistrations(base string, ackedIDs []string) (verified int, lost []string) {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, id := range ackedIDs {
		if id == "" {
			continue // this client never got a PUT acknowledged
		}
		ok := false
		for attempt := 0; attempt < 40 && !ok; attempt++ {
			resp, err := client.Get(base + "/v1/patients/" + id)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
			if !ok {
				time.Sleep(250 * time.Millisecond)
			}
		}
		if ok {
			verified++
		} else {
			lost = append(lost, id)
		}
	}
	return verified, lost
}

// issue sends one request, draining and classifying the response;
// 2xx is success, a client.Do error is a transport error (the request
// never got an HTTP response).
func issue(client *http.Client, req *http.Request, stats *opStats) bool {
	return issueVerified(client, req, stats, nil)
}

// issueVerified is issue plus an optional response check: when check
// is non-nil the body is read in full (instead of discarded) and
// handed to it along with the response's X-Epoch stamp. Every request
// is stamped with a fresh X-Request-Id and the response's echo is
// verified, so a failed or slow request can be looked up by id in the
// server's /debug/tracez afterwards.
func issueVerified(client *http.Client, req *http.Request, stats *opStats, check responseCheck) bool {
	rid := obs.NewRequestID()
	req.Header.Set(obs.RequestIDHeader, rid)
	t0 := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(t0).Nanoseconds()
	if err != nil {
		stats.observe(lat, 0, true)
		tracker.noteFailed(stats.op, rid, "transport")
		return false
	}
	if echo := resp.Header.Get(obs.RequestIDHeader); echo != rid {
		tracker.noteEchoMiss()
	}
	ok := resp.StatusCode >= 200 && resp.StatusCode < 300
	if check != nil && ok {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			// The body died mid-read (mid-body drop): a transport error,
			// even though a status line arrived.
			stats.observe(lat, 0, true)
			tracker.noteFailed(stats.op, rid, "transport")
			return false
		}
		check(resp.Header.Get("X-Epoch"), body)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	stats.observe(lat, resp.StatusCode, false)
	if ok {
		tracker.noteSlow(stats.op, rid, lat)
	} else {
		tracker.noteFailed(stats.op, rid, strconv.Itoa(resp.StatusCode))
	}
	return ok
}

// reqRecord identifies one request for post-hoc trace lookup: its id
// can be pasted into /debug/tracez?id= on the router or backend.
type reqRecord struct {
	op    string
	id    string
	latNs int64
	cause string // failures: status code or "transport"
}

// idTracker remembers the request ids worth naming when an assertion
// fails: the slowest successes (sorted descending, bounded) and the
// first few failures, plus a count of responses whose X-Request-Id
// echo was missing or wrong.
type idTracker struct {
	mu       sync.Mutex
	slowest  []reqRecord
	failed   []reqRecord
	echoMiss int64
}

const trackerKeep = 5

var tracker idTracker

func (t *idTracker) noteSlow(op, id string, latNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slowest) == trackerKeep && latNs <= t.slowest[len(t.slowest)-1].latNs {
		return
	}
	i := sort.Search(len(t.slowest), func(i int) bool { return t.slowest[i].latNs < latNs })
	t.slowest = append(t.slowest, reqRecord{})
	copy(t.slowest[i+1:], t.slowest[i:])
	t.slowest[i] = reqRecord{op: op, id: id, latNs: latNs}
	if len(t.slowest) > trackerKeep {
		t.slowest = t.slowest[:trackerKeep]
	}
}

func (t *idTracker) noteFailed(op, id, cause string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.failed) < trackerKeep {
		t.failed = append(t.failed, reqRecord{op: op, id: id, cause: cause})
	}
}

func (t *idTracker) noteEchoMiss() {
	t.mu.Lock()
	t.echoMiss++
	t.mu.Unlock()
}

func (t *idTracker) echoMisses() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.echoMiss
}

// dump prints the remembered ids to stderr so a failing run names the
// traces to pull, instead of just a count.
func (t *idTracker) dump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.failed {
		fmt.Fprintf(os.Stderr, "loadgen: failed request  id=%s op=%s cause=%s\n", r.id, r.op, r.cause)
	}
	for _, r := range t.slowest {
		fmt.Fprintf(os.Stderr, "loadgen: slowest request id=%s op=%s lat=%.2fms\n", r.id, r.op, float64(r.latNs)/1e6)
	}
}

// responseCheck consumes one verified response's epoch stamp and body.
type responseCheck func(epoch string, body []byte)

// failureBreakdown renders the non-2xx status mix across operation
// classes, sorted by count descending ("503×1480, transport×3").
func failureBreakdown(all ...*opStats) string {
	merged := make(map[string]int64)
	for _, s := range all {
		s.mu.Lock()
		for code, n := range s.statuses {
			if code == "transport" || code[0] != '2' {
				merged[code] += n
			}
		}
		s.mu.Unlock()
	}
	if len(merged) == 0 {
		return "none"
	}
	type kv struct {
		code string
		n    int64
	}
	codes := make([]kv, 0, len(merged))
	for c, n := range merged {
		codes = append(codes, kv{c, n})
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i].n > codes[j].n })
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = fmt.Sprintf("%s×%d", c.code, c.n)
	}
	return strings.Join(parts, ", ")
}

// epochVerifier asserts the bitwise-consistency invariant under load:
// two 200s for the same (patient, k) carrying the same X-Epoch must
// be byte-identical, no matter which backend served them or what the
// network did in between. It stores one SHA-256 per key, so verifying
// a long chaos run costs a few KB, not the bodies themselves.
type epochVerifier struct {
	mu         sync.Mutex
	seen       map[string][sha256.Size]byte
	checked    int64
	mismatches []string // first few offending keys, for the error message
}

func newEpochVerifier() *epochVerifier {
	return &epochVerifier{seen: make(map[string][sha256.Size]byte)}
}

func (v *epochVerifier) check(patient, k int) responseCheck {
	return func(epoch string, body []byte) {
		if epoch == "" {
			return // not an epoch-stamped response; nothing to hold it to
		}
		key := fmt.Sprintf("%d|%d|%s", patient, k, epoch)
		sum := sha256.Sum256(body)
		v.mu.Lock()
		defer v.mu.Unlock()
		v.checked++
		if prev, ok := v.seen[key]; ok {
			if prev != sum && len(v.mismatches) < 8 {
				v.mismatches = append(v.mismatches, key)
			}
			return
		}
		v.seen[key] = sum
	}
}

// report prints the verification summary and returns false when the
// invariant was violated.
func (v *epochVerifier) report() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.mismatches) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: -verify-epoch: %d bitwise mismatches (patient|k|epoch): %s\n",
			len(v.mismatches), strings.Join(v.mismatches, ", "))
		return false
	}
	fmt.Fprintf(os.Stderr, "loadgen: -verify-epoch: %d responses over %d distinct (patient, k, epoch) keys, all bitwise-consistent\n",
		v.checked, len(v.seen))
	return true
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
