package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssddi/internal/obs"
	"dssddi/internal/regproto"
)

// Config tunes the router. Backends is required; everything else has
// serviceable defaults from fill.
type Config struct {
	// Backends is the fixed pool of dssddi-serve addresses
	// (host:port). The ring is built over exactly this set; health
	// ejection takes a member out of rotation without changing the
	// ring, so its keys spill deterministically to ring successors and
	// return when it recovers.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 128).
	VNodes int
	// ReplicationFactor is how many ring-ordered backends hold each
	// registered patient's record: the owner plus R-1 successors
	// (default 1 — a replica group of one, the owner alone).
	ReplicationFactor int
	// WriteQuorum is how many replica-group acknowledgements a registry
	// mutation needs before the router acknowledges it (default 1: the
	// acting owner's WAL-backed ack). The effective quorum is bounded
	// by the members actually in rotation — a permanently dead replica
	// degrades durability, it does not wedge writes.
	WriteQuorum int
	// ProbeInterval is the active health-check cadence (default 1s).
	ProbeInterval time.Duration
	// FailAfter ejects a backend after this many consecutive transport
	// failures (default 3).
	FailAfter int
	// Cooldown is how long an ejected backend sits out before a
	// half-open trial probe (default 2s).
	Cooldown time.Duration
	// MaxRetries bounds additional attempts after a transport failure
	// (default 2). Reads retry, and so do full-replace PUT and DELETE of
	// a registered patient, which converge to the same record when
	// replayed; PATCH merges and never retries.
	MaxRetries int
	// RetryBackoff is the initial backoff before a retry, doubling per
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// Timeout is the per-attempt client timeout (default 10s).
	Timeout time.Duration
	// RequestBudget bounds one routed request end to end: every
	// attempt and every backoff sleep spends from it, and each attempt
	// stamps the remaining budget onto the backend as X-Deadline-Ms so
	// batch waits are abandoned the moment the router has given up. A
	// client-supplied X-Deadline-Ms can only shrink the budget, never
	// extend it (default 2x Timeout).
	RequestBudget time.Duration

	// TraceSample is the fraction of routed requests recorded into the
	// /debug/tracez rings (0 = off). A sampled request's trace carries
	// one span per proxy attempt, annotated with the backend tried and
	// every retry/failover/ejection event along the way.
	TraceSample float64
	// TraceRing is the capacity of each tracez ring (default
	// obs.DefaultTraceRing).
	TraceRing int
	// SlowMs, when positive, logs a warning for every routed request
	// slower than this many milliseconds (requires Logger).
	SlowMs int
	// Logger, when non-nil, receives structured access and fleet event
	// logs (ejections, recoveries, rollouts).
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("router: no backends configured")
	}
	seen := make(map[string]bool, len(c.Backends))
	for _, b := range c.Backends {
		if b == "" {
			return fmt.Errorf("router: empty backend address")
		}
		if seen[b] {
			return fmt.Errorf("router: duplicate backend %q", b)
		}
		seen[b] = true
	}
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.ReplicationFactor > len(c.Backends) {
		c.ReplicationFactor = len(c.Backends)
	}
	if c.WriteQuorum <= 0 {
		c.WriteQuorum = 1
	}
	if c.WriteQuorum > c.ReplicationFactor {
		c.WriteQuorum = c.ReplicationFactor
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.RequestBudget <= 0 {
		c.RequestBudget = 2 * c.Timeout
	}
	return nil
}

// Router consistent-hashes patient keys over a health-checked backend
// pool and coordinates fleet-wide model rollouts.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	order    []string // sorted names: deterministic rollout order
	start    time.Time
	tracer   *obs.Tracer
	logger   *slog.Logger

	requests          atomic.Int64
	proxyErrors       atomic.Int64 // requests answered 502/503/504 by the router itself
	retriesTotal      atomic.Int64
	pinnedUnavailable atomic.Int64 // pinned-key 503s: the whole replica group is out of rotation
	deadlineExhausted atomic.Int64 // 504s: the request budget ran out before any backend answered
	rollouts          atomic.Int64
	rolloutFailures   atomic.Int64

	// Replication counters: replicaReads counts registered-patient
	// reads served by a non-owner group member; readRepairs counts
	// stale replicas refreshed by a failover read; quorumFailures
	// counts mutations refused because too few group members
	// acknowledged; antiEntropySyncs / antiEntropyRecords count
	// reconciliation rounds and the records they pushed. replLag is
	// the owner-ack to replica-ack fan-out latency distribution.
	replicaReads       atomic.Int64
	readRepairs        atomic.Int64
	quorumFailures     atomic.Int64
	replicationFanouts atomic.Int64
	antiEntropySyncs   atomic.Int64
	antiEntropyRecords atomic.Int64
	replLag            obs.Histogram

	reloadMu  sync.Mutex // serializes rollouts
	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	repairWG  sync.WaitGroup // in-flight async read repairs
}

// New builds a router over the configured backend pool and starts the
// active health prober. Backends start healthy — a down member is
// detected by the first probe (or proxied request) and ejected.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:       cfg,
		ring:      NewRing(cfg.VNodes),
		backends:  make(map[string]*backend, len(cfg.Backends)),
		start:     time.Now(),
		tracer:    obs.NewTracer(cfg.TraceSample, cfg.TraceRing),
		logger:    cfg.Logger,
		stopProbe: make(chan struct{}),
	}
	for _, name := range cfg.Backends {
		rt.ring.Add(name)
		rt.backends[name] = newBackend(name, cfg)
		rt.order = append(rt.order, name)
	}
	sort.Strings(rt.order)
	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober and waits out in-flight read repairs.
func (rt *Router) Close() {
	close(rt.stopProbe)
	rt.probeWG.Wait()
	rt.repairWG.Wait()
}

// probeLoop actively probes every backend's /healthz on the
// configured cadence. Healthy members are verified (keeping their
// failure streak at zero); ejected members get a half-open trial once
// their cooldown elapses.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-ticker.C:
			for _, name := range rt.order {
				b := rt.backends[name]
				switch {
				case b.health.Healthy():
					if rt.probe(b, "probe") {
						rt.noteSuccess(b)
					}
				case b.health.ProbeDue(time.Now()):
					rt.trial(b)
				}
			}
		}
	}
}

// trial is the half-open recovery probe for an ejected backend. Under
// replication, answering /healthz is not enough to rejoin: the member
// missed every write fanned out while it was gone (or lost its disk
// entirely), so it must reconcile via anti-entropy — and prove digest
// convergence — before it takes traffic again. A failed trial or a
// failed reconcile re-ejects for a fresh cooldown.
func (rt *Router) trial(b *backend) {
	if !rt.probe(b, "trial") {
		return
	}
	if rt.cfg.ReplicationFactor > 1 {
		if err := rt.reconcile(b); err != nil {
			b.reconcileFailures.Add(1)
			b.lastReconcileError.Store(err.Error())
			rt.noteFailure(b, "reconcile", err)
			return
		}
	}
	rt.noteSuccess(b)
}

// probe hits one backend's /healthz and records the epoch it reports.
// Any failure (transport, status or body) counts toward ejection under
// cause.
func (rt *Router) probe(b *backend, cause string) bool {
	var health struct {
		Epoch int64 `json:"epoch"`
	}
	if err := rt.call(b, "", http.MethodGet, "/healthz", nil, &health); err != nil {
		rt.noteFailure(b, cause, err)
		return false
	}
	b.epoch.Store(health.Epoch)
	return true
}

// maxControlBody bounds a control-plane answer; the largest is one
// shard of a registry sync (pull). It is a variable only so that a
// test can cross it without moving 64 MiB.
var maxControlBody int64 = 64 << 20

// call is the one control-plane round trip to a backend: method on
// endpoint, with in (when non-nil) as the JSON request body (a
// json.RawMessage goes out as is), and a 200's JSON body decoded into
// out (when non-nil). Any other status is the error "<endpoint>
// returned <status>", named by the endpoint's last path element. A
// transport failure also feeds b's health machine under cause; callers
// that count every failure themselves, or none, pass "".
func (rt *Router) call(b *backend, cause, method, endpoint string, in, out any) error {
	var reqBody io.Reader
	if in != nil {
		buf, ok := in.(json.RawMessage)
		if !ok {
			var err error
			if buf, err = json.Marshal(in); err != nil {
				return err
			}
		}
		reqBody = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, b.base+endpoint, reqBody)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		if cause != "" {
			rt.noteFailure(b, cause, err)
		}
		return err
	}
	defer resp.Body.Close()
	body := io.LimitReader(resp.Body, maxControlBody)
	defer io.Copy(io.Discard, body) // drained, the connection is reused
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %d", path.Base(endpoint), resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(body).Decode(out)
}

// noteFailure feeds one transport failure into the backend's health
// machine and logs the ejection when this failure caused one.
func (rt *Router) noteFailure(b *backend, cause string, err error) {
	if b.health.OnFailure(time.Now()) && rt.logger != nil {
		rt.logger.Warn("backend ejected", "backend", b.name, "cause", cause, "error", err)
	}
}

// noteSuccess feeds one success into the health machine and logs a
// half-open recovery when this success completed one.
func (rt *Router) noteSuccess(b *backend) {
	if b.health.OnSuccess() && rt.logger != nil {
		rt.logger.Info("backend recovered", "backend", b.name)
	}
}

// Handler returns the routed HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, p := range []string{"/v1/suggest", "/v1/scores", "/v1/explain", "/v1/alerts"} {
		mux.HandleFunc("POST "+p, rt.handleScoring)
	}
	mux.HandleFunc("/v1/patients/{id}", rt.handlePatients)
	mux.HandleFunc("POST /v1/admin/reload", rt.handleReload)
	mux.HandleFunc("GET /v1/admin/registry/verify", rt.handleRegistryVerify)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metricsz", rt.handleMetricsz)
	mux.Handle("/debug/tracez", rt.tracer.Handler("dssddi-router"))
	return rt.observe(mux)
}

// Tracer exposes the router's trace rings to tests.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// statusWriter captures the response status for the access log and
// trace without buffering the body.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// observe is the router's request middleware: it settles the request
// identity (accepting a well-formed client X-Request-Id, minting one
// otherwise) before any routing happens, so the same id is echoed on
// the response, forwarded to whichever backend ends up serving the
// request, and used for both tiers' tracez entries. Sampled requests
// additionally carry a trace that forward annotates with per-attempt
// spans.
func (rt *Router) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := obs.EnsureRequestID(r.Header)
		r.Header.Set(obs.RequestIDHeader, rid) // canonical form; forwarded to the backend
		w.Header().Set(obs.RequestIDHeader, rid)
		tr := rt.tracer.Start(rid, r.URL.Path)
		if tr != nil {
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(t0)
		rt.tracer.Finish(tr, status)
		if rt.logger == nil {
			return
		}
		if rt.cfg.SlowMs > 0 && dur >= time.Duration(rt.cfg.SlowMs)*time.Millisecond {
			rt.logger.Warn("slow request",
				"id", rid, "method", r.Method, "path", r.URL.Path,
				"status", status, "backend", sw.Header().Get("X-Backend"),
				"ms", float64(dur)/1e6, "slow_ms", rt.cfg.SlowMs)
			return
		}
		if rt.logger.Enabled(r.Context(), slog.LevelDebug) {
			rt.logger.Debug("request",
				"id", rid, "method", r.Method, "path", r.URL.Path,
				"status", status, "backend", sw.Header().Get("X-Backend"),
				"ms", float64(dur)/1e6)
		}
	})
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

// routeKey is the one routing rule of the scoring reads (suggest,
// scores, explain and alerts), checked in this order: a registered
// patient_id pins the request to that patient's replica group; else a
// dataset patient index (patient, or the first of patients) keys it,
// so one patient's reads all land on (and warm) one backend's caches;
// else the sorted drug set does; else patient 0. The decode is shallow
// and best-effort: full validation stays on the backends, and an
// undecodable body is still forwarded so the backend's 400 is the
// single source of truth for what a bad request looks like.
func routeKey(body []byte) (key string, pinned bool) {
	var probe struct {
		PatientID string `json:"patient_id"`
		Patient   *int   `json:"patient"`
		Patients  []int  `json:"patients"`
		Drugs     []int  `json:"drugs"`
	}
	json.Unmarshal(body, &probe)
	switch {
	case probe.PatientID != "":
		return registeredKey(probe.PatientID), true
	case probe.Patient != nil:
		return patientKey(*probe.Patient), false
	case len(probe.Patients) > 0:
		return patientKey(probe.Patients[0]), false
	case len(probe.Drugs) > 0:
		return drugsKey(probe.Drugs), false
	}
	return patientKey(0), false
}

// patientKey is the routing key for a dataset-index patient.
func patientKey(index int) string { return "i|" + strconv.Itoa(index) }

// registeredKey is the routing key for a registered patient id. It is
// the one key that carries state: the profile lives only on the key's
// replica group.
func registeredKey(id string) string { return "p|" + id }

func drugsKey(drugs []int) string {
	sorted := append([]int(nil), drugs...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, d := range sorted {
		parts[i] = strconv.Itoa(d)
	}
	return "d|" + strings.Join(parts, ",")
}

// readBody buffers the request body so it can be replayed on retry.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, regproto.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("reading request body: %v", err)})
		return nil, false
	}
	return body, true
}

// handleScoring routes suggest, scores, explain and alerts by routeKey.
func (rt *Router) handleScoring(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key, pinned := routeKey(body)
	rt.forward(w, r, body, key, pinned)
}

// handlePatients routes the registry endpoints at every replication
// factor: a GET is a pinned read of the patient's replica group, and
// any other method a mutation for the replicated write path. At R=1
// the group is the owner alone.
func (rt *Router) handlePatients(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if r.Method == http.MethodGet {
		rt.forward(w, r, body, registeredKey(id), true)
		return
	}
	rt.forwardReplicatedWrite(w, r, body, id)
}

// deadlineHeader is the propagated request budget (mirrors the
// backends' header): the router stamps each attempt's remaining
// milliseconds so backends abandon work the moment the router has
// moved on, and honors a client-sent value as an upper bound.
const deadlineHeader = "X-Deadline-Ms"

// routed is one request's routing decision: its trace, the backends
// that may answer it (owner first), whether it is pinned to them, and
// the deadline of its budget.
type routed struct {
	tr         *obs.Trace
	candidates []string
	pinned     bool
	deadline   time.Time
}

// route counts a routed request and settles where it may go and for
// how long. An un-pinned key may walk every ring successor of its
// owner, so an ejected backend's keys are served by its deterministic
// neighbor until it recovers. A pinned key (registry state lives on
// its replica group) stays within the group. When nothing can be tried
// — no backends, or a budget spent before the request arrived — route
// answers the request itself and returns false.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, key string, pinned bool) (routed, bool) {
	rt.requests.Add(1)
	candidates := rt.ring.Successors(key, rt.ring.Len())
	if len(candidates) == 0 {
		rt.proxyErrors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "router: no backends"})
		return routed{}, false
	}
	rt.backends[candidates[0]].routedKeys.Add(1)
	if pinned {
		candidates = candidates[:min(len(candidates), rt.cfg.ReplicationFactor)]
	}
	deadline, expired := rt.requestDeadline(r)
	if expired {
		rt.proxyErrors.Add(1)
		rt.deadlineExhausted.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "router: request deadline already expired"})
		return routed{}, false
	}
	return routed{tr: obs.FromContext(r.Context()), candidates: candidates, pinned: pinned, deadline: deadline}, true
}

// forward proxies one read to the backend owning key. A pinned key
// walks its replica group (forwardPinnedRead); any other walks the
// owner's ring successors through the attempt walk.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, key string, pinned bool) {
	rq, ok := rt.route(w, r, key, pinned)
	if !ok {
		return
	}
	if pinned {
		rt.forwardPinnedRead(w, r, rq, body, key)
		return
	}
	cr, b := rt.attempt(r, rq, body, 1+rt.cfg.MaxRetries, nil)
	if cr == nil {
		rt.writeUnrouted(w, rq, b)
		return
	}
	relayCaptured(w, cr, b.name)
}

// attempt is the owner-first retry walk: up to tries proxied attempts,
// each to the next in-rotation candidate after the last one that
// failed, with a doubling backoff before each retry and everything
// inside the request budget. When no candidate is in
// rotation (the whole pool just restarted, say), a pinned walk tries
// its next candidate anyway — a passive success flips it back to
// healthy faster than a probe — and an un-pinned walk stops after its
// first attempt. It returns the answer and the backend that gave it,
// or no answer and the last backend tried (nil if none was).
func (rt *Router) attempt(r *http.Request, rq routed, body []byte, tries int, extra http.Header) (*capturedResponse, *backend) {
	backoff := rt.cfg.RetryBackoff
	var last *backend
	cursor := 0
	for try := 0; try < tries; try++ {
		remaining := time.Until(rq.deadline)
		if remaining <= 0 {
			break
		}
		var b *backend
		for n := 0; n < len(rq.candidates); n++ {
			cand := rt.backends[rq.candidates[(cursor+n)%len(rq.candidates)]]
			if cand.health.Healthy() {
				b = cand
				cursor = (cursor + n) % len(rq.candidates)
				break
			}
		}
		if b == nil {
			if !rq.pinned && try > 0 {
				break // every successor tried or ejected
			}
			b = rt.backends[rq.candidates[cursor%len(rq.candidates)]]
		}

		if try > 0 {
			if backoff >= remaining {
				break // the budget would be spent sleeping
			}
			rq.tr.Eventf("retry %d: backoff %s then backend %s", try, backoff, b.name)
			time.Sleep(backoff)
			backoff *= 2
			b.retries.Add(1)
			rt.retriesTotal.Add(1)
			if remaining = time.Until(rq.deadline); remaining <= 0 {
				break
			}
		}
		if cr, err := rt.proxyCapture(r, rq.tr, b, body, remaining, extra); err == nil {
			return cr, b
		}
		last = b
		cursor++ // the next attempt starts at the following candidate
	}
	return nil, last
}

// writeUnrouted answers a request no backend answered. A pinned key
// whose whole group is out of rotation gets a 503 whose Retry-After is
// when a retry could plausibly succeed: the remainder of the owner's
// ejection cooldown. A spent budget gets a 504, and anything else a
// 502 naming the last backend tried.
func (rt *Router) writeUnrouted(w http.ResponseWriter, rq routed, last *backend) {
	rt.proxyErrors.Add(1)
	switch {
	case rq.pinned && !rt.anyHealthy(rq.candidates):
		owner := rt.backends[rq.candidates[0]]
		rt.pinnedUnavailable.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(owner.health.RetryAfter(time.Now())))
		writeJSON(w, http.StatusServiceUnavailable, apiError{
			Error: fmt.Sprintf("router: backend %s owning this patient is out of rotation", owner.name),
		})
	case time.Until(rq.deadline) <= 0:
		rt.deadlineExhausted.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "router: request budget exhausted"})
	case last == nil:
		writeJSON(w, http.StatusBadGateway, apiError{Error: "router: request failed"})
	default:
		writeJSON(w, http.StatusBadGateway, apiError{Error: fmt.Sprintf("router: backend %s unreachable", last.name)})
	}
}

// anyHealthy reports whether any named backend is in rotation.
func (rt *Router) anyHealthy(names []string) bool {
	for _, n := range names {
		if rt.backends[n].health.Healthy() {
			return true
		}
	}
	return false
}

// requestDeadline settles the request budget: the router's own budget,
// shrunk (never grown) by a client-sent X-Deadline-Ms. expired reports
// a budget that was spent before the request arrived.
func (rt *Router) requestDeadline(r *http.Request) (deadline time.Time, expired bool) {
	deadline = time.Now().Add(rt.cfg.RequestBudget)
	if h := r.Header.Get(deadlineHeader); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
			if ms <= 0 {
				return time.Time{}, true
			}
			if d := time.Now().Add(time.Duration(ms) * time.Millisecond); d.Before(deadline) {
				deadline = d
			}
		}
	}
	return deadline, false
}

// retryAfterSeconds renders a duration as a Retry-After value: whole
// seconds, rounded up, never below 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// capturedResponse is one backend response, buffered whole.
type capturedResponse struct {
	status int
	header http.Header
	body   []byte
}

// proxyCapture sends one attempt to one backend; it is the only way a
// routed request reaches one. It buffers the whole response before a
// byte reaches the client: once the status line is written the attempt
// cannot be retried, and a chunked body that dies mid-stream on the
// backend link would be re-terminated cleanly by our own server, so
// the client would read a truncated 2xx as if it were complete. A
// transport failure, a body that dies mid-read or one short of its
// Content-Length feeds the backend's health machine and returns an
// error for the caller to retry. Any HTTP response, 4xx and 5xx
// included, is a successful proxy. remaining is the request budget
// left: it caps the attempt timeout and is stamped onto the backend as
// X-Deadline-Ms, so the backend stops working the moment this
// attempt's clock runs out. extra headers (such as X-Replicate) are
// stamped onto the backend request.
func (rt *Router) proxyCapture(r *http.Request, tr *obs.Trace, b *backend, body []byte, remaining time.Duration, extra http.Header) (*capturedResponse, error) {
	b.requests.Add(1)
	url := b.base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	attemptTimeout := rt.cfg.Timeout
	if remaining < attemptTimeout {
		attemptTimeout = remaining
	}
	ctx, cancel := context.WithTimeout(r.Context(), attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, url, reader)
	if err != nil {
		b.errors.Add(1)
		return nil, err
	}
	copyProxyHeaders(req.Header, r.Header)
	for k, vs := range extra {
		req.Header[k] = vs
	}
	req.Header.Set(deadlineHeader, strconv.FormatInt(attemptTimeout.Milliseconds(), 10))
	t0 := time.Now()
	resp, err := b.client.Do(req)
	lat := time.Since(t0)
	if tr != nil {
		tr.SpanAt("proxy:"+b.name, t0, t0.Add(lat))
	}
	if err != nil {
		b.errors.Add(1)
		tr.Eventf("backend %s failed: %v", b.name, err)
		rt.noteFailure(b, "proxy", err)
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.ContentLength >= 0 && int64(len(raw)) != resp.ContentLength {
		err = fmt.Errorf("short body: %d of %d bytes", len(raw), resp.ContentLength)
	}
	if err != nil {
		b.errors.Add(1)
		tr.Eventf("backend %s body died mid-read: %v", b.name, err)
		rt.noteFailure(b, "proxy", err)
		return nil, err
	}
	b.lat.Observe(lat)
	rt.noteSuccess(b)
	tr.SetBackend(b.name)
	return &capturedResponse{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// relayCaptured writes a buffered backend response to the client.
func relayCaptured(w http.ResponseWriter, cr *capturedResponse, backendName string) {
	h := w.Header()
	for k, vs := range cr.header {
		if isHopByHop(k) {
			continue
		}
		h[k] = vs
	}
	h.Set("X-Backend", backendName)
	w.WriteHeader(cr.status)
	w.Write(cr.body)
}

// copyProxyHeaders forwards the request headers the backends care
// about: content negotiation, the Cache-Control bypass hook, and the
// request identity (observe settled X-Request-Id before routing, so
// the backend's trace carries the same id as the router's).
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "Cache-Control", "Accept-Encoding", obs.RequestIDHeader} {
		if v := src.Values(k); len(v) > 0 {
			dst[k] = v
		}
	}
}

func isHopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}
