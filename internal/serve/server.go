// Package serve wraps a trained (typically snapshot-loaded)
// dssddi.System in a concurrent HTTP JSON API — the decision-support
// service the paper positions DSSDDI as. The model is immutable, but
// the serving state is generational: a hot reload builds a complete
// new epoch (system, batcher, caches, alerts) in the background and
// swaps one atomic pointer, so the model can be replaced with zero
// downtime — in-flight requests finish on the epoch they started
// with, and no request ever observes a half-loaded model.
//
// Endpoints:
//
//	POST   /v1/suggest          rank top-k drugs for a patient (dataset
//	                            index or registered id), with alerts
//	POST   /v1/scores           raw score rows for a set of patients
//	POST   /v1/explain          MS-module explanation for a drug set or patient
//	POST   /v1/alerts           severity-tiered DDI screening of a drug list
//	PUT    /v1/patients/{id}    register or replace a patient profile
//	PATCH  /v1/patients/{id}    update a registered regimen / features
//	GET    /v1/patients/{id}    read a registered profile
//	DELETE /v1/patients/{id}    remove a registered patient
//	POST   /v1/admin/reload     hot-swap the model from a snapshot file
//	GET    /healthz             liveness + model identity + epoch
//	GET    /metricsz            latency, cache, batching, registry counters
//
// Registered patients score through the inductive path: their
// embedding is computed on write, cached, and recomputed against the
// new model on hot reload, so an edited regimen is live on the next
// request. Malformed input is 400; a well-formed but unknown patient
// (index beyond the cohort, unregistered id) is 404.
//
// Concurrent /v1/suggest requests are coalesced by a micro-batching
// scorer into single score-matrix calls, and per-patient results are
// cached in a sharded LRU; both are response-invariant (bitwise) and
// exist purely for throughput. Every scoring response carries an
// X-Epoch header naming the epoch that produced it.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssddi"
	"dssddi/internal/alerts"
	"dssddi/internal/obs"
	"dssddi/internal/regproto"
)

var errServerClosed = errors.New("serve: server is shutting down")

// Config tunes the serving layer. The zero value gets sensible
// defaults from fill.
type Config struct {
	// MaxBatch bounds the patients coalesced into one score-matrix
	// call (default 64).
	MaxBatch int
	// BatchWindow is how long a lone request waits for company before
	// being scored solo. The zero value batches opportunistically —
	// coalescing whatever is already queued without ever waiting. That
	// is the right setting for the scoring engine: its work units are
	// independent (patient, drug tile) pairs, so a batch costs the sum
	// of its rows and holding a lone request only idles the core. A
	// positive window parks admitted requests, which tests use to fill
	// the admission queue.
	BatchWindow time.Duration
	// CacheSize is the total entries across the suggest and explain
	// result caches (default 4096; negative disables caching).
	CacheSize int
	// DefaultK is the suggestion list length when a request omits k
	// (default 4, the paper's headline cut-off). A requested k is
	// capped by the serving model's drug count.
	DefaultK int
	// SnapshotPath is the default snapshot file /v1/admin/reload (and
	// the SIGHUP / -watch wiring) reloads when a request names no
	// path. Empty leaves path-less reloads disabled.
	SnapshotPath string
	// Precision is the serving precision of the scoring engine: "f64"
	// (default, the accuracy oracle) or "f32" (float32 SIMD path, half
	// the resident model and registry-embedding bytes). Applied to the
	// booted system and to every hot-reloaded one, unless a reload
	// request overrides it.
	Precision string

	// WALPath enables the durable patient registry: every mutation is
	// write-ahead-logged to this file before it is acknowledged, and
	// the registry is rebuilt from checkpoint (WALPath + ".ckpt") + log
	// on boot. Empty keeps the registry RAM-only.
	WALPath string
	// WALSync is the fsync policy: "always" (every acknowledged write
	// survives power loss), "interval" (default; bounded loss on power
	// failure, none on process crash) or "off".
	WALSync string
	// WALSyncInterval is the flush cadence under "interval"
	// (default 100ms).
	WALSyncInterval time.Duration
	// CheckpointEvery is how many logged mutations trigger an
	// automatic checkpoint + log truncation (default 1024; negative
	// disables automatic compaction).
	CheckpointEvery int

	// TraceSample is the fraction of requests recorded into the
	// /debug/tracez rings (0 = tracing off, 1 = every request,
	// 0 < s < 1 = every round(1/s)-th). Un-sampled requests carry a nil
	// trace and pay nothing on the hot path.
	TraceSample float64
	// TraceRing is the capacity of each tracez ring — recent, slowest,
	// errored (default obs.DefaultTraceRing).
	TraceRing int
	// SlowMs, when positive, logs a warning for every request slower
	// than this many milliseconds (requires Logger).
	SlowMs int
	// Logger, when non-nil, receives structured access and event logs.
	// Per-request access lines are emitted at debug level; slow
	// requests, sheds and reloads at warn/info.
	Logger *slog.Logger

	// MaxInflight bounds concurrently executing requests per scoring
	// endpoint (suggest, scores, explain, alerts, patients); beyond it
	// requests wait in a bounded queue and past that they are shed
	// with an immediate 503 + Retry-After. Default 256; negative
	// disables admission control. healthz/metricsz/reload are never
	// limited, so probes and operators retain access under overload.
	MaxInflight int
	// MaxQueue bounds the per-endpoint wait queue (default 512).
	MaxQueue int
}

// cacheShards spreads each result cache's locking; maxScoreBatch caps
// the patients per /v1/scores request.
const (
	cacheShards   = 16
	maxScoreBatch = 256
)

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 4
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1024
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 512
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
}

// Server is the HTTP serving layer: an atomic pointer to the current
// serving epoch plus the epoch-independent patient registry and
// metrics.
type Server struct {
	cfg      Config
	metrics  *registry
	patients *patientRegistry
	start    time.Time
	tracer   *obs.Tracer
	logger   *slog.Logger

	// limits holds the per-endpoint admission limiters (nil entries
	// mean unlimited); deadlineTimeouts counts requests answered 504
	// because a propagated deadline expired.
	limits           map[string]*limiter
	deadlineTimeouts atomic.Int64

	epoch    atomic.Pointer[servingEpoch]
	epochSeq atomic.Int64
	reloads  atomic.Int64
	reloadMu sync.Mutex // serializes Swap / reload

	// precision is the serving precision applied to newly built epochs.
	// Written at New and — under reloadMu — when a reload request names
	// a different one; requests read the immutable copy on their pinned
	// epoch, never this field.
	precision string
}

// New builds a server over a trained system. It fails on an untrained
// system (nothing to serve) — load a snapshot or call Train first.
func New(sys *dssddi.System, cfg Config) (*Server, error) {
	data := sys.Data()
	if data == nil {
		return nil, fmt.Errorf("serve: system is not trained")
	}
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		metrics:  newRegistry("suggest", "scores", "explain", "alerts", "patients", "registry", "reload", "healthz", "metricsz"),
		patients: newPatientRegistry(),
		start:    time.Now(),
		tracer:   obs.NewTracer(cfg.TraceSample, cfg.TraceRing),
		logger:   cfg.Logger,
	}
	s.limits = make(map[string]*limiter, 5)
	for _, name := range []string{"suggest", "scores", "explain", "alerts", "patients"} {
		s.limits[name] = newLimiter(cfg.MaxInflight, cfg.MaxQueue)
	}
	if err := dssddi.ValidatePrecision(cfg.Precision); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.precision = cfg.Precision
	ep, err := s.newEpoch(sys, cfg.Precision)
	if err != nil {
		return nil, err
	}
	if cfg.WALPath != "" {
		store, derr := openDurableStore(s.cfg, s.patients)
		if derr != nil {
			ep.unref()
			return nil, derr
		}
		s.patients.store = store
		// Recovered profiles re-embed against the booted model the same
		// way a hot reload re-embeds the live registry: every recovered
		// patient is scoring-ready before the first request.
		s.patients.reembedAll(ep)
	}
	s.epoch.Store(ep)
	return s, nil
}

// Close retires the current epoch; its batching collector stops once
// the last in-flight request completes. Subsequent requests get 503.
// reloadMu excludes a concurrent Swap from republishing an epoch (and
// leaking its batcher) after the close. With a durable registry, Close
// also writes a final checkpoint and fsync-closes the WAL, so a clean
// shutdown restarts from the checkpoint alone with an empty log, and
// returns the error of either step; a later Close returns it again.
func (s *Server) Close() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if ep := s.epoch.Swap(nil); ep != nil {
		ep.unref()
	}
	if st := s.patients.store; st != nil {
		if err := st.shutdown(s.patients); err != nil {
			return fmt.Errorf("serve: closing durable registry: %w", err)
		}
	}
	return nil
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/suggest", s.instrument("suggest", http.MethodPost, s.handleSuggest))
	mux.HandleFunc("/v1/scores", s.instrument("scores", http.MethodPost, s.handleScores))
	mux.HandleFunc("/v1/explain", s.instrument("explain", http.MethodPost, s.handleExplain))
	mux.HandleFunc("/v1/alerts", s.instrument("alerts", http.MethodPost, s.handleAlerts))
	mux.HandleFunc("PUT /v1/patients/{id}", s.instrument("patients", http.MethodPut, s.handlePatientPut))
	mux.HandleFunc("PATCH /v1/patients/{id}", s.instrument("patients", http.MethodPatch, s.handlePatientPatch))
	mux.HandleFunc("GET /v1/patients/{id}", s.instrument("patients", http.MethodGet, s.handlePatientGet))
	mux.HandleFunc("DELETE /v1/patients/{id}", s.instrument("patients", http.MethodDelete, s.handlePatientDelete))
	mux.HandleFunc("/v1/admin/reload", s.instrument("reload", http.MethodPost, s.handleReload))
	mux.HandleFunc("/v1/admin/registry/apply", s.instrument("registry", http.MethodPost, s.handleRegistryApply))
	mux.HandleFunc("/v1/admin/registry/digest", s.instrument("registry", http.MethodGet, s.handleRegistryDigest))
	mux.HandleFunc("/v1/admin/registry/sync", s.instrument("registry", http.MethodPost, s.handleRegistrySync))
	mux.HandleFunc("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/metricsz", s.instrument("metricsz", http.MethodGet, s.handleMetricsz))
	mux.Handle("/debug/tracez", s.tracer.Handler("dssddi-serve"))
	return mux
}

// Tracer exposes the server's trace rings (tests and the router's
// in-process harness look up traces by request id through it).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// instrument wraps a handler with method enforcement, deadline
// derivation, admission control, epoch acquisition, timing and error
// counting. Order matters: a request is shed or rejected as expired
// BEFORE it pins an epoch or touches the batcher, so overload and
// dead-on-arrival requests cost a few channel operations, not scoring
// capacity. The epoch is pinned for the whole request — model,
// batcher, caches and alerts all come from it — and named in the
// X-Epoch response header.
func (s *Server) instrument(name, method string, h func(http.ResponseWriter, *http.Request, *servingEpoch) int) http.HandlerFunc {
	stats := s.metrics.get(name)
	lim := s.limits[name] // nil for unlimited endpoints
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := obs.EnsureRequestID(r.Header)
		w.Header().Set(obs.RequestIDHeader, rid)
		tr := s.tracer.Start(rid, r.URL.Path)
		var status int
		if r.Method != method {
			status = http.StatusMethodNotAllowed
			writeJSON(w, status, apiError{Error: fmt.Sprintf("method %s not allowed; use %s", r.Method, method)})
		} else {
			status = s.serveAdmitted(w, r, lim, tr, h)
		}
		dur := time.Since(t0)
		stats.observe(dur, status >= 400)
		s.tracer.Finish(tr, status)
		s.logRequest(r, rid, name, status, dur)
	}
}

// logRequest emits the structured access log for one finished
// request: every request at debug level, plus a warn line for
// requests slower than -slow-ms. A nil logger silences both.
func (s *Server) logRequest(r *http.Request, rid, endpoint string, status int, dur time.Duration) {
	if s.logger == nil {
		return
	}
	if s.cfg.SlowMs > 0 && dur >= time.Duration(s.cfg.SlowMs)*time.Millisecond {
		s.logger.Warn("slow request",
			"id", rid, "endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"status", status, "ms", float64(dur)/1e6, "slow_ms", s.cfg.SlowMs)
		return
	}
	if s.logger.Enabled(r.Context(), slog.LevelDebug) {
		s.logger.Debug("request",
			"id", rid, "endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"status", status, "ms", float64(dur)/1e6)
	}
}

// serveAdmitted runs the deadline + admission + epoch pipeline around
// one handler invocation. A sampled request's trace records the
// admission-queue wait as the "queue" span, is tagged with the epoch
// that answered, and rides the request context into the handler (and
// from there into the batching collector).
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request, lim *limiter, tr *obs.Trace, h func(http.ResponseWriter, *http.Request, *servingEpoch) int) int {
	ctx, cancel, expired := requestContext(r)
	if expired {
		return s.writeDeadlineExceeded(w)
	}
	if cancel != nil {
		defer cancel()
		r = r.WithContext(ctx)
	}
	qStart := tr.Start() // zero-valued (and unused) when not sampled
	release, lstatus := lim.acquire(ctx)
	switch lstatus {
	case http.StatusServiceUnavailable:
		tr.Eventf("shed: inflight and queue full")
		return writeShed(w)
	case http.StatusGatewayTimeout:
		tr.Eventf("deadline expired in admission queue")
		return s.writeDeadlineExceeded(w)
	}
	defer release()
	if tr != nil {
		tr.Span("queue", qStart)
		// context.WithValue allocates, so only sampled requests attach
		// their trace; everyone else keeps the original context and the
		// batcher sees a nil trace.
		r = r.WithContext(obs.NewContext(r.Context(), tr))
	}
	ep := s.acquireEpoch()
	if ep == nil {
		return writeJSON(w, http.StatusServiceUnavailable, apiError{Error: errServerClosed.Error()})
	}
	defer ep.unref()
	tr.SetEpoch(ep.id)
	w.Header().Set("X-Epoch", strconv.FormatInt(ep.id, 10))
	w.Header().Set("X-Precision", ep.precision)
	return h(w, r, ep)
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	writeBody(w, status, buf)
	return status
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// encBufPool recycles the JSON encoding buffers of the hot handlers,
// so a cache-bypassing (cold) request does not allocate a fresh body
// buffer per response.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeBody marshals v into a pooled buffer. The returned bytes
// belong to the buffer: write/copy them, then release with
// putEncBuf. (json.Encoder terminates the body with a newline;
// cached and fresh responses both carry it, so the two are
// byte-identical.)
func encodeBody(v any) (*bytes.Buffer, []byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		encBufPool.Put(buf)
		return nil, nil, err
	}
	return buf, buf.Bytes(), nil
}

func putEncBuf(buf *bytes.Buffer) { encBufPool.Put(buf) }

// bypassCache honors the standard Cache-Control request header: a
// no-cache (or no-store) request is answered from the model and
// neither read from nor stored in the result caches — the cold-path
// benchmarking hook used by loadgen -cold.
func bypassCache(r *http.Request) bool {
	cc := r.Header.Get("Cache-Control")
	return strings.Contains(cc, "no-cache") || strings.Contains(cc, "no-store")
}

func badRequest(w http.ResponseWriter, format string, args ...any) int {
	return writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(format, args...)})
}

func notFound(w http.ResponseWriter, format string, args ...any) int {
	return writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, regproto.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		badRequest(w, "invalid request body: %v", err)
		return false
	}
	return true
}

// checkPatient classifies a dataset patient index. A negative index is
// a malformed request (400); an index beyond the cohort is well-formed
// but names no known patient (404). The score kernels index matrices
// directly, so this is the only line between a typo'd request and a
// panic in a worker goroutine.
func (ep *servingEpoch) checkPatient(w http.ResponseWriter, p int) (int, bool) {
	if p < 0 {
		return badRequest(w, "patient index %d is negative", p), false
	}
	if p >= ep.data.NumPatients() {
		return notFound(w, "patient %d not in cohort [0, %d)", p, ep.data.NumPatients()), false
	}
	return 0, true
}

func (ep *servingEpoch) validDrug(d int) error {
	if d < 0 || d >= ep.data.NumDrugs() {
		return fmt.Errorf("drug %d out of range [0, %d)", d, ep.data.NumDrugs())
	}
	return nil
}

// SuggestRequest is the /v1/suggest body: a dataset patient index, or
// the id of a patient registered via PUT /v1/patients/{id}.
type SuggestRequest struct {
	Patient   int    `json:"patient"`
	PatientID string `json:"patient_id,omitempty"`
	K         int    `json:"k,omitempty"`
	// Screen toggles alert screening (default true).
	Screen *bool `json:"screen,omitempty"`
}

// SuggestionOut is one ranked suggestion plus its regimen screening.
type SuggestionOut struct {
	DrugID   int            `json:"drug_id"`
	DrugName string         `json:"drug_name"`
	Score    float64        `json:"score"`
	Alerts   []alerts.Alert `json:"alerts,omitempty"`
}

// SuggestResponse is the /v1/suggest payload. Patient is -1 (and
// PatientID set) when the request addressed a registered patient.
type SuggestResponse struct {
	Patient     int             `json:"patient"`
	PatientID   string          `json:"patient_id,omitempty"`
	K           int             `json:"k"`
	Regimen     []int           `json:"regimen"`
	Suggestions []SuggestionOut `json:"suggestions"`
	// ListAlerts screens the suggested drugs against each other.
	ListAlerts []alerts.Alert `json:"list_alerts,omitempty"`
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	var req SuggestRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	k := req.K
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	if k > ep.data.NumDrugs() {
		return badRequest(w, "k %d exceeds maximum %d", k, ep.data.NumDrugs())
	}
	screen := req.Screen == nil || *req.Screen
	nocache := bypassCache(r)

	if req.PatientID != "" {
		if req.Patient != 0 {
			return badRequest(w, "pass either patient or patient_id, not both")
		}
		return s.suggestRegistered(w, r, ep, req.PatientID, k, screen, nocache)
	}
	if status, ok := ep.checkPatient(w, req.Patient); !ok {
		return status
	}

	tr := obs.FromContext(r.Context())
	key := "s|" + strconv.Itoa(req.Patient) + "|" + strconv.Itoa(k) + "|" + strconv.FormatBool(screen)
	if !nocache {
		var cStart time.Time
		if tr != nil {
			cStart = time.Now()
		}
		body, ok := ep.suggestCache.Get(key)
		tr.Span("cache", cStart)
		if ok {
			tr.Eventf("cache hit")
			w.Header().Set("X-Cache", "HIT")
			writeBody(w, http.StatusOK, body)
			return http.StatusOK
		}
	}

	row, err := ep.batcher.Score(r.Context(), req.Patient)
	if err != nil {
		if isDeadlineErr(err) {
			return s.writeDeadlineExceeded(w)
		}
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
	suggs, err := ep.sys.SuggestFromScores(row, k)
	ep.batcher.PutRow(row) // suggestions hold copies; recycle the row
	if err != nil {
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
	resp := SuggestResponse{Patient: req.Patient, K: k, Regimen: ep.data.Medications(req.Patient)}
	return s.finishSuggest(w, ep, tr, resp, suggs, screen, nocache, key)
}

// suggestRegistered serves a registered patient through the inductive
// path: the cached (epoch-tagged) embedding scores through the tiled
// top-k engine, never the index batcher.
func (s *Server) suggestRegistered(w http.ResponseWriter, r *http.Request, ep *servingEpoch, id string, k int, screen, nocache bool) int {
	if err := validPatientID(id); err != nil {
		return badRequest(w, "%v", err)
	}
	tr := obs.FromContext(r.Context())
	emb, gen, regimen, found, err := s.patients.embeddingFor(ep, id)
	if !found {
		return notFound(w, "patient %q is not registered", id)
	}
	if err != nil {
		// The profile no longer embeds under the current model (e.g. a
		// hot reload changed the cohort shape). The registration is
		// kept; the conflict is reported until the profile or model is
		// fixed.
		return writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("patient %q cannot be embedded under the current model: %v", id, err)})
	}

	key := "r|" + id + "|" + strconv.FormatUint(gen, 10) + "|" + strconv.Itoa(k) + "|" + strconv.FormatBool(screen)
	if !nocache {
		if body, ok := ep.suggestCache.Get(key); ok {
			w.Header().Set("X-Cache", "HIT")
			writeBody(w, http.StatusOK, body)
			return http.StatusOK
		}
	}
	suggs, err := ep.sys.SuggestForEmbedding(emb, k)
	if err != nil {
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
	resp := SuggestResponse{Patient: -1, PatientID: id, K: k, Regimen: regimen}
	return s.finishSuggest(w, ep, tr, resp, suggs, screen, nocache, key)
}

// finishSuggest screens, encodes, caches and writes a suggest
// response — the shared tail of the index and registry paths.
func (s *Server) finishSuggest(w http.ResponseWriter, ep *servingEpoch, tr *obs.Trace, resp SuggestResponse, suggs []dssddi.Suggestion, screen, nocache bool, key string) int {
	if resp.Regimen == nil {
		resp.Regimen = []int{}
	}
	ids := make([]int, len(suggs))
	for i, sg := range suggs {
		ids[i] = sg.DrugID
		out := SuggestionOut{DrugID: sg.DrugID, DrugName: sg.DrugName, Score: sg.Score}
		if screen {
			out.Alerts = ep.checker.ScreenAgainst(resp.Regimen, []int{sg.DrugID})
		}
		resp.Suggestions = append(resp.Suggestions, out)
	}
	if screen {
		resp.ListAlerts = ep.checker.ScreenList(ids)
	}
	var eStart time.Time
	if tr != nil {
		eStart = time.Now()
	}
	buf, body, err := encodeBody(resp)
	tr.Span("encode", eStart)
	if err != nil {
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: "encoding response"})
	}
	if !nocache {
		// The cache needs an owned copy; the pooled buffer goes back.
		ep.suggestCache.Put(key, append([]byte(nil), body...))
	}
	w.Header().Set("X-Cache", "MISS")
	writeBody(w, http.StatusOK, body)
	putEncBuf(buf)
	return http.StatusOK
}

// ScoresRequest is the /v1/scores body.
type ScoresRequest struct {
	Patients []int `json:"patients"`
}

// ScoresResponse is the /v1/scores payload.
type ScoresResponse struct {
	Patients []int       `json:"patients"`
	Drugs    int         `json:"drugs"`
	Scores   [][]float64 `json:"scores"`
}

func (s *Server) handleScores(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	var req ScoresRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	if len(req.Patients) == 0 {
		return badRequest(w, "patients must be non-empty")
	}
	if len(req.Patients) > maxScoreBatch {
		return badRequest(w, "at most %d patients per request (got %d)", maxScoreBatch, len(req.Patients))
	}
	for _, p := range req.Patients {
		if status, ok := ep.checkPatient(w, p); !ok {
			return status
		}
	}
	// A propagated deadline that expired while the request was being
	// decoded aborts before the score matrix is touched.
	if err := r.Context().Err(); err != nil {
		return s.writeDeadlineExceeded(w)
	}
	rows := make([][]float64, len(req.Patients))
	for i := range rows {
		rows[i] = ep.batcher.rowPool.get()
	}
	recycle := func() {
		for _, r := range rows {
			ep.batcher.rowPool.put(r)
		}
	}
	if err := ep.sys.ScoresInto(rows, req.Patients); err != nil {
		recycle()
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
	status := writeJSON(w, http.StatusOK, ScoresResponse{Patients: req.Patients, Drugs: ep.data.NumDrugs(), Scores: rows})
	recycle() // writeJSON has serialized the rows; safe to reuse
	return status
}

// ExplainRequest is the /v1/explain body: either an explicit drug set
// or a patient whose top-k suggestions to explain.
type ExplainRequest struct {
	Drugs   []int `json:"drugs,omitempty"`
	Patient *int  `json:"patient,omitempty"`
	K       int   `json:"k,omitempty"`
}

// ExplainResponse is the /v1/explain payload.
type ExplainResponse struct {
	Drugs         []int    `json:"drugs"`
	SS            float64  `json:"ss"`
	Synergistic   []string `json:"synergistic,omitempty"`
	Antagonistic  []string `json:"antagonistic,omitempty"`
	SubgraphDrugs []string `json:"subgraph_drugs,omitempty"`
	Text          string   `json:"text"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	var req ExplainRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	drugs := req.Drugs
	switch {
	case len(drugs) > 0 && req.Patient != nil:
		return badRequest(w, "pass either drugs or patient, not both")
	case req.Patient != nil:
		if status, ok := ep.checkPatient(w, *req.Patient); !ok {
			return status
		}
		k := req.K
		if k <= 0 {
			k = s.cfg.DefaultK
		}
		if k > ep.data.NumDrugs() {
			return badRequest(w, "k %d exceeds maximum %d", k, ep.data.NumDrugs())
		}
		if err := r.Context().Err(); err != nil {
			return s.writeDeadlineExceeded(w) // the propagated deadline expired in admission
		}
		suggs, err := ep.sys.Suggest(*req.Patient, k)
		if err != nil {
			return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
		drugs = make([]int, len(suggs))
		for i, sg := range suggs {
			drugs[i] = sg.DrugID
		}
	case len(drugs) == 0:
		return badRequest(w, "pass drugs or patient")
	}
	for _, d := range drugs {
		if err := ep.validDrug(d); err != nil {
			return badRequest(w, "%v", err)
		}
	}

	sorted := append([]int(nil), drugs...)
	sort.Ints(sorted)
	keyParts := make([]string, len(sorted))
	for i, d := range sorted {
		keyParts[i] = strconv.Itoa(d)
	}
	key := "e|" + strings.Join(keyParts, ",")
	nocache := bypassCache(r)
	if !nocache {
		if body, ok := ep.explainCache.Get(key); ok {
			w.Header().Set("X-Cache", "HIT")
			writeBody(w, http.StatusOK, body)
			return http.StatusOK
		}
	}

	ex, err := ep.sys.Explain(drugs)
	if err != nil {
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
	resp := ExplainResponse{
		Drugs:         sorted,
		SS:            ex.SS,
		Synergistic:   ex.Synergistic,
		Antagonistic:  ex.Antagonistic,
		SubgraphDrugs: ex.SubgraphDrugs,
		Text:          ex.Text,
	}
	buf, body, err := encodeBody(resp)
	if err != nil {
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: "encoding response"})
	}
	if !nocache {
		ep.explainCache.Put(key, append([]byte(nil), body...))
	}
	w.Header().Set("X-Cache", "MISS")
	writeBody(w, http.StatusOK, body)
	putEncBuf(buf)
	return http.StatusOK
}

// AlertsRequest is the /v1/alerts body: a proposed medication list,
// optionally screened against a patient's current regimen too.
type AlertsRequest struct {
	Drugs   []int `json:"drugs"`
	Patient *int  `json:"patient,omitempty"`
}

// AlertsResponse is the /v1/alerts payload.
type AlertsResponse struct {
	Drugs         []int          `json:"drugs"`
	MaxSeverity   string         `json:"max_severity,omitempty"`
	ListAlerts    []alerts.Alert `json:"list_alerts"`
	Regimen       []int          `json:"regimen,omitempty"`
	RegimenAlerts []alerts.Alert `json:"regimen_alerts,omitempty"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	var req AlertsRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	if len(req.Drugs) == 0 {
		return badRequest(w, "drugs must be non-empty")
	}
	for _, d := range req.Drugs {
		if err := ep.validDrug(d); err != nil {
			return badRequest(w, "%v", err)
		}
	}
	resp := AlertsResponse{Drugs: req.Drugs, ListAlerts: ep.checker.ScreenList(req.Drugs)}
	if resp.ListAlerts == nil {
		resp.ListAlerts = []alerts.Alert{}
	}
	all := resp.ListAlerts
	if req.Patient != nil {
		if status, ok := ep.checkPatient(w, *req.Patient); !ok {
			return status
		}
		resp.Regimen = ep.data.Medications(*req.Patient)
		resp.RegimenAlerts = ep.checker.ScreenAgainst(resp.Regimen, req.Drugs)
		all = append(append([]alerts.Alert{}, all...), resp.RegimenAlerts...)
	}
	if sev, any := alerts.MaxSeverity(all); any {
		resp.MaxSeverity = sev.String()
	}
	return writeJSON(w, http.StatusOK, resp)
}

// PatientPutRequest is the PUT /v1/patients/{id} body: the full
// profile to register or replace.
type PatientPutRequest struct {
	Regimen  []int     `json:"regimen"`
	Features []float64 `json:"features,omitempty"`
}

// PatientPatchRequest is the PATCH /v1/patients/{id} body: present
// fields replace the stored ones.
type PatientPatchRequest struct {
	Regimen  *[]int     `json:"regimen,omitempty"`
	Features *[]float64 `json:"features,omitempty"`
}

// PatientResponse is the payload of the registry endpoints.
type PatientResponse struct {
	ID      string `json:"id"`
	Created bool   `json:"created,omitempty"`
	Deleted bool   `json:"deleted,omitempty"`
	Gen     uint64 `json:"gen,omitempty"`
	// Version is the record's replication (last-writer-wins) version:
	// assigned by the acting ring owner on each mutation, durable and
	// comparable across replicas (unlike Gen, which is a per-process
	// cache-invalidation counter).
	Version uint64 `json:"version,omitempty"`
	Regimen []int  `json:"regimen,omitempty"`
	// HasFeatures reports whether a feature vector is on file (the
	// vector itself is not echoed back).
	HasFeatures bool `json:"has_features,omitempty"`
	// Epoch is the serving epoch the cached embedding was built
	// against.
	Epoch int64 `json:"epoch,omitempty"`
	// Record is the canonical replicated record, echoed only when the
	// mutation carried the router's X-Replicate header — the router
	// fans exactly these bytes out to the replica group.
	Record *regproto.Record `json:"record,omitempty"`
}

// echoRecord returns the record a mutation installed when the request
// asked for a replication echo (X-Replicate header present). The copy
// is made only behind the header check, so a plain write never moves
// its record to the heap.
func echoRecord(r *http.Request, rec regproto.Record) *regproto.Record {
	if r.Header.Get(regproto.ReplicateHeader) == "" {
		return nil
	}
	echo := rec
	return &echo
}

// writeRefusal answers a registry write that installed nothing: 404
// for an id without a live record, 500 when the WAL append failed
// (the client's profile was fine, the disk was not), and 400 for a
// profile the model cannot embed.
func writeRefusal(w http.ResponseWriter, id string, err error) int {
	switch {
	case errors.Is(err, errNotRegistered):
		return notFound(w, "patient %q is not registered", id)
	case errors.Is(err, errDurability):
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		return badRequest(w, "invalid profile: %v", err)
	}
}

func (s *Server) handlePatientPut(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	id := r.PathValue("id")
	if err := validPatientID(id); err != nil {
		return badRequest(w, "%v", err)
	}
	var req PatientPutRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	rec, gen, created, err := s.patients.put(ep, obs.FromContext(r.Context()), id, req.Regimen, req.Features)
	if err != nil {
		return writeRefusal(w, id, err)
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	return writeJSON(w, status, PatientResponse{
		ID: id, Created: created, Gen: gen, Version: rec.Version,
		Regimen: rec.Regimen, HasFeatures: rec.Features != nil, Epoch: ep.id,
		Record: echoRecord(r, rec),
	})
}

func (s *Server) handlePatientPatch(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	id := r.PathValue("id")
	if err := validPatientID(id); err != nil {
		return badRequest(w, "%v", err)
	}
	var req PatientPatchRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	if req.Regimen == nil && req.Features == nil {
		return badRequest(w, "pass regimen and/or features")
	}
	rec, gen, err := s.patients.patch(ep, obs.FromContext(r.Context()), id, req.Regimen, req.Features)
	if err != nil {
		return writeRefusal(w, id, err)
	}
	return writeJSON(w, http.StatusOK, PatientResponse{
		ID: id, Gen: gen, Version: rec.Version, Regimen: rec.Regimen, Epoch: ep.id,
		Record: echoRecord(r, rec),
	})
}

func (s *Server) handlePatientGet(w http.ResponseWriter, r *http.Request, _ *servingEpoch) int {
	id := r.PathValue("id")
	if err := validPatientID(id); err != nil {
		return badRequest(w, "%v", err)
	}
	rec, gen, embEpoch, found := s.patients.get(id)
	if !found {
		return notFound(w, "patient %q is not registered", id)
	}
	return writeJSON(w, http.StatusOK, PatientResponse{
		ID: id, Gen: gen, Version: rec.Version, Regimen: rec.Regimen, HasFeatures: rec.Features != nil, Epoch: embEpoch,
	})
}

func (s *Server) handlePatientDelete(w http.ResponseWriter, r *http.Request, _ *servingEpoch) int {
	id := r.PathValue("id")
	if err := validPatientID(id); err != nil {
		return badRequest(w, "%v", err)
	}
	rec, err := s.patients.delete(obs.FromContext(r.Context()), id)
	if err != nil {
		return writeRefusal(w, id, err)
	}
	return writeJSON(w, http.StatusOK, PatientResponse{
		ID: id, Deleted: true, Version: rec.Version,
		Record: echoRecord(r, rec),
	})
}

// ReloadRequest is the /v1/admin/reload body; an empty body (or empty
// path) reloads Config.SnapshotPath. An empty precision keeps the
// server's current one; a named precision ("f64" or "f32") quantizes
// the reloaded model accordingly and becomes the server's precision
// from this epoch on.
type ReloadRequest struct {
	Path      string `json:"path,omitempty"`
	Precision string `json:"precision,omitempty"`
}

// ReloadResponse reports the epoch the reload produced.
type ReloadResponse struct {
	Epoch     int64               `json:"epoch"`
	Precision string              `json:"precision"`
	Model     dssddi.SnapshotInfo `json:"model"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, _ *servingEpoch) int {
	var req ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, regproto.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		return badRequest(w, "invalid request body: %v", err)
	}
	if req.Path == "" && s.cfg.SnapshotPath == "" {
		return badRequest(w, "no snapshot path: pass {\"path\": ...} or configure one")
	}
	if err := dssddi.ValidatePrecision(req.Precision); err != nil {
		return badRequest(w, "%v", err)
	}
	// Respond with the swapped-in epoch's own identity — under
	// concurrent reloads the current pointer may already be a later
	// epoch, which must not be misattributed to this reload's id.
	ep, err := s.reloadFromPath(req.Path, req.Precision)
	if err != nil {
		return writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("reload failed: %v", err)})
	}
	return writeJSON(w, http.StatusOK, ReloadResponse{Epoch: ep.id, Precision: ep.precision, Model: ep.info})
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string              `json:"status"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	Epoch         int64               `json:"epoch"`
	Precision     string              `json:"precision"`
	Reloads       int64               `json:"reloads"`
	Patients      int                 `json:"registered_patients"`
	Model         dssddi.SnapshotInfo `json:"model"`
	Build         obs.BuildInfo       `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, ep *servingEpoch) int {
	return writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Epoch:         ep.id,
		Precision:     ep.precision,
		Reloads:       s.reloads.Load(),
		Patients:      s.patients.len(),
		Model:         ep.info,
		Build:         obs.Build(),
	})
}

// handleMetricsz serves one snapshot of the metrics as JSON, or as the
// Prometheus text format with ?format=prometheus.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	batches, requests := ep.batcher.Stats()
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Epoch:         ep.id,
		Reloads:       s.reloads.Load(),
		Memory: MemoryMetrics{
			Precision:              ep.precision,
			ModelBytes:             int64(ep.sys.ResidentModelBytes()),
			RegistryEmbeddingBytes: s.patients.embeddingBytes(),
		},
		Endpoints:    s.metrics.snapshot(),
		SuggestCache: cacheMetrics(ep.suggestCache),
		ExplainCache: cacheMetrics(ep.explainCache),
		Batching:     BatchMetrics{Batches: batches, Requests: requests},
		Registry: RegistryMetrics{
			Patients:       s.patients.len(),
			Writes:         s.patients.writes.Load(),
			Reembeds:       s.patients.reembeds.Load(),
			ReplicaApplies: s.patients.replicaApplies.Load(),
			ReplicaStale:   s.patients.replicaStale.Load(),
			ApplyLatency:   s.patients.applyLat.Snapshot(),
		},
		DeadlineTimeouts: s.deadlineTimeouts.Load(),
	}
	if batches > 0 {
		m.Batching.AvgBatchSize = float64(requests) / float64(batches)
	}
	for name, lim := range s.limits {
		sheds := lim.shedCount()
		m.Sheds += sheds
		if em, ok := m.Endpoints[name]; ok {
			em.Sheds = sheds
			m.Endpoints[name] = em
		}
	}
	if st := s.patients.store; st != nil {
		m.WAL = &WALMetrics{
			Path:               st.log.Path(),
			SyncPolicy:         s.cfg.WALSync,
			Records:            st.log.Records(),
			Bytes:              st.log.Bytes(),
			Syncs:              st.log.Syncs(),
			Replayed:           st.log.Replayed(),
			RecoveredPatients:  st.recovered,
			TornBytes:          st.log.TornBytes(),
			Checkpoints:        st.checkpoints.Load(),
			CheckpointFailures: st.ckptFailures.Load(),
			AppendLatency:      st.log.AppendLatency(),
		}
		if m.WAL.SyncPolicy == "" {
			m.WAL.SyncPolicy = "interval"
		}
	}
	if r.URL.Query().Get("format") == "prometheus" {
		obs.ServeProm(w, "dssddi_build_info", m)
		return http.StatusOK
	}
	return writeJSON(w, http.StatusOK, m)
}
