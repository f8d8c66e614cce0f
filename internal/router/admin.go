package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dssddi/internal/obs"
	"dssddi/internal/regproto"
)

// ReloadRequest is the router's /v1/admin/reload body. Path names a
// snapshot file visible to every backend (shared filesystem or
// per-backend copy at the same path); empty falls through to each
// backend's configured SnapshotPath.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// RolloutStep reports one backend's slice of a rollout.
type RolloutStep struct {
	Backend  string `json:"backend"`
	Canary   bool   `json:"canary,omitempty"`
	OldEpoch int64  `json:"old_epoch,omitempty"`
	NewEpoch int64  `json:"new_epoch,omitempty"`
	Status   string `json:"status"` // "reloaded" | "failed" | "skipped"
	Error    string `json:"error,omitempty"`
}

// RolloutResponse is the router's /v1/admin/reload payload. On abort,
// Steps records exactly which backends reloaded before the failure so
// the operator knows whether the fleet is mixed.
type RolloutResponse struct {
	OK    bool          `json:"ok"`
	Error string        `json:"error,omitempty"`
	Steps []RolloutStep `json:"steps"`
}

// handleReload coordinates a fleet-wide model rollout: backends are
// reloaded one at a time in deterministic (sorted) order, the first
// acting as canary. Every step is verified — the backend's reload
// must succeed, bump its epoch, report the same model identity as the
// canary's, and answer a smoke suggest stamped with the new epoch —
// before the next backend is touched. Any mismatch aborts the rollout
// and the response reports exactly how far it got. Each backend's own
// hot-reload machinery guarantees its clients never see a mixed-model
// response; the rollout guarantees the fleet converges or the
// operator hears about it.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, regproto.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}

	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	rt.rollouts.Add(1)

	// A rollout into a partially-healthy fleet would leave the ejected
	// members on the old model and resurface them mixed; require full
	// health up front.
	for _, name := range rt.order {
		if !rt.backends[name].health.Healthy() {
			rt.rolloutFailures.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, apiError{
				Error: fmt.Sprintf("rollout requires a fully healthy fleet: backend %s is %s", name, rt.stateOf(name)),
			})
			return
		}
	}

	resp := RolloutResponse{OK: true}
	var fleetModel json.RawMessage
	for i, name := range rt.order {
		step := rt.rolloutOne(rt.backends[name], req.Path, i == 0, &fleetModel)
		resp.Steps = append(resp.Steps, step)
		if step.Status != "reloaded" {
			resp.OK = false
			resp.Error = fmt.Sprintf("rollout aborted at backend %s: %s", name, step.Error)
			for _, rest := range rt.order[i+1:] {
				resp.Steps = append(resp.Steps, RolloutStep{Backend: rest, Status: "skipped"})
			}
			rt.rolloutFailures.Add(1)
			writeJSON(w, http.StatusBadGateway, resp)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) stateOf(name string) string {
	state, _, _ := rt.backends[name].health.snapshot()
	return state.String()
}

// rolloutOne reloads and verifies a single backend. fleetModel pins
// the model identity the canary converged on; later backends must
// match it bit for bit (marshaled SnapshotInfo), or the rollout is
// feeding the fleet from diverging snapshot files.
func (rt *Router) rolloutOne(b *backend, path string, canary bool, fleetModel *json.RawMessage) RolloutStep {
	step := RolloutStep{Backend: b.name, Canary: canary, Status: "failed"}

	// 1. Capture the pre-reload epoch.
	oldEpoch, err := rt.backendEpoch(b)
	if err != nil {
		step.Error = fmt.Sprintf("pre-reload healthz: %v", err)
		return step
	}
	step.OldEpoch = oldEpoch

	// 2. Trigger the backend's own zero-downtime reload.
	body, _ := json.Marshal(ReloadRequest{Path: path})
	resp, err := b.client.Post(b.base+"/v1/admin/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		rt.noteFailure(b, "reload", err)
		step.Error = fmt.Sprintf("reload request: %v", err)
		return step
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		step.Error = fmt.Sprintf("reload returned %d: %s", resp.StatusCode, truncate(raw, 200))
		return step
	}
	var reload struct {
		Epoch int64           `json:"epoch"`
		Model json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(raw, &reload); err != nil {
		step.Error = fmt.Sprintf("reload response: %v", err)
		return step
	}
	step.NewEpoch = reload.Epoch

	// 3. Verify the epoch actually moved.
	if reload.Epoch <= oldEpoch {
		step.Error = fmt.Sprintf("epoch did not advance (%d -> %d)", oldEpoch, reload.Epoch)
		return step
	}

	// 4. Verify the fleet converges on one model identity.
	if *fleetModel == nil {
		*fleetModel = reload.Model
	} else if !bytes.Equal(*fleetModel, reload.Model) {
		step.Error = fmt.Sprintf("model identity diverges from canary: %s vs %s",
			truncate(reload.Model, 200), truncate(*fleetModel, 200))
		return step
	}

	// 5. Smoke suggest through the scoring path (cache bypassed) and
	// require it to be stamped with the new epoch.
	smokeBody := []byte(`{"patient": 0, "k": 1}`)
	req, err := http.NewRequest(http.MethodPost, b.base+"/v1/suggest", bytes.NewReader(smokeBody))
	if err != nil {
		step.Error = fmt.Sprintf("smoke request: %v", err)
		return step
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Cache-Control", "no-cache")
	smoke, err := b.client.Do(req)
	if err != nil {
		rt.noteFailure(b, "rollout smoke", err)
		step.Error = fmt.Sprintf("smoke suggest: %v", err)
		return step
	}
	io.Copy(io.Discard, smoke.Body)
	smoke.Body.Close()
	if smoke.StatusCode != http.StatusOK {
		step.Error = fmt.Sprintf("smoke suggest returned %d", smoke.StatusCode)
		return step
	}
	if got := smoke.Header.Get("X-Epoch"); got != fmt.Sprint(reload.Epoch) {
		step.Error = fmt.Sprintf("smoke suggest served by epoch %s, want %d", got, reload.Epoch)
		return step
	}

	b.epoch.Store(reload.Epoch)
	step.Status = "reloaded"
	return step
}

// backendEpoch reads one backend's current epoch from its /healthz.
// Only a transport failure is a health signal.
func (rt *Router) backendEpoch(b *backend) (int64, error) {
	var health struct {
		Epoch int64 `json:"epoch"`
	}
	err := rt.call(b, "healthz", http.MethodGet, "/healthz", nil, &health)
	return health.Epoch, err
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// BackendHealth is one pool member's health summary.
type BackendHealth struct {
	Name      string `json:"name"`
	State     string `json:"state"`
	Epoch     int64  `json:"epoch"`
	Fails     int    `json:"consecutive_fails,omitempty"`
	Ejections int64  `json:"ejections,omitempty"`
}

// HealthResponse is the router's /healthz payload. Model mirrors one
// healthy backend's model block so cohort-discovering clients
// (loadgen) work unchanged against the router.
type HealthResponse struct {
	Status        string          `json:"status"` // ok | degraded | down
	UptimeSeconds float64         `json:"uptime_seconds"`
	Healthy       int             `json:"healthy_backends"`
	Total         int             `json:"total_backends"`
	Backends      []BackendHealth `json:"backends"`
	Model         json.RawMessage `json:"model,omitempty"`
	Build         obs.BuildInfo   `json:"build"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Total: len(rt.order), UptimeSeconds: time.Since(rt.start).Seconds(), Build: obs.Build()}
	var healthy []*backend
	for _, name := range rt.order {
		b := rt.backends[name]
		state, fails, ejections := b.health.snapshot()
		if state == stateHealthy {
			resp.Healthy++
			healthy = append(healthy, b)
		}
		resp.Backends = append(resp.Backends, BackendHealth{
			Name: name, State: state.String(), Epoch: b.epoch.Load(),
			Fails: fails, Ejections: ejections,
		})
	}
	status := http.StatusOK
	switch {
	case resp.Healthy == len(rt.order):
		resp.Status = "ok"
	case resp.Healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "down"
		status = http.StatusServiceUnavailable
	}
	// Any healthy backend can vouch for the model block; a transient
	// fetch failure on one (a fault-injected link, say) must not strip
	// the cohort info clients discover through it.
	for _, b := range healthy {
		if model, err := rt.backendModel(b); err == nil {
			resp.Model = model
			break
		}
	}
	writeJSON(w, status, resp)
}

// backendModel fetches the model block from one backend's /healthz.
// No failure is a health signal.
func (rt *Router) backendModel(b *backend) (json.RawMessage, error) {
	var health struct {
		Model json.RawMessage `json:"model"`
	}
	err := rt.call(b, "", http.MethodGet, "/healthz", nil, &health)
	return health.Model, err
}

// The /metricsz types below are the one declaration of every router
// metric: a field's json tag names it in the JSON view and its prom,
// help and label tags in the Prometheus one (see obs.WriteProm). A
// value derived from others is tagged prom:"-"; histograms are JSON
// only through their quantiles.

// BackendMetrics is one pool member's traffic and health counters.
type BackendMetrics struct {
	State     string  `json:"state"`
	Up        bool    `json:"-" prom:"dssddi_router_backend_up,gauge" help:"1 when the backend is in rotation."`
	Epoch     int64   `json:"epoch" prom:"dssddi_router_backend_epoch,gauge" help:"Serving epoch last reported by the backend."`
	Requests  int64   `json:"requests" prom:"dssddi_router_backend_requests_total,counter" help:"Proxy attempts sent to the backend."`
	Errors    int64   `json:"transport_errors" prom:"dssddi_router_backend_transport_errors_total,counter" help:"Transport failures of proxy attempts."`
	Retries   int64   `json:"retries" prom:"dssddi_router_backend_retries_total,counter" help:"Proxy attempts to the backend that were retries of a failed one."`
	Ejections int64   `json:"ejections" prom:"dssddi_router_backend_ejections_total,counter" help:"Times the backend was ejected from rotation."`
	P50Ms     float64 `json:"p50_ms" prom:"-"`
	P90Ms     float64 `json:"p90_ms" prom:"-"`
	P99Ms     float64 `json:"p99_ms" prom:"-"`
	// RoutedKeys counts requests whose routing key this backend owned;
	// KeyShare is its observed fraction, RingShare the fraction of the
	// hash circle it owns (the expected share). Divergence between the
	// two is either skew in the workload's patient mix or a bug in the
	// ring.
	RoutedKeys int64                 `json:"routed_keys" prom:"dssddi_router_backend_routed_keys_total,counter" help:"Routed requests whose key the backend owned."`
	KeyShare   float64               `json:"key_share" prom:"-"`
	RingShare  float64               `json:"ring_share" prom:"dssddi_router_backend_ring_share,gauge" help:"Fraction of the hash ring the backend owns."`
	Latency    obs.HistogramSnapshot `json:"-" prom:"dssddi_router_backend_duration_seconds,histogram" help:"Proxy attempt latency by backend."`
	// LastReconcileError is the reason the latest failed reconcile
	// gave, such as the shard whose digest diverged.
	ReconcileFailures  int64  `json:"reconcile_failures" prom:"dssddi_router_backend_reconcile_failures_total,counter" help:"Half-open trials of the backend whose anti-entropy reconcile failed."`
	LastReconcileError string `json:"last_reconcile_error,omitempty" prom:"-"`
}

// Metrics is the router's /metricsz payload.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds" prom:"dssddi_router_uptime_seconds,gauge" help:"Seconds since the router booted."`
	Requests      int64   `json:"requests" prom:"dssddi_router_requests_total,counter" help:"Routed requests."`
	ProxyErrors   int64   `json:"proxy_errors" prom:"dssddi_router_proxy_errors_total,counter" help:"Requests answered 502/503/504 by the router itself."`
	Retries       int64   `json:"retries" prom:"dssddi_router_retries_total,counter" help:"Proxy attempts that were retries of a failed one."`
	// PinnedUnavailable counts 503s where a pinned patient's owning
	// shard was out of rotation (no failover possible); DeadlineExhausted
	// counts 504s where the request budget ran out before any backend
	// answered.
	PinnedUnavailable int64 `json:"pinned_unavailable" prom:"dssddi_router_pinned_unavailable_total,counter" help:"Pinned-key 503s: the owning shard was out of rotation."`
	DeadlineExhausted int64 `json:"deadline_exhausted" prom:"dssddi_router_deadline_exhausted_total,counter" help:"504s: the request budget ran out before any backend answered."`
	Rollouts          int64 `json:"rollouts" prom:"dssddi_router_rollouts_total,counter" help:"Fleet rollouts attempted."`
	RolloutFailures   int64 `json:"rollout_failures" prom:"dssddi_router_rollout_failures_total,counter" help:"Fleet rollouts aborted."`
	// Replication counters (all zero when ReplicationFactor is 1):
	// ReplicaReads counts registered-patient reads served by a
	// non-owner group member, ReadRepairs the stale replicas refreshed
	// by failover reads, ReplicationFanouts the replica applies fanned
	// out for acknowledged writes, QuorumFailures the mutations refused
	// for too few acks, and AntiEntropySyncs / AntiEntropyRecords the
	// reconciliation rounds run for recovering backends and the records
	// they moved. ReplicationLag is the owner-ack to replica-ack time.
	ReplicaReads       int64                     `json:"replica_reads" prom:"dssddi_router_replica_reads_total,counter" help:"Registered-patient reads served by a non-owner replica."`
	ReadRepairs        int64                     `json:"read_repairs" prom:"dssddi_router_read_repairs_total,counter" help:"Stale replicas refreshed in the background (failover reads and failed fan-out applies)."`
	ReplicationFanouts int64                     `json:"replication_fanouts" prom:"dssddi_router_replication_fanouts_total,counter" help:"Replica applies fanned out for acknowledged registry writes."`
	QuorumFailures     int64                     `json:"quorum_failures" prom:"dssddi_router_quorum_failures_total,counter" help:"Registry mutations refused because the write quorum was not met."`
	AntiEntropySyncs   int64                     `json:"anti_entropy_syncs" prom:"dssddi_router_anti_entropy_syncs_total,counter" help:"Anti-entropy reconciliation rounds run for recovering backends."`
	AntiEntropyRecords int64                     `json:"anti_entropy_records" prom:"dssddi_router_anti_entropy_records_total,counter" help:"Records moved by anti-entropy and read repair pushes."`
	ReplicationLag     obs.HistogramSnapshot     `json:"-" prom:"dssddi_router_replication_lag_seconds,histogram" help:"Owner-ack to replica-ack fan-out latency."`
	Backends           map[string]BackendMetrics `json:"backends" label:"backend"`
	// Fleet is the exact bucket-wise sum of the backends' Latency
	// histograms: the shared bucket layout makes the merge integer
	// addition, so the fleet _count equals the sum of the backend ones.
	Fleet obs.HistogramSnapshot `json:"-" prom:"dssddi_router_fleet_duration_seconds,histogram" help:"Proxy attempt latency across the whole fleet (exact bucket-wise sum of the per-backend histograms)."`
}

// handleMetricsz serves one snapshot of the metrics as JSON, or as the
// Prometheus text format with ?format=prometheus.
func (rt *Router) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	shares := rt.ring.Shares()
	total := rt.requests.Load()
	m := Metrics{
		UptimeSeconds:      time.Since(rt.start).Seconds(),
		Requests:           total,
		ProxyErrors:        rt.proxyErrors.Load(),
		Retries:            rt.retriesTotal.Load(),
		PinnedUnavailable:  rt.pinnedUnavailable.Load(),
		DeadlineExhausted:  rt.deadlineExhausted.Load(),
		Rollouts:           rt.rollouts.Load(),
		RolloutFailures:    rt.rolloutFailures.Load(),
		ReplicaReads:       rt.replicaReads.Load(),
		ReadRepairs:        rt.readRepairs.Load(),
		ReplicationFanouts: rt.replicationFanouts.Load(),
		QuorumFailures:     rt.quorumFailures.Load(),
		AntiEntropySyncs:   rt.antiEntropySyncs.Load(),
		AntiEntropyRecords: rt.antiEntropyRecords.Load(),
		ReplicationLag:     rt.replLag.Snapshot(),
		Backends:           make(map[string]BackendMetrics, len(rt.order)),
	}
	for _, name := range rt.order {
		b := rt.backends[name]
		state, _, ejections := b.health.snapshot()
		lat := b.lat.Snapshot()
		m.Fleet.Add(lat)
		bm := BackendMetrics{
			State:      state.String(),
			Up:         state == stateHealthy,
			Epoch:      b.epoch.Load(),
			Requests:   b.requests.Load(),
			Errors:     b.errors.Load(),
			Retries:    b.retries.Load(),
			Ejections:  ejections,
			P50Ms:      lat.QuantileMs(0.50),
			P90Ms:      lat.QuantileMs(0.90),
			P99Ms:      lat.QuantileMs(0.99),
			RoutedKeys: b.routedKeys.Load(),
			RingShare:  shares[name],
			Latency:    lat,
		}
		if total > 0 {
			bm.KeyShare = float64(bm.RoutedKeys) / float64(total)
		}
		bm.ReconcileFailures = b.reconcileFailures.Load()
		bm.LastReconcileError, _ = b.lastReconcileError.Load().(string)
		m.Backends[name] = bm
	}
	if r.URL.Query().Get("format") == "prometheus" {
		obs.ServeProm(w, "dssddi_router_build_info", m)
		return
	}
	writeJSON(w, http.StatusOK, m)
}
