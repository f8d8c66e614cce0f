package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssddi/internal/regproto"
)

// Registry replication. Every registered patient's record lives on its
// ring owner plus the R-1 distinct ring successors — a deterministic
// replica group that is a pure function of the key and the member set
// (at R=1, the owner alone). The router is the replication
// coordinator:
//
//   - Writes go to the acting owner (first in-rotation group member),
//     with an X-Replicate header when the group has other members; the
//     backend assigns the record's monotonic version, WAL-logs it, and
//     echoes the canonical record, which the router fans out to the
//     remaining in-rotation group members. The write is acknowledged
//     once the available-bounded quorum has it.
//   - Reads fail over owner -> successors within the group; a response
//     served by a non-owner is tagged X-Served-By-Replica, and a
//     replica found missing the record is read-repaired in the
//     background from the member that had it.
//   - A recovering backend reconciles through anti-entropy (digest
//     compare + record pull/push, last-writer-wins) before the health
//     machine returns it to rotation, so it rejoins converged, not
//     stale.

// replicaGroup is the ring-ordered replica group for key: owner first,
// then distinct successors.
func (rt *Router) replicaGroup(key string) []string {
	return rt.ring.Successors(key, rt.cfg.ReplicationFactor)
}

// forwardPinnedRead serves a registered-patient read from the key's
// replica group: the owner first, then successors. A member that is
// out of rotation is skipped; a transport failure moves on (and feeds
// the health machine); a 404 is remembered and the walk continues —
// the record may live on a later member, in which case the 404-ing
// replicas are stale and get read-repaired in the background. Only
// when every reachable member says 404 is the patient genuinely
// unregistered. A member that answered is not asked again: another,
// backed-off pass runs only when an attempt of the last one failed at
// transport level (the whole group mid-restart, say), and it also
// tries the members the first pass skipped.
func (rt *Router) forwardPinnedRead(w http.ResponseWriter, r *http.Request, rq routed, body []byte, key string) {
	id := strings.TrimPrefix(key, "p|")
	tr, group := rq.tr, rq.candidates
	backoff := rt.cfg.RetryBackoff
	answered := make([]bool, len(group))
	var notFound *capturedResponse
	var notFoundFrom string
	var stale []string // members that answered 404
	var last *backend
	for pass := 0; pass <= rt.cfg.MaxRetries; pass++ {
		if pass > 0 {
			remaining := time.Until(rq.deadline)
			if remaining <= 0 || backoff >= remaining {
				break
			}
			tr.Eventf("pinned read retry pass %d after %s", pass, backoff)
			time.Sleep(backoff)
			backoff *= 2
			rt.retriesTotal.Add(1)
		}
		failed := false
		for i, name := range group {
			b := rt.backends[name]
			if answered[i] || (pass == 0 && !b.health.Healthy()) {
				continue // ejected members reconcile before serving reads
			}
			remaining := time.Until(rq.deadline)
			if remaining <= 0 {
				break
			}
			if pass > 0 {
				b.retries.Add(1)
			}
			cr, err := rt.proxyCapture(r, tr, b, body, remaining, nil)
			if err != nil {
				last, failed = b, true
				continue
			}
			answered[i] = true
			if cr.status == http.StatusNotFound {
				if notFound == nil {
					notFound, notFoundFrom = cr, b.name
				}
				stale = append(stale, b.name)
				tr.Eventf("backend %s misses %q; walking group", b.name, id)
				continue
			}
			if i > 0 {
				rt.replicaReads.Add(1)
				cr.header.Set(regproto.ServedByReplicaHeader, b.name)
				tr.Eventf("read failed over to replica %s", b.name)
			}
			if cr.status < 300 && len(stale) > 0 {
				rt.scheduleReadRepair(id, b.name, stale)
			}
			relayCaptured(w, cr, b.name)
			return
		}
		if !failed {
			break
		}
	}

	if notFound != nil {
		// Every reachable group member agrees: not registered.
		relayCaptured(w, notFound, notFoundFrom)
		return
	}
	rt.writeUnrouted(w, rq, last)
}

// withRetry runs f up to attempts times, sleeping a doubling backoff
// between tries. Chaotic links drop individual connections, not whole
// backends: replication control traffic (applies, syncs, digests)
// retries through transient failures instead of treating the first
// reset as truth.
func withRetry(attempts int, backoff time.Duration, f func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = f(); err == nil {
			return nil
		}
	}
	return err
}

// repairAttempts bounds background repair retries. Each failed attempt
// doubles the backoff, so the chain stays short in wall-clock terms
// while surviving several consecutive connection-level faults.
const repairAttempts = 6

// scheduleReadRepair refreshes replicas that missed a record, pulling
// the canonical copy from the member that served the read and applying
// it (version-gated, so a concurrent newer write always wins) to the
// stale members. Runs in the background — the read that discovered the
// staleness has already been answered.
func (rt *Router) scheduleReadRepair(id, from string, stale []string) {
	targets := append([]string(nil), stale...)
	rt.repairWG.Add(1)
	go func() {
		defer rt.repairWG.Done()
		recs, err := rt.syncRecords(rt.backends[from], regproto.SyncRequest{IDs: []string{id}})
		if err != nil || len(recs) == 0 {
			return
		}
		repaired := false
		for _, name := range targets {
			if rt.applyRecords(rt.backends[name], recs, repairAttempts) == nil {
				repaired = true
			}
		}
		if repaired {
			rt.readRepairs.Add(1)
			if rt.logger != nil {
				rt.logger.Info("read repair", "patient", id, "from", from, "repaired", targets)
			}
		}
	}()
}

// scheduleReplicaRepair keeps retrying a fan-out apply that failed in
// the request path. The write was already acknowledged under the
// available-bounded quorum; redundancy is restored in the background so
// a healthy-but-flaky member cannot silently decay into a stale replica
// that only the next anti-entropy round would catch.
func (rt *Router) scheduleReplicaRepair(b *backend, rec regproto.Record) {
	rt.repairWG.Add(1)
	go func() {
		defer rt.repairWG.Done()
		if err := rt.applyRecords(b, []regproto.Record{rec}, repairAttempts); err != nil {
			if rt.logger != nil {
				rt.logger.Warn("replica repair abandoned", "backend", b.name, "patient", rec.ID, "version", rec.Version, "err", err)
			}
			return
		}
		rt.readRepairs.Add(1)
	}()
}

// forwardReplicatedWrite routes a registry mutation: the acting owner
// (first in-rotation group member) assigns the record's version and
// WAL-logs it, the router fans the echoed record out to the rest of
// the group, and the client is acknowledged, without the echo, once
// the available-bounded write quorum holds the record. At R=1 nothing
// asks for an echo or fans out. The acting owner is found by the
// attempt walk over the group: full-replace PUT and DELETE retry on
// transport failure — replaying them is safe under last-writer-wins;
// PATCH stays single-shot.
func (rt *Router) forwardReplicatedWrite(w http.ResponseWriter, r *http.Request, body []byte, id string) {
	rq, ok := rt.route(w, r, registeredKey(id), true)
	if !ok {
		return
	}
	tr, group := rq.tr, rq.candidates
	tries := 1
	if r.Method != http.MethodPatch {
		tries += rt.cfg.MaxRetries
	}
	var echo http.Header
	if len(group) > 1 {
		echo = http.Header{regproto.ReplicateHeader: {"1"}}
	}
	resp, acting := rt.attempt(r, rq, body, tries, echo)
	if resp == nil {
		rt.writeUnrouted(w, rq, acting)
		return
	}
	if resp.status >= 300 {
		// The acting owner rejected the mutation (400/404/...); nothing
		// was written, nothing fans out.
		relayCaptured(w, resp, acting.name)
		return
	}

	// Fan the canonical record out to the rest of the in-rotation
	// group. Ejected members are skipped — they reconcile through
	// anti-entropy before rejoining.
	rec := takeRecord(resp)
	var acks atomic.Int64
	acks.Store(1) // the acting owner's WAL-backed ack
	fanout := 0
	if rec != nil {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, name := range group {
			if name == acting.name {
				continue
			}
			b := rt.backends[name]
			if !b.health.Healthy() {
				continue
			}
			fanout++
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				if err := rt.applyRecords(b, []regproto.Record{*rec}, 1); err != nil {
					tr.Eventf("replica %s apply failed: %v", b.name, err)
					// The ack already stands (available-bounded quorum);
					// restore this member's copy off the request path.
					rt.scheduleReplicaRepair(b, *rec)
					return
				}
				acks.Add(1)
				rt.replLag.Observe(time.Since(t0))
			}(b)
		}
		wg.Wait()
		rt.replicationFanouts.Add(int64(fanout))
		tr.Eventf("replicated %q v%d to %d/%d group members", id, rec.Version, acks.Load()-1, fanout)
	}

	// The quorum is bounded by the members actually available: a
	// permanently dead replica costs redundancy, not writability.
	required := rt.cfg.WriteQuorum
	if avail := 1 + fanout; avail < required {
		required = avail
	}
	if int(acks.Load()) < required {
		rt.quorumFailures.Add(1)
		rt.proxyErrors.Add(1)
		writeJSON(w, http.StatusBadGateway, apiError{
			Error: fmt.Sprintf("router: write quorum not met (%d of %d required acks)", acks.Load(), required),
		})
		return
	}
	relayCaptured(w, resp, acting.name)
}

// takeRecord removes the replication echo from an acting owner's
// answer, re-encoding its other members under a matching
// Content-Length, and returns the echoed record (nil when the answer
// carries none).
func takeRecord(resp *capturedResponse) *regproto.Record {
	var members map[string]json.RawMessage
	var rec *regproto.Record
	if json.Unmarshal(resp.body, &members) != nil || json.Unmarshal(members["record"], &rec) != nil || rec == nil {
		return nil
	}
	delete(members, "record")
	resp.body, _ = json.Marshal(members) // members decoded, so they encode
	resp.header.Set("Content-Length", strconv.Itoa(len(resp.body)))
	return rec
}

// applyRecords pushes records, in order, to one backend's replica-apply
// endpoint, halving a push whose body would pass the backends' body
// cap until each request fits; each request is tried up to attempts
// times. Transport failures feed the health machine; a non-200 (the
// backend refused the batch) is an error without being a health
// signal.
func (rt *Router) applyRecords(b *backend, recs []regproto.Record, attempts int) error {
	if len(recs) > 1 {
		if body, err := json.Marshal(regproto.ApplyRequest{Records: recs}); err == nil && len(body) > regproto.MaxBodyBytes {
			half := len(recs) / 2
			if err := rt.applyRecords(b, recs[:half], attempts); err != nil {
				return err
			}
			return rt.applyRecords(b, recs[half:], attempts)
		}
	}
	return withRetry(attempts, rt.cfg.RetryBackoff, func() error {
		return rt.call(b, "replica apply", http.MethodPost, "/v1/admin/registry/apply", regproto.ApplyRequest{Records: recs}, nil)
	})
}

// syncRecords pulls the records a sync request names from one
// backend, tombstones included, retrying transient failures.
func (rt *Router) syncRecords(b *backend, req regproto.SyncRequest) ([]regproto.Record, error) {
	var sr regproto.SyncResponse
	if err := withRetry(repairAttempts, rt.cfg.RetryBackoff, func() error {
		return rt.call(b, "registry sync", http.MethodPost, "/v1/admin/registry/sync", req, &sr)
	}); err != nil {
		return nil, err
	}
	return sr.Records, nil
}

// syncAll pulls one backend's whole registry in (shard, id) order, one
// shard per request: an answer must fit under maxControlBody, and a
// shard stays under it long after the whole registry has passed it.
func (rt *Router) syncAll(b *backend) ([]regproto.Record, error) {
	var all []regproto.Record
	for shard := 0; shard < regproto.Shards; shard++ {
		recs, err := rt.syncRecords(b, regproto.SyncRequest{Shards: []int{shard}})
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}

// fetchDigest reads one backend's per-shard registry digests, retrying
// transient failures.
func (rt *Router) fetchDigest(b *backend) (*regproto.DigestResponse, error) {
	var dr regproto.DigestResponse
	if err := withRetry(repairAttempts, rt.cfg.RetryBackoff, func() error {
		return rt.call(b, "registry digest", http.MethodGet, "/v1/admin/registry/digest", nil, &dr)
	}); err != nil {
		return nil, err
	}
	return &dr, nil
}

// reconcile runs one anti-entropy round for a recovering backend and
// verifies digest convergence; the caller returns b to rotation only
// on nil. The merge is bidirectional last-writer-wins: writes the
// rejoiner accepted as acting owner that never fanned out flow to
// their current group members, and everything the rejoiner missed (or
// lost — a wiped disk rejoins empty) flows in.
func (rt *Router) reconcile(b *backend) error {
	rt.antiEntropySyncs.Add(1)

	// The fleet's view, merged LWW across every in-rotation peer.
	merged := make(map[string]regproto.Record)
	for _, name := range rt.order {
		p := rt.backends[name]
		if p == b || !p.health.Healthy() {
			continue
		}
		recs, err := rt.syncAll(p)
		if err != nil {
			return fmt.Errorf("pulling from peer %s: %w", p.name, err)
		}
		regproto.Merge(merged, recs)
	}
	own, err := rt.syncAll(b)
	if err != nil {
		return fmt.Errorf("pulling from rejoiner: %w", err)
	}

	// Outward: records where the rejoiner is strictly newest.
	var outward []regproto.Record
	for _, rec := range own {
		if have, ok := merged[rec.ID]; !ok || rec.Newer(have) {
			outward = append(outward, rec)
		}
	}
	regproto.Merge(merged, own)
	pushed := 0
	if len(outward) > 0 {
		perPeer := make(map[string][]regproto.Record)
		for _, rec := range outward {
			for _, name := range rt.replicaGroup(registeredKey(rec.ID)) {
				if name != b.name && rt.backends[name].health.Healthy() {
					perPeer[name] = append(perPeer[name], rec)
				}
			}
		}
		for name, batch := range perPeer {
			sort.Slice(batch, func(i, j int) bool { return batch[i].ID < batch[j].ID })
			if err := rt.applyRecords(rt.backends[name], batch, repairAttempts); err != nil {
				return fmt.Errorf("pushing %d records to %s: %w", len(batch), name, err)
			}
			pushed += len(batch)
		}
	}

	// Inward: everything the rejoiner's replica groups hold that it is
	// missing or stale on. The apply endpoint is version-gated, so
	// shipping the full expected set is idempotent.
	ownVersion := make(map[string]uint64, len(own))
	for _, rec := range own {
		ownVersion[rec.ID] = rec.Version
	}
	var inward []regproto.Record
	expected := make([]regproto.Record, 0, len(merged))
	for id, rec := range merged {
		if !rt.groupContains(registeredKey(id), b.name) {
			continue
		}
		expected = append(expected, rec)
		if v, ok := ownVersion[id]; !ok || v < rec.Version {
			inward = append(inward, rec)
		}
	}
	if len(inward) > 0 {
		sort.Slice(inward, func(i, j int) bool { return inward[i].ID < inward[j].ID })
		if err := rt.applyRecords(b, inward, repairAttempts); err != nil {
			return fmt.Errorf("pushing %d records to rejoiner: %w", len(inward), err)
		}
		pushed += len(inward)
	}
	rt.antiEntropyRecords.Add(int64(pushed))

	// Convergence gate: the rejoiner's digests must match, shard for
	// shard, the digests of exactly the records its groups own.
	want := regproto.DigestShards(expected)
	got, err := rt.fetchDigest(b)
	if err != nil {
		return fmt.Errorf("verifying digest: %w", err)
	}
	if err := diffDigests(want, got.Shards); err != nil {
		return fmt.Errorf("rejoiner %s not converged: %w", b.name, err)
	}
	if rt.logger != nil {
		rt.logger.Info("anti-entropy reconciled", "backend", b.name, "records", len(expected), "pushed", pushed)
	}
	return nil
}

// groupContains reports whether name is in key's replica group.
func (rt *Router) groupContains(key, name string) bool {
	for _, n := range rt.replicaGroup(key) {
		if n == name {
			return true
		}
	}
	return false
}

// diffDigests compares two per-shard digest sets (both always carry
// every shard, in shard order).
func diffDigests(want, got []regproto.ShardDigest) error {
	if len(want) != len(got) {
		return fmt.Errorf("digest shape mismatch: %d vs %d shards", len(got), len(want))
	}
	for i := range want {
		if want[i].Shard != got[i].Shard || want[i].Digest != got[i].Digest {
			return fmt.Errorf("shard %d diverges (%d vs %d records)", want[i].Shard, got[i].Records, want[i].Records)
		}
	}
	return nil
}

// VerifyBackend is one backend's slice of a fleet verification.
type VerifyBackend struct {
	Backend string `json:"backend"`
	State   string `json:"state"`
	Records int    `json:"records"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
}

// VerifyResponse is the /v1/admin/registry/verify payload: whether
// every in-rotation backend's registry digests match the fleet-merged
// expectation for its replica groups.
type VerifyResponse struct {
	OK       bool            `json:"ok"`
	Records  int             `json:"records"` // live (non-tombstone) fleet records
	Backends []VerifyBackend `json:"backends"`
}

// handleRegistryVerify audits replication convergence across the
// in-rotation fleet: it merges every backend's records (LWW), then
// checks each backend's digests against exactly the records its
// replica groups should hold. Ejected members are reported but not
// audited — they reconcile before rejoining.
func (rt *Router) handleRegistryVerify(w http.ResponseWriter, _ *http.Request) {
	merged := make(map[string]regproto.Record)
	resp := VerifyResponse{OK: true}
	healthy := make(map[string][]regproto.Record)
	for _, name := range rt.order {
		b := rt.backends[name]
		if !b.health.Healthy() {
			resp.Backends = append(resp.Backends, VerifyBackend{Backend: name, State: rt.stateOf(name), OK: true})
			continue
		}
		recs, err := rt.syncAll(b)
		if err != nil {
			resp.OK = false
			resp.Backends = append(resp.Backends, VerifyBackend{Backend: name, State: rt.stateOf(name), Error: err.Error()})
			continue
		}
		healthy[name] = recs
		regproto.Merge(merged, recs)
	}
	for _, rec := range merged {
		if !rec.Deleted {
			resp.Records++
		}
	}
	for _, name := range rt.order {
		recs, ok := healthy[name]
		if !ok {
			continue
		}
		vb := VerifyBackend{Backend: name, State: rt.stateOf(name), Records: len(recs), OK: true}
		var expected []regproto.Record
		for id, rec := range merged {
			if rt.groupContains(registeredKey(id), name) {
				expected = append(expected, rec)
			}
		}
		got, err := rt.fetchDigest(rt.backends[name])
		if err != nil {
			vb.OK, vb.Error = false, err.Error()
		} else if err := diffDigests(regproto.DigestShards(expected), got.Shards); err != nil {
			vb.OK, vb.Error = false, err.Error()
		}
		if !vb.OK {
			resp.OK = false
		}
		resp.Backends = append(resp.Backends, vb)
	}
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusConflict
	}
	writeJSON(w, status, resp)
}
