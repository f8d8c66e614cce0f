package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
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
				rt.scheduleRepair(id, stale, func() ([]regproto.Record, error) {
					return rt.syncRecords(b, regproto.SyncRequest{IDs: []string{id}})
				})
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

// repairAttempts bounds the tries of each repair and anti-entropy call;
// with the doubling backoff it outlasts several faults in a row.
const repairAttempts = 6

// scheduleRepair pushes the records fetch returns to each target in the
// background; the backends gate applies on version, so a newer write
// always wins. A failover read schedules one for the replicas found
// missing a record, and a write for a member whose fan-out apply
// failed, so a flaky member does not decay into a stale replica.
func (rt *Router) scheduleRepair(id string, targets []string, fetch func() ([]regproto.Record, error)) {
	rt.repairWG.Add(1)
	go func() {
		defer rt.repairWG.Done()
		recs, err := fetch()
		var repaired []string
		for _, name := range targets {
			if len(recs) == 0 {
				break // the fetch failed, or the source no longer holds the record
			}
			if aerr := rt.applyRecords(rt.backends[name], recs, repairAttempts); aerr != nil {
				err = aerr
				continue
			}
			repaired = append(repaired, name)
		}
		switch {
		case len(repaired) > 0:
			rt.readRepairs.Add(1)
			if rt.logger != nil {
				rt.logger.Info("replica repair", "patient", id, "repaired", repaired)
			}
		case err != nil && rt.logger != nil:
			rt.logger.Warn("replica repair abandoned", "patient", id, "targets", targets, "err", err)
		}
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
					rt.scheduleRepair(id, []string{b.name}, func() ([]regproto.Record, error) {
						return []regproto.Record{*rec}, nil
					})
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
// endpoint. Each record is encoded once, and the encodings are cut
// greedily into bodies under the body cap, each byte-identical to the
// json.Marshal of its regproto.ApplyRequest (a record too large to fit
// alone goes alone and is refused); each is tried up to attempts times.
// Transport failures feed the health machine; a non-200 is an error
// without being a health signal.
func (rt *Router) applyRecords(b *backend, recs []regproto.Record, attempts int) error {
	const head, tail = `{"records":`, `]}`
	var body []byte
	send := func() error {
		req := json.RawMessage(append(body, tail...))
		body = nil
		return withRetry(attempts, rt.cfg.RetryBackoff, func() error {
			return rt.call(b, "replica apply", http.MethodPost, "/v1/admin/registry/apply", req, nil)
		})
	}
	for _, rec := range recs {
		enc, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if body != nil && len(body)+1+len(enc)+len(tail) > regproto.MaxBodyBytes {
			if err := send(); err != nil {
				return err
			}
		}
		sep := byte(',')
		if body == nil { // sized for one record, all a write's fan-out sends
			body, sep = append(make([]byte, 0, len(head)+1+len(enc)+len(tail)), head...), '['
		}
		body = append(append(body, sep), enc...)
	}
	if body == nil {
		return nil
	}
	return send()
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

// pull is the first anti-entropy step of reconcile and verify. It reads
// each member's whole registry, one shard per sync request (an answer
// must fit under maxControlBody, and a shard stays under it long after
// the whole registry has passed it), and merges what it read in member
// order, so on a version tie the earlier member's record stays. held[i]
// is members[i]'s records in (shard, id) order.
func (rt *Router) pull(members []*backend) (held [][]regproto.Record, merged map[string]regproto.Record, err error) {
	held, merged = make([][]regproto.Record, len(members)), make(map[string]regproto.Record)
	for i, b := range members {
		for shard := 0; shard < regproto.Shards; shard++ {
			recs, err := rt.syncRecords(b, regproto.SyncRequest{Shards: []int{shard}})
			if err != nil {
				return nil, nil, fmt.Errorf("pulling from %s: %w", b.name, err)
			}
			held[i] = append(held[i], recs...)
		}
		regproto.Merge(merged, held[i])
	}
	return held, merged, nil
}

// owed returns the merged records the named member should hold, those
// its replica groups own, and the subset it holds at an older version
// or not at all, in id order.
func (rt *Router) owed(merged map[string]regproto.Record, name string, held []regproto.Record) (want, lacks []regproto.Record) {
	have := make(map[string]regproto.Record, len(held))
	for _, rec := range held {
		have[rec.ID] = rec
	}
	for id, rec := range merged {
		if !slices.Contains(rt.replicaGroup(registeredKey(id)), name) {
			continue
		}
		want = append(want, rec)
		if cur, ok := have[id]; !ok || rec.Newer(cur) {
			lacks = append(lacks, rec)
		}
	}
	slices.SortFunc(lacks, func(x, y regproto.Record) int { return strings.Compare(x.ID, y.ID) })
	return want, lacks
}

// audit compares b's per-shard registry digests with the digests of
// want, the records b should hold, and names the first shard that
// diverges.
func (rt *Router) audit(b *backend, want []regproto.Record) error {
	var got regproto.DigestResponse
	if err := withRetry(repairAttempts, rt.cfg.RetryBackoff, func() error {
		return rt.call(b, "registry digest", http.MethodGet, "/v1/admin/registry/digest", nil, &got)
	}); err != nil {
		return fmt.Errorf("reading digest: %w", err)
	}
	shards := regproto.DigestShards(want)
	if len(got.Shards) != len(shards) {
		return fmt.Errorf("digest shape mismatch: %d vs %d shards", len(got.Shards), len(shards))
	}
	for i, w := range shards {
		if g := got.Shards[i]; g != w {
			return fmt.Errorf("shard %d diverges (%d vs %d records)", w.Shard, g.Records, w.Records)
		}
	}
	return nil
}

// reconcile runs one anti-entropy round for a recovering backend b and
// gates its readmission: the caller returns b to rotation only on nil.
// It pulls every in-rotation peer and then b, and pushes every pulled
// member what it lacks: writes b accepted as acting owner that never
// fanned out reach their other group members, everything b missed (or
// lost: a wiped disk rejoins empty) reaches b, and a peer an earlier
// outage left behind catches up too. b must then hold exactly what its
// groups own, digest for digest.
func (rt *Router) reconcile(b *backend) error {
	rt.antiEntropySyncs.Add(1)
	var members []*backend
	for _, name := range rt.order {
		if p := rt.backends[name]; p != b && p.health.Healthy() {
			members = append(members, p)
		}
	}
	members = append(members, b) // last, so the in-rotation fleet wins a version tie
	held, merged, err := rt.pull(members)
	if err != nil {
		return err
	}
	var want []regproto.Record // b's, once the loop is done
	pushed := 0
	for i, m := range members {
		var lacks []regproto.Record
		if want, lacks = rt.owed(merged, m.name, held[i]); len(lacks) == 0 {
			continue
		}
		if err := rt.applyRecords(m, lacks, repairAttempts); err != nil {
			return fmt.Errorf("pushing %d records to %s: %w", len(lacks), m.name, err)
		}
		rt.antiEntropyRecords.Add(int64(len(lacks)))
		pushed += len(lacks)
	}
	if err := rt.audit(b, want); err != nil {
		return fmt.Errorf("%s not converged: %w", b.name, err)
	}
	if rt.logger != nil {
		rt.logger.Info("anti-entropy reconciled", "backend", b.name, "records", len(want), "pushed", pushed)
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
// every backend was audited and its registry digests match the
// fleet-merged expectation for its replica groups.
type VerifyResponse struct {
	OK       bool            `json:"ok"`
	Records  int             `json:"records"` // live (non-tombstone) fleet records
	Backends []VerifyBackend `json:"backends"`
}

// handleRegistryVerify audits replication convergence with reconcile's
// steps: it pulls every in-rotation member and audits each against the
// merged records its replica groups own. It does not pull an
// out-of-rotation member (a black-holed one would hold the request
// through every retry of its first shard), and lists it as not
// audited, so the answer is 200 only when every member was audited and
// agrees.
func (rt *Router) handleRegistryVerify(w http.ResponseWriter, _ *http.Request) {
	var members []*backend
	for _, name := range rt.order {
		if b := rt.backends[name]; b.health.Healthy() {
			members = append(members, b)
		}
	}
	held, merged, err := rt.pull(members)
	resp := VerifyResponse{OK: true}
	for _, rec := range merged {
		if !rec.Deleted {
			resp.Records++
		}
	}
	for _, name := range rt.order {
		vb := VerifyBackend{Backend: name, State: rt.stateOf(name)}
		switch i := slices.Index(members, rt.backends[name]); {
		case i < 0:
			vb.Error = "not audited: out of rotation"
		case err != nil:
			vb.Error = err.Error()
		default:
			want, _ := rt.owed(merged, name, held[i])
			vb.Records = len(held[i])
			if err := rt.audit(members[i], want); err != nil {
				vb.Error = err.Error()
			}
		}
		vb.OK = vb.Error == ""
		resp.OK = resp.OK && vb.OK
		resp.Backends = append(resp.Backends, vb)
	}
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusConflict
	}
	writeJSON(w, status, resp)
}
