package serve

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dssddi"
	"dssddi/internal/obs"
	"dssddi/internal/regproto"
)

// patientRegistry is the server's mutable patient store: registered
// profiles (regimen + optional features) addressable by caller-chosen
// string ids, sharded with one RWMutex per shard so concurrent writes
// to different patients never serialize. Each entry caches the
// scoring-ready embedding of its profile, recomputed on every write
// and lazily refreshed when the serving epoch moves — registered
// patients survive hot reloads. The registry itself is epoch-agnostic;
// embeddings are tagged with the epoch they were built against.
//
// Locking discipline: stored slices are replace-only (a write installs
// fresh copies, never mutates in place), so a reader may hand a slice
// it extracted under RLock to the response encoder after unlocking.
type patientRegistry struct {
	shards [registryShards]registryShard

	// store, when non-nil, write-ahead-logs every mutation before it
	// is acknowledged and periodically compacts the log into a
	// checkpoint file (see durable.go). Set once before the server
	// takes traffic; nil means a volatile, RAM-only registry.
	store *durableStore

	count    atomic.Int64 // live entries (tombstones excluded)
	writes   atomic.Int64 // PUT/PATCH mutations accepted
	reembeds atomic.Int64 // embeddings recomputed for an epoch move

	// Replication counters: records installed (or refused as stale)
	// through applyReplica — router fan-out and anti-entropy sync.
	replicaApplies atomic.Int64
	replicaStale   atomic.Int64
	applyLat       obs.Histogram
}

// registryShards must equal regproto.Shards so per-shard anti-entropy
// digests computed here line up with the fleet's view.
const registryShards = regproto.Shards

type registryShard struct {
	mu    sync.RWMutex
	items map[string]*registeredPatient
}

// registeredPatient is one registry entry, guarded by its shard's
// mutex.
type registeredPatient struct {
	regimen  []int
	features []float64
	// gen counts writes to this patient; it is baked into the result
	// cache key, so a regimen update unreaches exactly this patient's
	// cached responses (O(1) invalidation; stale entries age out of
	// the LRU) without touching anyone else's.
	gen uint64
	// version is the replication-layer last-writer-wins version:
	// monotonically increasing per record, assigned by the acting ring
	// owner on each mutation, WAL-logged and replicated. Unlike gen it
	// survives restarts and is comparable across replicas.
	version uint64
	// deleted marks a tombstone: the delete is retained (with its
	// version) so replication cannot resurrect the patient by applying
	// an older set record. Tombstones are invisible to reads.
	deleted bool

	emb      *dssddi.PatientEmbedding
	embEpoch int64
	embErr   error // re-embed failure against embEpoch's model
}

func newPatientRegistry() *patientRegistry {
	r := &patientRegistry{}
	for i := range r.shards {
		r.shards[i].items = make(map[string]*registeredPatient)
	}
	return r
}

func (r *patientRegistry) shard(id string) *registryShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &r.shards[h.Sum32()%registryShards]
}

// validPatientID bounds registry ids: 1-64 bytes of [A-Za-z0-9._-].
// Anything else is a malformed request (400), as opposed to a
// well-formed id that simply is not registered (404).
func validPatientID(id string) error {
	if id == "" {
		return fmt.Errorf("patient id must be non-empty")
	}
	if len(id) > 64 {
		return fmt.Errorf("patient id exceeds 64 bytes")
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("patient id may only contain letters, digits, '.', '_' and '-'")
		}
	}
	return nil
}

// put creates or replaces a patient's profile, embedding it against
// the given epoch's model. The profile is validated by the embed: an
// invalid one is rejected and the previous state (if any) is kept.
// The returned version is the record's new LWW version (previous
// version + 1, tombstones included, so a re-registration after a
// delete still moves the version forward).
func (r *patientRegistry) put(ep *servingEpoch, tr *obs.Trace, id string, regimen []int, features []float64) (created bool, gen, version uint64, err error) {
	emb, err := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: regimen, Features: features})
	if err != nil {
		return false, 0, 0, err
	}
	if r.store != nil {
		r.store.gate.RLock()
	}
	sh := r.shard(id)
	sh.mu.Lock()
	p := sh.items[id]
	version = 1
	if p != nil {
		version = p.version + 1
	}
	if r.store != nil {
		// Log before install, inside the shard critical section: the
		// WAL order matches the install order, and a failed append
		// leaves the previous state intact and unacknowledged.
		var wStart time.Time
		if tr != nil {
			wStart = time.Now()
		}
		err := r.store.logSet(version, id, regimen, features)
		tr.Span("wal-append", wStart)
		if err != nil {
			sh.mu.Unlock()
			r.store.gate.RUnlock()
			return false, 0, 0, err
		}
	}
	if p == nil {
		p = &registeredPatient{}
		sh.items[id] = p
		r.count.Add(1)
		created = true
	} else if p.deleted {
		// Re-registration over a tombstone: a creation from the
		// client's point of view.
		r.count.Add(1)
		created = true
	}
	p.regimen = append([]int(nil), regimen...)
	p.features = append([]float64(nil), features...)
	if features == nil {
		p.features = nil
	}
	p.gen++
	gen = p.gen
	p.version = version
	p.deleted = false
	p.emb, p.embEpoch, p.embErr = emb, ep.id, nil
	r.writes.Add(1)
	sh.mu.Unlock()
	if r.store != nil {
		// The gate must be released before the checkpoint check: a
		// checkpoint takes its write side.
		r.store.gate.RUnlock()
		r.store.maybeCheckpoint(r)
	}
	return created, gen, version, nil
}

// patch partially updates a patient: non-nil fields replace the stored
// ones, the merged profile is re-embedded against the given epoch and
// installed atomically. found=false means no such patient. The
// returned regimen is the one this patch installed (read under the
// same critical section, so a concurrent writer can never be echoed
// back as this patch's result).
func (r *patientRegistry) patch(ep *servingEpoch, tr *obs.Trace, id string, regimen *[]int, features *[]float64) (found bool, gen, version uint64, merged []int, err error) {
	if r.store != nil {
		r.store.gate.RLock()
	}
	sh := r.shard(id)
	sh.mu.Lock()
	unlock := func() {
		sh.mu.Unlock()
		if r.store != nil {
			r.store.gate.RUnlock()
		}
	}
	p := sh.items[id]
	if p == nil || p.deleted {
		unlock()
		return false, 0, 0, nil, nil
	}
	newRegimen, newFeatures := p.regimen, p.features
	if regimen != nil {
		newRegimen = append([]int(nil), *regimen...)
	}
	if features != nil {
		newFeatures = append([]float64(nil), *features...)
		if *features == nil {
			newFeatures = nil
		}
	}
	emb, err := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: newRegimen, Features: newFeatures})
	if err != nil {
		unlock()
		return true, 0, 0, nil, err
	}
	version = p.version + 1
	if r.store != nil {
		// The merged profile is logged absolute, so replay never
		// depends on the pre-patch state.
		var wStart time.Time
		if tr != nil {
			wStart = time.Now()
		}
		err := r.store.logSet(version, id, newRegimen, newFeatures)
		tr.Span("wal-append", wStart)
		if err != nil {
			unlock()
			return true, 0, 0, nil, err
		}
	}
	p.regimen, p.features = newRegimen, newFeatures
	p.gen++
	gen = p.gen
	p.version = version
	merged = p.regimen
	p.emb, p.embEpoch, p.embErr = emb, ep.id, nil
	r.writes.Add(1)
	unlock()
	if r.store != nil {
		r.store.maybeCheckpoint(r)
	}
	return true, gen, version, merged, nil
}

// delete tombstones a patient, reporting whether it existed. The
// entry is kept as a versioned tombstone (invisible to reads) so
// replication and anti-entropy order the delete against concurrent
// set records instead of resurrecting the patient. A non-nil error
// means the tombstone could not be logged durably; the patient is
// kept.
func (r *patientRegistry) delete(id string) (bool, uint64, error) {
	if r.store != nil {
		r.store.gate.RLock()
	}
	sh := r.shard(id)
	sh.mu.Lock()
	unlock := func() {
		sh.mu.Unlock()
		if r.store != nil {
			r.store.gate.RUnlock()
		}
	}
	p, ok := sh.items[id]
	if !ok || p.deleted {
		unlock()
		return false, 0, nil
	}
	version := p.version + 1
	if r.store != nil {
		if err := r.store.logDelete(version, id); err != nil {
			unlock()
			return true, 0, err
		}
	}
	p.regimen, p.features = nil, nil
	p.emb, p.embErr = nil, nil
	p.deleted = true
	p.version = version
	p.gen++
	r.count.Add(-1)
	unlock()
	if r.store != nil {
		r.store.maybeCheckpoint(r)
	}
	return true, version, nil
}

// get returns a snapshot of a patient's profile. Tombstones read as
// not-found.
func (r *patientRegistry) get(id string) (regimen []int, features []float64, gen, version uint64, embEpoch int64, found bool) {
	sh := r.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p := sh.items[id]
	if p == nil || p.deleted {
		return nil, nil, 0, 0, 0, false
	}
	return p.regimen, p.features, p.gen, p.version, p.embEpoch, true
}

// embeddingFor returns the patient's embedding valid for the given
// epoch, recomputing it if the cached one belongs to an older epoch
// (the lazy half of hot reload; Swap's eager reembedAll normally makes
// this a read-lock fast path). Recomputation runs OUTSIDE the shard
// locks — the stored slices are replace-only, so the profile read
// under RLock stays valid — and is installed only when it moves the
// entry forward: a request still pinned to a pre-swap epoch gets a
// transient embedding for its own epoch without clobbering a newer
// one (no re-embed ping-pong during the drain window). The returned
// regimen slice is the stored (replace-only) one and safe to encode
// after return.
func (r *patientRegistry) embeddingFor(ep *servingEpoch, id string) (emb *dssddi.PatientEmbedding, gen uint64, regimen []int, found bool, err error) {
	sh := r.shard(id)
	sh.mu.RLock()
	p := sh.items[id]
	if p == nil || p.deleted {
		sh.mu.RUnlock()
		return nil, 0, nil, false, nil
	}
	gen, regimen = p.gen, p.regimen
	features := p.features
	emb, embEpoch, err := p.emb, p.embEpoch, p.embErr
	sh.mu.RUnlock()
	if embEpoch == ep.id {
		return emb, gen, regimen, true, err
	}

	fresh, ferr := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: regimen, Features: features})
	r.reembeds.Add(1)
	if embEpoch < ep.id {
		sh.mu.Lock()
		// Install only if the entry still describes the profile we
		// embedded and nobody moved it to this epoch (or past it)
		// meanwhile.
		if q := sh.items[id]; q != nil && q.gen == gen && q.embEpoch < ep.id {
			q.emb, q.embEpoch, q.embErr = fresh, ep.id, ferr
		}
		sh.mu.Unlock()
	}
	return fresh, gen, regimen, true, ferr
}

// reembedAll refreshes every entry against a new epoch — called by
// Swap before the epoch pointer is published. Profiles are snapshotted
// under a read lock and embedded lock-free; each install takes the
// shard lock only briefly, so suggest traffic on the old epoch is
// never stalled behind a whole shard's worth of embeds.
func (r *patientRegistry) reembedAll(ep *servingEpoch) {
	type job struct {
		id       string
		regimen  []int
		features []float64
		gen      uint64
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		jobs := make([]job, 0, len(sh.items))
		for id, p := range sh.items {
			if !p.deleted && p.embEpoch < ep.id {
				jobs = append(jobs, job{id, p.regimen, p.features, p.gen})
			}
		}
		sh.mu.RUnlock()
		for _, j := range jobs {
			emb, err := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: j.regimen, Features: j.features})
			r.reembeds.Add(1)
			sh.mu.Lock()
			if p := sh.items[j.id]; p != nil && p.gen == j.gen && p.embEpoch < ep.id {
				p.emb, p.embEpoch, p.embErr = emb, ep.id, err
			}
			sh.mu.Unlock()
		}
	}
}

func (r *patientRegistry) len() int { return int(r.count.Load()) }

// embeddingBytes sums the resident size of every cached patient
// embedding — the registry term of the /metricsz memory accounting.
// At precision f32 each embedding stores narrowed slices, so the
// total is about half the f64 figure for the same registry.
func (r *patientRegistry) embeddingBytes() int64 {
	var total int64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, p := range sh.items {
			total += int64(p.emb.Bytes())
		}
		sh.mu.RUnlock()
	}
	return total
}

// applyReplica installs one replicated record (router fan-out or
// anti-entropy sync), gated on its version: the record is applied
// only if its version is strictly newer than the locally stored one
// (last-writer-wins; a stale or duplicate apply is an idempotent
// no-op). The outcome reports whether it applied and the version now
// stored locally. Applied records are WAL-logged with the incoming
// version — a replica's acknowledged copy must survive its own crash
// — and re-embedded against the current epoch so the replica can
// serve failover reads immediately. An embed failure does not refuse
// the record (state convergence outranks a scorable embedding; the
// error is kept and surfaces on suggest), so replicas converge even
// mid-rollout when models briefly differ.
func (r *patientRegistry) applyReplica(ep *servingEpoch, rec regproto.Record) (applied bool, version uint64, err error) {
	t0 := time.Now()
	defer func() { r.applyLat.Observe(time.Since(t0)) }()
	var emb *dssddi.PatientEmbedding
	var embErr error
	if !rec.Deleted {
		emb, embErr = ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: rec.Regimen, Features: rec.Features})
	}
	if r.store != nil {
		r.store.gate.RLock()
	}
	sh := r.shard(rec.ID)
	sh.mu.Lock()
	p := sh.items[rec.ID]
	if p != nil && p.version >= rec.Version {
		local := p.version
		sh.mu.Unlock()
		if r.store != nil {
			r.store.gate.RUnlock()
		}
		r.replicaStale.Add(1)
		return false, local, nil
	}
	if r.store != nil {
		var lerr error
		if rec.Deleted {
			lerr = r.store.logDelete(rec.Version, rec.ID)
		} else {
			lerr = r.store.logSet(rec.Version, rec.ID, rec.Regimen, rec.Features)
		}
		if lerr != nil {
			sh.mu.Unlock()
			r.store.gate.RUnlock()
			return false, 0, lerr
		}
	}
	wasLive := p != nil && !p.deleted
	if p == nil {
		p = &registeredPatient{}
		sh.items[rec.ID] = p
	}
	if rec.Deleted {
		p.regimen, p.features = nil, nil
		p.emb, p.embErr = nil, nil
		p.deleted = true
		if wasLive {
			r.count.Add(-1)
		}
	} else {
		p.regimen = append([]int(nil), rec.Regimen...)
		p.features = append([]float64(nil), rec.Features...)
		if rec.Features == nil {
			p.features = nil
		}
		p.deleted = false
		p.emb, p.embEpoch, p.embErr = emb, ep.id, embErr
		if !wasLive {
			r.count.Add(1)
		}
	}
	p.version = rec.Version
	p.gen++
	sh.mu.Unlock()
	if r.store != nil {
		r.store.gate.RUnlock()
		r.store.maybeCheckpoint(r)
	}
	r.replicaApplies.Add(1)
	return true, rec.Version, nil
}

// records snapshots every registry record — tombstones included — as
// canonical replication records, for the digest and sync endpoints.
// Slices are the stored replace-only ones, safe to encode after the
// locks drop.
func (r *patientRegistry) records() []regproto.Record {
	out := make([]regproto.Record, 0, r.count.Load())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id, p := range sh.items {
			out = append(out, regproto.Record{
				ID:       id,
				Version:  p.version,
				Deleted:  p.deleted,
				Regimen:  p.regimen,
				Features: p.features,
			})
		}
		sh.mu.RUnlock()
	}
	return out
}

// recordsFor snapshots records filtered by shard and/or explicit ids,
// per one sync pull.
func (r *patientRegistry) recordsFor(req regproto.SyncRequest) []regproto.Record {
	if len(req.IDs) > 0 {
		out := make([]regproto.Record, 0, len(req.IDs))
		for _, id := range req.IDs {
			sh := r.shard(id)
			sh.mu.RLock()
			if p := sh.items[id]; p != nil {
				out = append(out, regproto.Record{
					ID: id, Version: p.version, Deleted: p.deleted,
					Regimen: p.regimen, Features: p.features,
				})
			}
			sh.mu.RUnlock()
		}
		return out
	}
	if len(req.Shards) == 0 {
		return r.records()
	}
	want := make(map[int]bool, len(req.Shards))
	for _, s := range req.Shards {
		want[s] = true
	}
	var out []regproto.Record
	for i := range r.shards {
		if !want[i] {
			continue
		}
		sh := &r.shards[i]
		sh.mu.RLock()
		for id, p := range sh.items {
			out = append(out, regproto.Record{
				ID: id, Version: p.version, Deleted: p.deleted,
				Regimen: p.regimen, Features: p.features,
			})
		}
		sh.mu.RUnlock()
	}
	return out
}
