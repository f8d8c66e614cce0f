package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
// Every mutation — PUT, PATCH, DELETE and replica apply — goes through
// write, the one place a record is logged and installed.
//
// Locking discipline: stored slices are replace-only (a write installs
// slices nothing else holds — freshly decoded from its request body or
// copied — and never mutates them in place), so a reader may hand a
// slice it extracted under RLock to the response encoder after
// unlocking.
type patientRegistry struct {
	shards [regproto.Shards]registryShard

	// store, when non-nil, write-ahead-logs every mutation before it
	// is acknowledged and periodically compacts the log into a
	// checkpoint file (see durable.go). Set once before the server
	// takes traffic; nil means a volatile, RAM-only registry.
	store *durableStore

	count    atomic.Int64 // live entries (tombstones excluded)
	writes   atomic.Int64 // client mutations accepted: PUT, PATCH and DELETE
	reembeds atomic.Int64 // embeddings recomputed for an epoch move

	// Replication counters: records installed (or refused as stale)
	// through applyReplica — router fan-out and anti-entropy sync.
	replicaApplies atomic.Int64
	replicaStale   atomic.Int64
	applyLat       obs.Histogram
}

type registryShard struct {
	mu    sync.RWMutex
	items map[string]*registeredPatient
}

// registeredPatient is one registry entry, guarded by its shard's
// mutex. Tombstones (rec.Deleted) are kept with their version so
// replication cannot resurrect a deleted patient by applying an older
// set record; they are invisible to reads.
type registeredPatient struct {
	// rec is the entry's canonical record: the one the write path
	// logged, and the one replication, checkpoints and reads see. Its
	// version is the replication-layer last-writer-wins version,
	// minted by nextVersion on the acting ring owner; unlike gen it
	// survives restarts and is comparable across replicas.
	rec regproto.Record
	// gen counts writes to this patient; it is baked into the result
	// cache key, so a regimen update unreaches exactly this patient's
	// cached responses (O(1) invalidation; stale entries age out of
	// the LRU) without touching anyone else's.
	gen uint64

	emb      *dssddi.PatientEmbedding
	embEpoch int64
	embErr   error // re-embed failure against embEpoch's model
}

// live reports whether p holds a readable (non-tombstone) record; a
// nil entry is an id the registry has never seen.
func (p *registeredPatient) live() bool { return p != nil && !p.rec.Deleted }

// nextVersion mints the version of a write the acting owner accepts:
// one past the held record's, tombstones included, so a
// re-registration after a delete still moves the version forward.
func (p *registeredPatient) nextVersion() uint64 {
	if p == nil {
		return 1
	}
	return p.rec.Version + 1
}

var (
	// errNotRegistered refuses a PATCH or DELETE of an id without a
	// live record.
	errNotRegistered = errors.New("serve: patient is not registered")
	// errStale refuses a replicated record that is not strictly newer
	// than the held one.
	errStale = errors.New("serve: replicated record is stale")
)

func newPatientRegistry() *patientRegistry {
	r := &patientRegistry{}
	for i := range r.shards {
		r.shards[i].items = make(map[string]*registeredPatient)
	}
	return r
}

func (r *patientRegistry) shard(id string) *registryShard {
	return &r.shards[regproto.ShardOf(id)]
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

// write is the registry's one mutation path. Under the durable gate's
// read side and the shard lock, next is handed the current entry (nil
// for an unseen id) and returns the entry to install, or an error that
// refuses the write and leaves the entry as it was. The record is
// appended to the WAL before it is installed, inside the same critical
// section, so log order matches install order and a failed append
// leaves nothing acknowledged. An installed write bumps accepted.
// created reports that a live record now stands where none did.
func (r *patientRegistry) write(tr *obs.Trace, id string, accepted *atomic.Int64, next func(cur *registeredPatient) (registeredPatient, error)) (rec regproto.Record, gen uint64, created bool, err error) {
	if r.store != nil {
		r.store.gate.RLock()
	}
	sh := r.shard(id)
	sh.mu.Lock()
	cur := sh.items[id]
	p, err := next(cur)
	if err == nil && r.store != nil {
		var wStart time.Time
		if tr != nil {
			wStart = time.Now()
		}
		err = r.store.append(p.rec)
		tr.Span("wal-append", wStart)
	}
	if err == nil {
		wasLive := cur.live()
		if cur == nil {
			cur = new(registeredPatient)
			sh.items[id] = cur
		}
		p.gen = cur.gen + 1
		*cur = p
		switch {
		case !wasLive && !p.rec.Deleted:
			r.count.Add(1)
			created = true
		case wasLive && p.rec.Deleted:
			r.count.Add(-1)
		}
		rec, gen = p.rec, p.gen
		accepted.Add(1)
	}
	sh.mu.Unlock()
	if r.store != nil {
		// The gate must be released before the checkpoint check: a
		// checkpoint takes its write side.
		r.store.gate.RUnlock()
		if err == nil {
			r.store.maybeCheckpoint(r)
		}
	}
	return rec, gen, created, err
}

// put creates or replaces a patient's profile, embedding it against
// the given epoch's model outside the lock. An invalid profile is
// rejected by the embed and the previous state (if any) is kept.
func (r *patientRegistry) put(ep *servingEpoch, tr *obs.Trace, id string, regimen []int, features []float64) (rec regproto.Record, gen uint64, created bool, err error) {
	emb, err := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: regimen, Features: features})
	if err != nil {
		return rec, 0, false, err
	}
	return r.write(tr, id, &r.writes, func(cur *registeredPatient) (registeredPatient, error) {
		return registeredPatient{
			rec: regproto.Record{ID: id, Version: cur.nextVersion(), Regimen: regimen, Features: features},
			emb: emb, embEpoch: ep.id,
		}, nil
	})
}

// patch partially updates a live patient: non-nil fields replace the
// stored ones, and the merged profile is re-embedded under the lock
// and installed atomically. A replaced slice is installed as a copy,
// so an empty one is stored (and logged) as absent. The returned
// record is the one this patch installed, never a concurrent writer's.
func (r *patientRegistry) patch(ep *servingEpoch, tr *obs.Trace, id string, regimen *[]int, features *[]float64) (rec regproto.Record, gen uint64, err error) {
	rec, gen, _, err = r.write(tr, id, &r.writes, func(cur *registeredPatient) (registeredPatient, error) {
		if !cur.live() {
			return registeredPatient{}, errNotRegistered
		}
		next := regproto.Record{ID: id, Version: cur.nextVersion(), Regimen: cur.rec.Regimen, Features: cur.rec.Features}
		if regimen != nil {
			next.Regimen = append([]int(nil), *regimen...)
		}
		if features != nil {
			next.Features = append([]float64(nil), *features...)
		}
		emb, err := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: next.Regimen, Features: next.Features})
		return registeredPatient{rec: next, emb: emb, embEpoch: ep.id}, err
	})
	return rec, gen, err
}

// delete tombstones a live patient. The entry is kept as a versioned
// tombstone (invisible to reads) so replication and anti-entropy order
// the delete against concurrent set records instead of resurrecting
// the patient.
func (r *patientRegistry) delete(tr *obs.Trace, id string) (regproto.Record, error) {
	rec, _, _, err := r.write(tr, id, &r.writes, func(cur *registeredPatient) (registeredPatient, error) {
		if !cur.live() {
			return registeredPatient{}, errNotRegistered
		}
		return registeredPatient{rec: regproto.Record{ID: id, Version: cur.nextVersion(), Deleted: true}}, nil
	})
	return rec, err
}

// get returns a snapshot of a patient's record. Tombstones read as
// not-found.
func (r *patientRegistry) get(id string) (rec regproto.Record, gen uint64, embEpoch int64, found bool) {
	sh := r.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p := sh.items[id]
	if !p.live() {
		return rec, 0, 0, false
	}
	return p.rec, p.gen, p.embEpoch, true
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
	if !p.live() {
		sh.mu.RUnlock()
		return nil, 0, nil, false, nil
	}
	gen, regimen = p.gen, p.rec.Regimen
	features := p.rec.Features
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
		rec regproto.Record
		gen uint64
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		jobs := make([]job, 0, len(sh.items))
		for _, p := range sh.items {
			if p.live() && p.embEpoch < ep.id {
				jobs = append(jobs, job{p.rec, p.gen})
			}
		}
		sh.mu.RUnlock()
		for _, j := range jobs {
			emb, err := ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: j.rec.Regimen, Features: j.rec.Features})
			r.reembeds.Add(1)
			sh.mu.Lock()
			if p := sh.items[j.rec.ID]; p != nil && p.gen == j.gen && p.embEpoch < ep.id {
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
// anti-entropy sync) only if it is strictly newer than the held one
// (last-writer-wins; a stale or duplicate apply is an idempotent
// no-op). The outcome reports whether it applied and the version now
// stored locally. Applied records are WAL-logged with the incoming
// version — a replica's acknowledged copy must survive its own crash
// — and embedded against the current epoch outside the lock, so the
// replica can serve failover reads immediately. An embed failure does
// not refuse the record (state convergence outranks a scorable
// embedding; the error is kept and surfaces on suggest), so replicas
// converge even mid-rollout when models briefly differ.
func (r *patientRegistry) applyReplica(ep *servingEpoch, tr *obs.Trace, rec regproto.Record) (applied bool, version uint64, err error) {
	t0 := time.Now()
	defer func() { r.applyLat.Observe(time.Since(t0)) }()
	next := registeredPatient{rec: rec}
	if rec.Deleted {
		// A tombstone carries no profile, whatever the sender attached.
		next.rec.Regimen, next.rec.Features = nil, nil
	} else {
		next.emb, next.embErr = ep.sys.EmbedPatient(dssddi.PatientProfile{Regimen: rec.Regimen, Features: rec.Features})
		next.embEpoch = ep.id
	}
	version = rec.Version
	_, _, _, err = r.write(tr, rec.ID, &r.replicaApplies, func(cur *registeredPatient) (registeredPatient, error) {
		if cur != nil && !rec.Newer(cur.rec) {
			version = cur.rec.Version
			return registeredPatient{}, errStale
		}
		return next, nil
	})
	switch {
	case errors.Is(err, errStale):
		r.replicaStale.Add(1)
		return false, version, nil
	case err != nil:
		return false, 0, err
	}
	return true, version, nil
}

// records snapshots the records a sync request names — by id, by
// shard, or every record when it names neither — tombstones included.
// Sync, the digest and checkpoints all read through it. A shard's
// records are listed in id order, so every listing is in (shard, id)
// order and two registries holding the same records list the same
// bytes. Slices are the stored replace-only ones, safe to encode after
// the locks drop. The reservation never scales with the shard list,
// which the client sends and may repeat.
func (r *patientRegistry) records(req regproto.SyncRequest) []regproto.Record {
	if len(req.IDs) > 0 {
		out := make([]regproto.Record, 0, len(req.IDs))
		for _, id := range req.IDs {
			sh := r.shard(id)
			sh.mu.RLock()
			if p := sh.items[id]; p != nil {
				out = append(out, p.rec)
			}
			sh.mu.RUnlock()
		}
		return out
	}
	out := make([]regproto.Record, 0, r.count.Load())
	for i := range r.shards {
		if len(req.Shards) > 0 && !slices.Contains(req.Shards, i) {
			continue
		}
		sh := &r.shards[i]
		from := len(out)
		sh.mu.RLock()
		for _, p := range sh.items {
			out = append(out, p.rec)
		}
		sh.mu.RUnlock()
		slices.SortFunc(out[from:], func(a, b regproto.Record) int { return strings.Compare(a.ID, b.ID) })
	}
	return out
}

// restore installs one record recovered at boot, tombstones included
// (a replica must remember its deletes across restarts or
// anti-entropy could resurrect them); a later record for the same id
// replaces an earlier one. Embeddings are left unset (embEpoch 0), so
// the reembedAll that follows treats recovery exactly like a hot
// reload. Boot only: the registry is not yet shared.
func (r *patientRegistry) restore(rec regproto.Record) {
	items := r.shard(rec.ID).items
	if items[rec.ID].live() {
		r.count.Add(-1)
	}
	items[rec.ID] = &registeredPatient{rec: rec, gen: 1}
	if !rec.Deleted {
		r.count.Add(1)
	}
}
