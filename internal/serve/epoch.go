package serve

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"dssddi"
	"dssddi/internal/alerts"
)

// servingEpoch is one generation of the serving state: an immutable
// trained system plus everything derived from it — the interaction
// checker, the micro-batching scorer and the result caches. A hot
// reload builds a complete new epoch in the background and swaps one
// atomic pointer, so every request runs start to finish against
// exactly one epoch: the batcher it scores through, the cache it reads
// and fills, and the alerts it screens with all belong to the same
// model. Nothing is shared between epochs except the patient registry,
// whose cached embeddings are tagged with the epoch they were computed
// against.
type servingEpoch struct {
	id      int64
	sys     *dssddi.System
	data    *dssddi.Data
	checker *alerts.Checker
	info    dssddi.SnapshotInfo
	// precision is the serving precision this epoch's system was
	// quantized to at build time ("f64" or "f32").
	// It is applied to the freshly loaded system before the epoch is
	// published, so a hot reload switches precision atomically with the
	// model and every response's X-Precision header is consistent with
	// its X-Epoch.
	precision string

	batcher      *batcher
	suggestCache *lruCache
	explainCache *lruCache

	// refs counts the server's own reference (1) plus every in-flight
	// request. When it reaches zero the epoch is retired and its
	// batcher's collector goroutine shut down — so a reload never
	// drops a request that is still scoring on the old model, and a
	// long-running server never accumulates idle collectors.
	refs      atomic.Int64
	closeOnce sync.Once
}

// newEpoch derives a serving epoch from a trained system, quantizing
// it to the given precision ("" means f64) before anything else is
// derived from it.
func (s *Server) newEpoch(sys *dssddi.System, precision string) (*servingEpoch, error) {
	data := sys.Data()
	if data == nil {
		return nil, fmt.Errorf("serve: system is not trained")
	}
	if err := sys.SetPrecision(precision); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	info, err := sys.SnapshotInfo()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	emb, err := sys.DrugRelationEmbeddings()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	names := make([]string, data.NumDrugs())
	for i := range names {
		names[i] = data.DrugName(i)
	}
	ep := &servingEpoch{
		id:        s.epochSeq.Add(1),
		sys:       sys,
		data:      data,
		checker:   alerts.NewChecker(data.Dataset().DDI, emb, names),
		info:      info,
		precision: sys.Precision(),
		batcher:   newBatcher(sys, s.cfg.MaxBatch, s.cfg.BatchWindow, data.NumDrugs()),
	}
	half := s.cfg.CacheSize / 2
	ep.suggestCache = newLRUCache(s.cfg.CacheSize-half, cacheShards)
	ep.explainCache = newLRUCache(half, cacheShards)
	ep.refs.Store(1)
	return ep, nil
}

// unref drops one reference; the last reference retires the epoch.
// Retirement is idempotent: acquireEpoch can transiently resurrect and
// re-drop a dying epoch's counter while it retries.
func (ep *servingEpoch) unref() {
	if ep.refs.Add(-1) <= 0 {
		ep.closeOnce.Do(func() { ep.batcher.Close() })
	}
}

// acquireEpoch pins the current epoch for one request. It returns nil
// only when the server is closed. The swap ordering (new pointer is
// published before the old epoch's server reference is dropped)
// guarantees the retry loop terminates: a raced acquire on a retiring
// epoch re-loads the pointer and finds its successor.
func (s *Server) acquireEpoch() *servingEpoch {
	for {
		ep := s.epoch.Load()
		if ep == nil {
			return nil
		}
		if ep.refs.Add(1) > 1 {
			return ep
		}
		// The epoch retired between Load and Add; undo and retry.
		ep.unref()
	}
}

// swap atomically replaces the serving model: it builds a complete new
// epoch from sys, re-embeds every registered patient against it, then
// publishes the epoch pointer. In-flight requests finish on the epoch
// they started with; requests arriving after the swap see only the new
// one. The old epoch's batcher shuts down once its last in-flight
// request completes. reloadMu (shared with Close) serializes swaps and
// guarantees a swap can never republish an epoch after Close retired
// the last one.
// An empty precision keeps the server's current one; a named precision
// becomes the server's precision for this and subsequent reloads.
func (s *Server) swap(sys *dssddi.System, precision string) (*servingEpoch, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.epoch.Load() == nil {
		return nil, fmt.Errorf("serve: server is closed")
	}
	if precision == "" {
		precision = s.precision
	}
	ep, err := s.newEpoch(sys, precision)
	if err != nil {
		return nil, err
	}
	s.precision = precision
	// Warm the registry against the new model before any request can
	// reach it, so the first post-swap suggest for a registered patient
	// does not pay the re-embed. Per-patient failures are recorded on
	// the entry, not fatal: the rest of the registry and the whole
	// index path keep serving.
	s.patients.reembedAll(ep)
	old := s.epoch.Swap(ep)
	s.reloads.Add(1)
	if old != nil {
		old.unref()
	}
	return ep, nil
}

// Swap replaces the serving model with an already-loaded system and
// returns the new epoch id. The server's current precision is applied
// to the incoming system before publication.
func (s *Server) Swap(sys *dssddi.System) (int64, error) {
	ep, err := s.swap(sys, "")
	if err != nil {
		return 0, err
	}
	return ep.id, nil
}

func (s *Server) reloadFromPath(path, precision string) (*servingEpoch, error) {
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		return nil, fmt.Errorf("serve: no snapshot path configured (set Config.SnapshotPath or pass one)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := dssddi.Load(f)
	if err != nil {
		return nil, err
	}
	return s.swap(sys, precision)
}

// ReloadFromPath loads a snapshot file and swaps it in — the body of
// the /v1/admin/reload endpoint and the SIGHUP / -watch wiring in
// cmd/dssddi-serve. The server's current precision carries over.
func (s *Server) ReloadFromPath(path string) (int64, error) {
	ep, err := s.reloadFromPath(path, "")
	if err != nil {
		return 0, err
	}
	return ep.id, nil
}

// Epoch reports the current serving epoch id.
func (s *Server) Epoch() int64 {
	if ep := s.epoch.Load(); ep != nil {
		return ep.id
	}
	return 0
}
