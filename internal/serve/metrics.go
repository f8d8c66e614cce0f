package serve

import (
	"sync/atomic"
	"time"

	"dssddi/internal/obs"
)

// endpointStats tracks one endpoint: monotonic request/error counters
// plus a fixed-bucket latency histogram for p50/p90/p99. The
// histogram replaced a 2048-sample mutex-guarded ring: recording is
// now two atomic adds (no lock the scraper can contend on), a
// /metricsz scrape reads bucket counters instead of copying and
// sorting the window, and the same buckets render directly as a
// Prometheus histogram that merges exactly across backends.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	lat      obs.Histogram
}

func (s *endpointStats) observe(d time.Duration, isError bool) {
	s.requests.Add(1)
	if isError {
		s.errors.Add(1)
	}
	s.lat.Observe(d)
}

// EndpointMetrics is the JSON shape of one endpoint's counters.
type EndpointMetrics struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Sheds counts requests fast-failed 503 by admission control
	// (inflight and wait-queue limits both full).
	Sheds int64   `json:"sheds,omitempty"`
	AvgMs float64 `json:"avg_ms"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// CacheMetrics is the JSON shape of the result-cache counters.
type CacheMetrics struct {
	Enabled bool    `json:"enabled"`
	Entries int     `json:"entries"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// BatchMetrics is the JSON shape of the micro-batching counters.
type BatchMetrics struct {
	Batches      int64   `json:"batches"`
	Requests     int64   `json:"requests"`
	AvgBatchSize float64 `json:"avg_batch_size"`
}

// RegistryMetrics is the JSON shape of the patient-registry counters.
type RegistryMetrics struct {
	Patients int   `json:"patients"`
	Writes   int64 `json:"writes"`
	Reembeds int64 `json:"reembeds"`
	// ReplicaApplies counts records installed through the replication
	// apply endpoint; ReplicaStale counts apply attempts refused
	// because the local record already carried an equal-or-newer
	// version (last-writer-wins kept the local copy).
	ReplicaApplies int64 `json:"replica_applies"`
	ReplicaStale   int64 `json:"replica_stale"`
}

// WALMetrics is the JSON shape of the durable-registry counters,
// present only when the server runs with -registry-wal.
type WALMetrics struct {
	Path       string `json:"path"`
	SyncPolicy string `json:"sync_policy"`
	// Records / Bytes describe the live (un-compacted) log.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	Syncs   int64 `json:"syncs"`
	// Replayed / RecoveredPatients / TornBytes describe boot recovery.
	Replayed          int64 `json:"replayed"`
	RecoveredPatients int   `json:"recovered_patients"`
	TornBytes         int64 `json:"torn_bytes_truncated"`
	// Checkpoints counts log compactions; PendingRecords is the
	// mutations logged since the last one.
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures,omitempty"`
	PendingRecords     int64 `json:"pending_records"`
}

// MemoryMetrics is the explicit resident-byte accounting of the
// serving representation: the frozen model blobs (drug representations,
// treatment rows, fused decoder) plus the registry's cached patient
// embeddings, at the epoch's precision. Measured from the structures
// themselves — bytes per element times elements — not from
// runtime.MemStats, so the f64 and f32 figures compare exactly.
type MemoryMetrics struct {
	Precision              string `json:"precision"`
	ModelBytes             int64  `json:"model_bytes"`
	RegistryEmbeddingBytes int64  `json:"registry_embedding_bytes"`
}

// Metrics is the full /metricsz payload. Cache and batching counters
// belong to the current epoch (a hot reload starts them fresh);
// endpoint and registry counters span the server's lifetime.
type Metrics struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Epoch         int64                      `json:"epoch"`
	Reloads       int64                      `json:"reloads"`
	Memory        MemoryMetrics              `json:"memory"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
	SuggestCache  CacheMetrics               `json:"suggest_cache"`
	ExplainCache  CacheMetrics               `json:"explain_cache"`
	Batching      BatchMetrics               `json:"batching"`
	Registry      RegistryMetrics            `json:"registry"`
	// Sheds totals admission-control rejections across endpoints;
	// DeadlineTimeouts counts requests answered 504 because their
	// propagated X-Deadline-Ms budget expired.
	Sheds            int64       `json:"sheds"`
	DeadlineTimeouts int64       `json:"deadline_timeouts"`
	WAL              *WALMetrics `json:"wal,omitempty"`
}

// registry maps endpoint names to their stats. Endpoints are
// registered up front, so lookups are lock-free reads of a fixed map.
type registry struct {
	endpoints map[string]*endpointStats
}

func newRegistry(names ...string) *registry {
	r := &registry{endpoints: make(map[string]*endpointStats, len(names))}
	for _, n := range names {
		r.endpoints[n] = &endpointStats{}
	}
	return r
}

func (r *registry) get(name string) *endpointStats { return r.endpoints[name] }

func (r *registry) snapshot() map[string]EndpointMetrics {
	out := make(map[string]EndpointMetrics, len(r.endpoints))
	for name, s := range r.endpoints {
		lat := s.lat.Snapshot()
		m := EndpointMetrics{
			Requests: s.requests.Load(),
			Errors:   s.errors.Load(),
			AvgMs:    lat.MeanMs(),
			P50Ms:    lat.QuantileMs(0.50),
			P90Ms:    lat.QuantileMs(0.90),
			P99Ms:    lat.QuantileMs(0.99),
		}
		out[name] = m
	}
	return out
}

func cacheMetrics(c *lruCache) CacheMetrics {
	hits, misses := c.Stats()
	m := CacheMetrics{Enabled: c != nil, Entries: c.Len(), Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		m.HitRate = float64(hits) / float64(total)
	}
	return m
}
