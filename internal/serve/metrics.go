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

// The /metricsz types below are the one declaration of every serving
// metric: a field's json tag names it in the JSON view and its prom,
// help and label tags in the Prometheus one (see obs.WriteProm). A
// value derived from others is tagged prom:"-"; histograms are JSON
// only through their quantiles.

// EndpointMetrics is the JSON shape of one endpoint's counters.
type EndpointMetrics struct {
	Requests int64 `json:"requests" prom:"dssddi_requests_total,counter" help:"Requests by endpoint."`
	Errors   int64 `json:"errors" prom:"dssddi_request_errors_total,counter" help:"Requests answered with status >= 400, by endpoint."`
	// Sheds counts requests fast-failed 503 by admission control
	// (inflight and wait-queue limits both full).
	Sheds   int64                 `json:"sheds,omitempty" prom:"dssddi_sheds_total,counter" help:"Requests shed by admission control, by endpoint."`
	AvgMs   float64               `json:"avg_ms" prom:"-"`
	P50Ms   float64               `json:"p50_ms" prom:"-"`
	P90Ms   float64               `json:"p90_ms" prom:"-"`
	P99Ms   float64               `json:"p99_ms" prom:"-"`
	Latency obs.HistogramSnapshot `json:"-" prom:"dssddi_request_duration_seconds,histogram" help:"Request latency by endpoint."`
}

// CacheMetrics is the JSON shape of the result-cache counters.
type CacheMetrics struct {
	// Enabled is configuration (a negative Config.CacheSize turns
	// caching off), not a signal.
	Enabled bool    `json:"enabled" prom:"-"`
	Entries int     `json:"entries" prom:"dssddi_cache_entries,gauge" help:"Entries held by the result cache."`
	Hits    int64   `json:"hits" prom:"dssddi_cache_hits_total,counter" help:"Result-cache hits by cache."`
	Misses  int64   `json:"misses" prom:"dssddi_cache_misses_total,counter" help:"Result-cache misses by cache."`
	HitRate float64 `json:"hit_rate" prom:"-"`
}

// BatchMetrics is the JSON shape of the micro-batching counters.
type BatchMetrics struct {
	Batches      int64   `json:"batches" prom:"dssddi_score_batches_total,counter" help:"Score-matrix calls issued by the micro-batcher (current epoch)."`
	Requests     int64   `json:"requests" prom:"dssddi_score_batched_requests_total,counter" help:"Patient requests served through batched score calls (current epoch)."`
	AvgBatchSize float64 `json:"avg_batch_size" prom:"-"`
}

// RegistryMetrics is the JSON shape of the patient-registry counters.
type RegistryMetrics struct {
	Patients int   `json:"patients" prom:"dssddi_registry_patients,gauge" help:"Registered patients."`
	Writes   int64 `json:"writes" prom:"dssddi_registry_writes_total,counter" help:"Accepted registry mutations."`
	Reembeds int64 `json:"reembeds" prom:"dssddi_registry_reembeds_total,counter" help:"Embeddings recomputed for an epoch move."`
	// ReplicaApplies counts records installed through the replication
	// apply endpoint; ReplicaStale counts apply attempts refused
	// because the local record already carried an equal-or-newer
	// version (last-writer-wins kept the local copy).
	ReplicaApplies int64                 `json:"replica_applies" prom:"dssddi_replica_applies_total,counter" help:"Replicated records installed via the registry apply endpoint."`
	ReplicaStale   int64                 `json:"replica_stale" prom:"dssddi_replica_apply_stale_total,counter" help:"Replica applies refused because the local version was equal or newer."`
	ApplyLatency   obs.HistogramSnapshot `json:"-" prom:"dssddi_replication_apply_duration_seconds,histogram" help:"Latency of replica-apply record installs."`
}

// WALMetrics is the JSON shape of the durable-registry counters,
// present only when the server runs with -registry-wal.
type WALMetrics struct {
	Path       string `json:"path"`
	SyncPolicy string `json:"sync_policy"`
	// Records / Bytes describe the live (un-compacted) log.
	Records int64 `json:"records" prom:"dssddi_wal_records,gauge" help:"Records in the live (un-compacted) WAL."`
	Bytes   int64 `json:"bytes" prom:"dssddi_wal_bytes,gauge" help:"Payload bytes in the live WAL."`
	Syncs   int64 `json:"syncs" prom:"dssddi_wal_syncs_total,counter" help:"Explicit fsyncs issued by the WAL."`
	// Replayed / RecoveredPatients / TornBytes describe boot recovery.
	Replayed          int64 `json:"replayed" prom:"dssddi_wal_replayed_records,gauge" help:"WAL records replayed at boot."`
	RecoveredPatients int   `json:"recovered_patients" prom:"dssddi_wal_recovered_patients,gauge" help:"Patients rebuilt at boot from the checkpoint and the WAL."`
	TornBytes         int64 `json:"torn_bytes_truncated" prom:"dssddi_wal_torn_bytes_truncated,gauge" help:"Bytes of a torn WAL tail truncated at boot."`
	// Checkpoints counts log compactions, which empty the live log.
	Checkpoints        int64                 `json:"checkpoints" prom:"dssddi_wal_checkpoints_total,counter" help:"Log compactions into the checkpoint file."`
	CheckpointFailures int64                 `json:"checkpoint_failures,omitempty" prom:"dssddi_wal_checkpoint_failures_total,counter" help:"Log compactions that failed."`
	AppendLatency      obs.HistogramSnapshot `json:"-" prom:"dssddi_wal_append_duration_seconds,histogram" help:"WAL append-to-ack latency."`
}

// MemoryMetrics is the explicit resident-byte accounting of the
// serving representation: the frozen model blobs (drug representations,
// treatment rows, fused decoder) plus the registry's cached patient
// embeddings, at the epoch's precision. Measured from the structures
// themselves — bytes per element times elements — not from
// runtime.MemStats, so the f64 and f32 figures compare exactly.
type MemoryMetrics struct {
	Precision              string `json:"precision" prom:"dssddi_precision_info,gauge" label:"precision" help:"Serving precision of the current epoch (value is always 1)."`
	ModelBytes             int64  `json:"model_bytes" prom:"dssddi_model_resident_bytes,gauge" help:"Explicit resident bytes of the serving model representation at the active precision."`
	RegistryEmbeddingBytes int64  `json:"registry_embedding_bytes" prom:"dssddi_registry_embedding_bytes,gauge" help:"Explicit resident bytes of the registry's cached patient embeddings."`
}

// Metrics is the full /metricsz payload. Cache and batching counters
// belong to the current epoch (a hot reload starts them fresh);
// endpoint and registry counters span the server's lifetime.
type Metrics struct {
	UptimeSeconds float64                    `json:"uptime_seconds" prom:"dssddi_uptime_seconds,gauge" help:"Seconds since the server booted."`
	Epoch         int64                      `json:"epoch" prom:"dssddi_epoch,gauge" help:"Current serving epoch."`
	Reloads       int64                      `json:"reloads" prom:"dssddi_reloads_total,counter" help:"Hot reloads performed."`
	Memory        MemoryMetrics              `json:"memory"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints" label:"endpoint"`
	SuggestCache  CacheMetrics               `json:"suggest_cache" label:"cache=suggest"`
	ExplainCache  CacheMetrics               `json:"explain_cache" label:"cache=explain"`
	Batching      BatchMetrics               `json:"batching"`
	Registry      RegistryMetrics            `json:"registry"`
	// Sheds totals admission-control rejections across endpoints;
	// DeadlineTimeouts counts requests answered 504 because their
	// propagated X-Deadline-Ms budget expired.
	Sheds            int64       `json:"sheds" prom:"-"`
	DeadlineTimeouts int64       `json:"deadline_timeouts" prom:"dssddi_deadline_timeouts_total,counter" help:"Requests answered 504 because their propagated deadline expired."`
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
		out[name] = EndpointMetrics{
			Requests: s.requests.Load(),
			Errors:   s.errors.Load(),
			AvgMs:    lat.MeanMs(),
			P50Ms:    lat.QuantileMs(0.50),
			P90Ms:    lat.QuantileMs(0.90),
			P99Ms:    lat.QuantileMs(0.99),
			Latency:  lat,
		}
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
