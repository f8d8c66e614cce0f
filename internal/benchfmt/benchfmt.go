// Package benchfmt defines the machine-readable benchmark record
// shared by cmd/benchtab (writer) and cmd/benchdiff (reader). Keeping
// one definition prevents the two ends of the CI alloc-regression gate
// from silently drifting apart.
package benchfmt

// Schema identifies the current report format.
const Schema = "dssddi-bench/v2"

// Section is one timed unit of table/figure work in the report.
type Section struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Allocs  uint64  `json:"allocs"`
}

// TrainBench is one training/serving throughput measurement, taken
// with kernel workers pinned to 1 so allocs/op is deterministic and
// comparable across machines.
type TrainBench struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	Seconds     float64 `json:"seconds"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ServeBench is one HTTP serving throughput measurement, recorded by
// cmd/loadgen against a running dssddi-serve instance.
type ServeBench struct {
	Name        string `json:"name"` // e.g. "suggest"
	Concurrency int    `json:"concurrency"`
	Requests    int    `json:"requests"`
	// Errors counts every failed request; TransportErrors is the
	// subset that never got an HTTP response (connection refused,
	// reset, timeout) — the dropped-request signal the rolling-reload
	// smoke tests assert is zero.
	Errors          int `json:"errors"`
	TransportErrors int `json:"transport_errors,omitempty"`
	// StatusCounts breaks the run down by HTTP status code (keyed by
	// the decimal code, plus "transport" for requests that never got a
	// response). Chaos runs read it to assert the failure mix — e.g.
	// "503s are fine, 500s are not".
	StatusCounts map[string]int `json:"status_counts,omitempty"`
	Seconds      float64        `json:"seconds"`
	RPS          float64        `json:"rps"`
	P50Ms        float64        `json:"p50_ms"`
	P90Ms        float64        `json:"p90_ms"`
	P99Ms        float64        `json:"p99_ms"`
	// CacheHitRate and AvgBatchSize come from the server's /metricsz
	// after the run (0 when unavailable).
	CacheHitRate float64 `json:"cache_hit_rate"`
	AvgBatchSize float64 `json:"avg_batch_size"`
	// Precision, ModelBytes and RegistryBytes are scraped from the
	// server's /metricsz memory section after the run: the serving
	// precision the entry ran at and the explicit resident byte
	// accounting of the model blobs and registry embeddings (measured
	// from the structures, not runtime.MemStats — so f64 and f32
	// entries compare exactly).
	Precision     string `json:"precision,omitempty"`
	ModelBytes    int64  `json:"model_bytes,omitempty"`
	RegistryBytes int64  `json:"registry_bytes,omitempty"`
}

// PrecisionStats characterizes one quantized precision against the
// float64 accuracy oracle over a sample of patients: the worst
// absolute score divergence across every (patient, drug) pair and the
// fraction of patients whose top-K ranking survives quantization
// unchanged. cmd/benchdiff -precision-gate hard-fails a report whose
// f32 entry exceeds tolerance on either number.
type PrecisionStats struct {
	Precision string `json:"precision"` // "f32"
	Patients  int    `json:"patients"`
	Drugs     int    `json:"drugs"`
	K         int    `json:"k"`
	// MaxAbsDelta is max over sampled (patient, drug) pairs of
	// |score_quantized - score_f64|.
	MaxAbsDelta float64 `json:"max_abs_delta"`
	// RankingInvariance is the fraction of sampled patients whose
	// top-K drug sets match the f64 oracle's exactly (as sets; a
	// reordering within the set still counts as invariant only when
	// the ordered lists match).
	RankingInvariance float64 `json:"ranking_invariance"`
}

// ReplicationStats records the replication outcome of a cluster run:
// the router's replication counters scraped after the workload, plus
// loadgen's own post-run registry audit. LostRegistrations is the
// hard-gated number — cmd/benchdiff fails any report where it is
// nonzero, because a lost acknowledged registration is clinical state
// silently gone.
type ReplicationStats struct {
	ReplicaReads       int64 `json:"replica_reads"`
	ReadRepairs        int64 `json:"read_repairs"`
	ReplicationFanouts int64 `json:"replication_fanouts"`
	QuorumFailures     int64 `json:"quorum_failures"`
	AntiEntropySyncs   int64 `json:"anti_entropy_syncs"`
	AntiEntropyRecords int64 `json:"anti_entropy_records"`
	PinnedUnavailable  int64 `json:"pinned_unavailable"`
	// VerifiedRegistrations / LostRegistrations come from loadgen's
	// -verify-registry pass: every id acknowledged during the run is
	// re-read afterwards; lost = acknowledged but no longer served.
	VerifiedRegistrations int `json:"verified_registrations"`
	LostRegistrations     int `json:"lost_registrations"`
}

// Report is the full benchmark record CI archives per run.
type Report struct {
	Schema     string `json:"schema"`
	Profile    string `json:"profile"`
	Workers    int    `json:"workers"`
	GoMaxProcs int    `json:"go_max_procs"`
	Seed       int64  `json:"seed"`
	// SIMD records the kernel dispatch level active when the report
	// was produced (avx512 / avx2 / generic) — quantized throughput
	// numbers are meaningless to compare without it.
	SIMD        string            `json:"simd,omitempty"`
	Training    []TrainBench      `json:"training,omitempty"`
	Serving     []ServeBench      `json:"serving,omitempty"`
	Sections    []Section         `json:"sections,omitempty"`
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Precisions carries the divergence characterization of each
	// quantized precision vs the f64 oracle (cmd/dssddi precision).
	Precisions   []PrecisionStats `json:"precisions,omitempty"`
	TotalSeconds float64          `json:"total_seconds"`
}
