// Package regproto defines the wire protocol the fleet uses to
// replicate the patient registry: the canonical versioned record, the
// shard layout shared by both tiers, the per-shard digests that drive
// anti-entropy, and the JSON bodies of the replica-apply / digest /
// sync admin endpoints.
//
// Replication is last-writer-wins on a per-record monotonically
// increasing version assigned by the acting ring owner at mutation
// time. Deletes are tombstones (Deleted=true) so a delete replicated
// to a lagging peer cannot be resurrected by an older set record.
package regproto

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"sort"
)

// Shards is the registry shard count; it must match the serving
// tier's internal shard map so per-shard digests line up across
// replicas.
const Shards = 16

// MaxBodyBytes is the request-body cap of both tiers: the backends
// refuse a larger body with 400, and the router refuses one before
// routing it. The router splits a replica push into requests under it.
const MaxBodyBytes = 1 << 20

// Header names used by the replication paths.
const (
	// ReplicateHeader marks a router-originated mutation: the backend
	// echoes the canonical versioned record in the response so the
	// router can fan it out to the replica group.
	ReplicateHeader = "X-Replicate"
	// ServedByReplicaHeader tags a registered-patient response that
	// was served by a replica because the ring owner was unavailable.
	ServedByReplicaHeader = "X-Served-By-Replica"
)

// ShardOf maps a patient id onto its registry shard (FNV-1a 32-bit,
// mod Shards).
func ShardOf(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % Shards)
}

// Record is the canonical replicated registry record. A tombstone
// (Deleted=true) carries no profile payload but keeps its version so
// last-writer-wins merges order deletes against writes.
type Record struct {
	ID       string    `json:"id"`
	Version  uint64    `json:"version"`
	Deleted  bool      `json:"deleted,omitempty"`
	Regimen  []int     `json:"regimen,omitempty"`
	Features []float64 `json:"features,omitempty"`
}

// Newer reports whether r supersedes other under last-writer-wins. It
// is the one ordering rule of the replication protocol: Merge, the
// backends' replica apply and the router's anti-entropy all ask it.
func (r Record) Newer(other Record) bool { return r.Version > other.Version }

// ShardDigest summarizes one shard's records: how many, and a SHA-256
// over the sorted full record contents (ids, versions, tombstones,
// regimens, features). Two replicas whose digests match hold
// byte-identical shard state.
type ShardDigest struct {
	Shard   int    `json:"shard"`
	Records int    `json:"records"`
	Digest  string `json:"digest"`
}

// DigestResponse is the body of GET /v1/admin/registry/digest.
type DigestResponse struct {
	Records int           `json:"records"`
	Shards  []ShardDigest `json:"shards"`
}

// SyncRequest is the body of POST /v1/admin/registry/sync: pull
// records by shard (empty Shards = all shards) or by explicit id.
type SyncRequest struct {
	Shards []int    `json:"shards,omitempty"`
	IDs    []string `json:"ids,omitempty"`
}

// SyncResponse returns the pulled records, tombstones included.
type SyncResponse struct {
	Records []Record `json:"records"`
}

// ApplyRequest is the body of POST /v1/admin/registry/apply: install
// replicated records, each gated on its version (apply only if the
// incoming version is newer than the locally stored one).
type ApplyRequest struct {
	Records []Record `json:"records"`
}

// ApplyResult reports the per-record outcome: Applied says whether
// the record was installed; Version is the version now stored locally
// (the incoming one if applied, the newer local one if stale).
type ApplyResult struct {
	ID      string `json:"id"`
	Applied bool   `json:"applied"`
	Version uint64 `json:"version"`
}

// ApplyResponse is the replica-apply outcome.
type ApplyResponse struct {
	Applied int           `json:"applied"`
	Stale   int           `json:"stale"`
	Results []ApplyResult `json:"results"`
}

// DigestShards computes the per-shard digests of a record set.
// Records are bucketed by ShardOf and hashed in id order, so the
// result is independent of input order. Every shard is present in the
// output, empty ones included (their digest covers zero records).
func DigestShards(records []Record) []ShardDigest {
	byShard := make([][]Record, Shards)
	for _, r := range records {
		s := ShardOf(r.ID)
		byShard[s] = append(byShard[s], r)
	}
	out := make([]ShardDigest, Shards)
	for s := range byShard {
		recs := byShard[s]
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		h := sha256.New()
		var buf [8]byte
		for _, r := range recs {
			h.Write([]byte(r.ID))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], r.Version)
			h.Write(buf[:])
			if r.Deleted {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Regimen)))
			h.Write(buf[:])
			for _, d := range r.Regimen {
				binary.LittleEndian.PutUint64(buf[:], uint64(int64(d)))
				h.Write(buf[:])
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Features)))
			h.Write(buf[:])
			for _, f := range r.Features {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				h.Write(buf[:])
			}
		}
		out[s] = ShardDigest{Shard: s, Records: len(recs), Digest: hex.EncodeToString(h.Sum(nil))}
	}
	return out
}

// Merge folds a batch of records into an LWW-authoritative map: a
// record wins its slot if it is the first seen for its id or Newer
// than the held one.
func Merge(into map[string]Record, batch []Record) {
	for _, r := range batch {
		if cur, ok := into[r.ID]; !ok || r.Newer(cur) {
			into[r.ID] = r
		}
	}
}
