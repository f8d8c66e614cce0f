package serve

import (
	"net/http"

	"dssddi/internal/obs"
	"dssddi/internal/regproto"
)

// Replication endpoints. The router is the only intended caller: it
// fans acknowledged registry mutations out to replica backends via
// /apply, compares per-shard digests via /digest when deciding whether
// a recovering backend has reconverged, and pulls record batches via
// /sync to reconcile a backend that missed writes while ejected.
//
//	POST /v1/admin/registry/apply    apply replicated records (version-gated)
//	GET  /v1/admin/registry/digest   per-shard SHA-256 digests of the registry
//	POST /v1/admin/registry/sync     read records by shard / id for reconciliation
//
// All three are idempotent: /apply installs a record only when its
// version is newer than the local copy (last-writer-wins), so
// re-delivered fan-outs and overlapping anti-entropy rounds converge
// instead of flapping.

func (s *Server) handleRegistryApply(w http.ResponseWriter, r *http.Request, ep *servingEpoch) int {
	var req regproto.ApplyRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	if len(req.Records) == 0 {
		return badRequest(w, "records must be non-empty")
	}
	for _, rec := range req.Records {
		if err := validPatientID(rec.ID); err != nil {
			return badRequest(w, "invalid record: %v", err)
		}
		if rec.Version == 0 {
			return badRequest(w, "record %q carries version 0; replicated records are versioned from 1", rec.ID)
		}
	}
	tr := obs.FromContext(r.Context())
	resp := regproto.ApplyResponse{Results: make([]regproto.ApplyResult, 0, len(req.Records))}
	for _, rec := range req.Records {
		applied, version, err := s.patients.applyReplica(ep, tr, rec)
		if err != nil {
			return writeRefusal(w, rec.ID, err)
		}
		if applied {
			resp.Applied++
		} else {
			resp.Stale++
		}
		resp.Results = append(resp.Results, regproto.ApplyResult{ID: rec.ID, Applied: applied, Version: version})
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRegistryDigest(w http.ResponseWriter, _ *http.Request, _ *servingEpoch) int {
	return writeJSON(w, http.StatusOK, regproto.DigestResponse{
		Records: s.patients.len(),
		Shards:  regproto.DigestShards(s.patients.records(regproto.SyncRequest{})),
	})
}

func (s *Server) handleRegistrySync(w http.ResponseWriter, r *http.Request, _ *servingEpoch) int {
	var req regproto.SyncRequest
	if !decodeBody(w, r, &req) {
		return http.StatusBadRequest
	}
	for _, sh := range req.Shards {
		if sh < 0 || sh >= regproto.Shards {
			return badRequest(w, "shard %d out of range [0, %d)", sh, regproto.Shards)
		}
	}
	return writeJSON(w, http.StatusOK, regproto.SyncResponse{Records: s.patients.records(req)})
}
