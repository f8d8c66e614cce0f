// Package md implements the paper's Medical Decision module
// (Section IV-B): the three-step causal treatment matrix, the
// counterfactual link mining of Eqs. 7-8, and MDGCN — a LightGCN-style
// bipartite encoder with an MLP decoder trained jointly on factual and
// counterfactual outcomes (Eqs. 9-18).
package md

import (
	"math"
	"math/rand"

	"dssddi/internal/cluster"
	"dssddi/internal/graph"
	"dssddi/internal/mat"
)

// Treatment holds the causal treatment matrix over the observed
// (training) patients and everything needed to derive treatments for
// unobserved patients.
type Treatment struct {
	// T is the (observed patients x drugs) treatment matrix after the
	// three construction steps.
	T *mat.Dense
	// Assign is each observed patient's cluster.
	Assign []int
	// Centroids holds the k cluster centres in feature space.
	Centroids *mat.Dense
	// clusterDrugs[c][v] = true if any member of cluster c takes v
	// (the post-step-2 cluster treatment set, pre-DDI expansion).
	clusterDrugs []map[int]bool
	ddi          *graph.Signed
	// clusterRow[c] is the fully expanded (cluster set + synergy
	// propagation) treatment row for cluster c, precomputed so
	// inference for an unobserved patient is a centroid scan plus a
	// cached-row lookup — no per-request graph walk or allocation.
	clusterRow [][]float64
}

// BuildTreatment runs the three treatment-construction steps of
// Section IV-B1 over the observed patients:
//
//  1. T_iv = 1 where patient i takes drug v,
//  2. patients are clustered (k-means, k = number of chronic diseases);
//     treatments propagate within a cluster,
//  3. treatments propagate across synergistic DDI edges.
//
// x and y are the observed patients' features and medication use.
func BuildTreatment(rng *rand.Rand, x, y *mat.Dense, ddi *graph.Signed, k int) *Treatment {
	n, m := y.Rows(), y.Cols()
	res := cluster.KMeans(rng, x, k, 30)
	t := &Treatment{
		T:         mat.New(n, m),
		Centroids: res.Centroids,
		ddi:       ddi,
	}
	// The assignment is re-derived from the final centroids with
	// NearestCluster rather than taken from the k-means result: when
	// Lloyd iterations stop at the iteration cap, the last centroid
	// update can leave res.Assign inconsistent with res.Centroids.
	// Every inference path (InferRow, InferRowFor) assigns by
	// NearestCluster, so deriving the training assignment the same way
	// guarantees an observed patient's own drugs are always contained
	// in the cluster set their inference-time cluster carries — the
	// invariant the inductive scoring path's bitwise guarantee rests on.
	t.Assign = make([]int, n)
	for i := range t.Assign {
		t.Assign[i] = t.NearestCluster(x.Row(i))
	}
	res.Assign = t.Assign
	// Step 1: observed links.
	for i := 0; i < n; i++ {
		for v := 0; v < m; v++ {
			if y.At(i, v) == 1 {
				t.T.Set(i, v, 1)
			}
		}
	}
	// Step 2: propagate within clusters.
	k = res.Centroids.Rows()
	t.clusterDrugs = make([]map[int]bool, k)
	for c := range t.clusterDrugs {
		t.clusterDrugs[c] = make(map[int]bool)
	}
	for i := 0; i < n; i++ {
		for v := 0; v < m; v++ {
			if y.At(i, v) == 1 {
				t.clusterDrugs[res.Assign[i]][v] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		for v := range t.clusterDrugs[res.Assign[i]] {
			t.T.Set(i, v, 1)
		}
	}
	// Step 3: propagate across synergistic edges.
	for i := 0; i < n; i++ {
		expandSynergy(ddi, t.T.Row(i))
	}
	// Precompute the per-cluster inference rows (steps 2-3 for a
	// hypothetical member with no observed links of its own).
	t.buildClusterRows(m)
	return t
}

// buildClusterRows derives the per-cluster inference rows from
// clusterDrugs: the cluster treatment set expanded across synergistic
// DDI edges. Both the training constructor and the snapshot restore
// path go through here, so a restored Treatment infers bitwise
// identically to the original.
func (t *Treatment) buildClusterRows(m int) {
	t.clusterRow = make([][]float64, len(t.clusterDrugs))
	for c := range t.clusterRow {
		row := make([]float64, m)
		for v := range t.clusterDrugs[c] {
			row[v] = 1
		}
		expandSynergy(t.ddi, row)
		t.clusterRow[c] = row
	}
}

// expandSynergy marks the synergistic neighbours of every treated drug
// in one ascending pass over the row — the shared step-3 expansion of
// BuildTreatment, buildClusterRows and InferRowFor. A single function
// (and its exact visit order) keeps every treatment row in the system
// derived by the same rule, which is what lets the inductive path
// reproduce a transductive row bit for bit.
func expandSynergy(ddi *graph.Signed, row []float64) {
	for v := range row {
		if row[v] != 1 {
			continue
		}
		for _, u := range ddi.Neighbors(v, func(s graph.Sign) bool { return s == graph.Synergy }) {
			row[u] = 1
		}
	}
}

// InferRow derives the treatment row for an unobserved patient from
// their feature vector: assign to the nearest cluster centroid, adopt
// the cluster's treatment set, then expand across synergy edges. The
// returned slice is the caller's to keep.
func (t *Treatment) InferRow(x []float64) []float64 {
	return append([]float64(nil), t.inferRowShared(x)...)
}

// inferRowShared returns the precomputed treatment row of the nearest
// cluster. The slice is shared and read-only — the hot scoring path
// copies what it needs without allocating.
func (t *Treatment) inferRowShared(x []float64) []float64 {
	return t.clusterRow[t.NearestCluster(x)]
}

// InferRowFor derives the treatment row for an arbitrary patient
// profile: the union of their current regimen and — when a feature
// vector is supplied — the treatment set of their nearest cluster,
// expanded across synergistic DDI edges exactly like the training-time
// construction. For an observed patient queried with their own
// features and recorded regimen this reproduces inferRowShared's row
// bit for bit: the assignment rule is the same NearestCluster call, so
// the regimen is already contained in the cluster set and the union
// (and its synergy expansion) degenerates to the cached cluster row.
// Regimen entries must be valid drug IDs. The returned slice is the
// caller's to keep.
func (t *Treatment) InferRowFor(regimen []int, x []float64) []float64 {
	row := make([]float64, t.ddi.N())
	if x != nil {
		for v := range t.clusterDrugs[t.NearestCluster(x)] {
			row[v] = 1
		}
	}
	for _, v := range regimen {
		row[v] = 1
	}
	expandSynergy(t.ddi, row)
	return row
}

// NearestCluster returns the index of the centroid closest to x.
func (t *Treatment) NearestCluster(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for c := 0; c < t.Centroids.Rows(); c++ {
		if d := mat.EuclideanDistance(x, t.Centroids.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
