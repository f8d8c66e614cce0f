package sparse

import "math"

// Edge is an undirected edge with an optional weight, used by the
// adjacency constructors.
type Edge struct {
	U, V   int
	Weight float64
}

// MeanAdjacency builds the row-normalised (mean-aggregator) adjacency
// matrix of an undirected graph: entry (u,v) = w/deg(u). This is the
// neighbourhood-mean operator used by the paper's GIN variant (Eq. 1).
func MeanAdjacency(n int, edges []Edge) *CSR {
	deg := make([]float64, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	b := NewBuilder(n, n)
	for _, e := range edges {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if deg[e.U] > 0 {
			b.Add(e.U, e.V, w/deg[e.U])
		}
		if deg[e.V] > 0 {
			b.Add(e.V, e.U, w/deg[e.V])
		}
	}
	return b.Build()
}

// BipartiteNorm builds the symmetrically normalised propagation
// operators of a bipartite graph with m "left" nodes (patients) and n
// "right" nodes (drugs). It returns (L2R, R2L): L2R is m x n and maps
// right-node features to left nodes (Eq. 11), R2L is n x m and maps left
// features to right nodes (Eq. 12). links[i] lists the right-node
// neighbours of left node i.
func BipartiteNorm(m, n int, links [][]int) (l2r, r2l *CSR) {
	degL := make([]float64, m)
	degR := make([]float64, n)
	for i, vs := range links {
		degL[i] = float64(len(vs))
		for _, v := range vs {
			degR[v]++
		}
	}
	bl := NewBuilder(m, n)
	br := NewBuilder(n, m)
	for i, vs := range links {
		for _, v := range vs {
			w := 1 / math.Sqrt(degL[i]*degR[v])
			bl.Add(i, v, w)
			br.Add(v, i, w)
		}
	}
	return bl.Build(), br.Build()
}
