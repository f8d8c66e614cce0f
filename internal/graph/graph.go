// Package graph provides the graph data structures used across the
// system: a generic undirected graph with adjacency queries (the base
// for the truss/Steiner/community algorithms) and the signed drug-drug
// interaction graph.
package graph

import (
	"fmt"
	"sort"
)

// Undirected is a simple undirected graph on nodes 0..n-1 with no
// parallel edges or self-loops.
type Undirected struct {
	n   int
	adj []map[int]bool
}

// NewUndirected returns an empty graph on n nodes.
func NewUndirected(n int) *Undirected {
	g := &Undirected{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of nodes.
func (g *Undirected) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected;
// duplicate insertion is a no-op.
func (g *Undirected) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	g.checkNode(u)
	g.checkNode(v)
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// RemoveEdge deletes {u, v} if present.
func (g *Undirected) RemoveEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

// HasEdge reports whether {u, v} is present.
func (g *Undirected) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	return g.adj[u][v]
}

// Degree returns the degree of u.
func (g *Undirected) Degree(u int) int {
	g.checkNode(u)
	return len(g.adj[u])
}

// Neighbors returns the sorted neighbour list of u.
func (g *Undirected) Neighbors(u int) []int {
	g.checkNode(u)
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges as sorted (u < v) pairs in deterministic
// order.
func (g *Undirected) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumEdges returns the edge count.
func (g *Undirected) NumEdges() int {
	var m int
	for u := 0; u < g.n; u++ {
		m += len(g.adj[u])
	}
	return m / 2
}

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	c := NewUndirected(g.n)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			c.adj[u][v] = true
		}
	}
	return c
}

// Subgraph returns the subgraph induced by keep (node IDs are
// preserved; nodes outside keep become isolated).
func (g *Undirected) Subgraph(keep map[int]bool) *Undirected {
	s := NewUndirected(g.n)
	for u := 0; u < g.n; u++ {
		if !keep[u] {
			continue
		}
		for v := range g.adj[u] {
			if keep[v] && u < v {
				s.AddEdge(u, v)
			}
		}
	}
	return s
}

func (g *Undirected) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range %d", u, g.n))
	}
}

// BFSDistances returns hop distances from src to every node; -1 marks
// unreachable nodes.
func (g *Undirected) BFSDistances(src int) []int {
	g.checkNode(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ConnectedComponent returns the set of nodes reachable from src.
func (g *Undirected) ConnectedComponent(src int) map[int]bool {
	comp := make(map[int]bool)
	dist := g.BFSDistances(src)
	for v, d := range dist {
		if d >= 0 {
			comp[v] = true
		}
	}
	return comp
}

// Connected reports whether every node in nodes lies in one connected
// component of g (only nodes with at least one incident edge or listed
// in nodes are considered).
func (g *Undirected) Connected(nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	dist := g.BFSDistances(nodes[0])
	for _, v := range nodes[1:] {
		if dist[v] < 0 {
			return false
		}
	}
	return true
}

// QueryDistance returns, for every node, the maximum hop distance to
// any node in query (used as the "distance to the query set" in the
// closest-truss-community shrink phase). Unreachable distances are
// reported as a large positive value.
func (g *Undirected) QueryDistance(query []int) []int {
	const inf = 1 << 30
	maxDist := make([]int, g.n)
	for _, q := range query {
		dist := g.BFSDistances(q)
		for v, d := range dist {
			if d < 0 {
				d = inf
			}
			if d > maxDist[v] {
				maxDist[v] = d
			}
		}
	}
	return maxDist
}
