package graph

import (
	"fmt"
	"sort"
)

// Sign labels a drug-drug interaction edge.
type Sign int8

// Interaction signs. Synergy and Antagonism correspond to the paper's
// e=+1 and e=-1 edge labels; NoInteraction is the explicitly sampled
// e=0 edge class used to train DDIGCN (Section IV-A1).
const (
	Antagonism    Sign = -1
	NoInteraction Sign = 0
	Synergy       Sign = +1
)

// String renders the sign for explanations.
func (s Sign) String() string {
	switch s {
	case Synergy:
		return "synergy"
	case Antagonism:
		return "antagonism"
	default:
		return "none"
	}
}

// Signed is the drug-drug interaction (DDI) graph: an undirected graph
// whose edges carry a Sign. It is Definition 2 of the paper.
type Signed struct {
	n     int
	signs map[[2]int]Sign
	adj   []map[int]Sign
}

// NewSigned returns an empty signed graph on n drugs.
func NewSigned(n int) *Signed {
	g := &Signed{n: n, signs: make(map[[2]int]Sign), adj: make([]map[int]Sign, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]Sign)
	}
	return g
}

// N returns the number of drugs.
func (g *Signed) N() int { return g.n }

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// SetEdge records the interaction between drugs u and v, replacing any
// previous label.
func (g *Signed) SetEdge(u, v int, s Sign) {
	if u == v {
		panic(fmt.Sprintf("graph: signed self-loop on %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: signed edge (%d,%d) out of range %d", u, v, g.n))
	}
	g.signs[key(u, v)] = s
	g.adj[u][v] = s
	g.adj[v][u] = s
}

// Edge returns the interaction sign of {u, v} and whether an edge (of
// any sign, including explicit NoInteraction) has been recorded.
func (g *Signed) Edge(u, v int) (Sign, bool) {
	s, ok := g.signs[key(u, v)]
	return s, ok
}

// Neighbors returns the sorted drugs with a recorded interaction with
// u whose sign matches filter; pass nil to accept all recorded edges.
func (g *Signed) Neighbors(u int, filter func(Sign) bool) []int {
	var out []int
	for v, s := range g.adj[u] {
		if filter == nil || filter(s) {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// EdgeList is a deterministic list of recorded edges with signs,
// sorted by (u, v).
type EdgeList struct {
	U, V []int
	S    []Sign
}

// Edges returns all recorded edges (including explicit zero edges).
func (g *Signed) Edges() EdgeList {
	type e struct {
		u, v int
		s    Sign
	}
	var es []e
	for k, s := range g.signs {
		es = append(es, e{k[0], k[1], s})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	var el EdgeList
	for _, x := range es {
		el.U = append(el.U, x.u)
		el.V = append(el.V, x.v)
		el.S = append(el.S, x.s)
	}
	return el
}

// CountBySign returns the number of recorded edges of each sign.
func (g *Signed) CountBySign() (syn, ant, zero int) {
	for _, s := range g.signs {
		switch s {
		case Synergy:
			syn++
		case Antagonism:
			ant++
		default:
			zero++
		}
	}
	return
}

// Interacting returns the undirected skeleton of the non-zero edges
// (synergy or antagonism), the structure the MS module's subgraph
// queries run on.
func (g *Signed) Interacting() *Undirected {
	u := NewUndirected(g.n)
	for k, s := range g.signs {
		if s != NoInteraction {
			u.AddEdge(k[0], k[1])
		}
	}
	return u
}
