package graph

import (
	"testing"
)

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(1, 0) {
		t.Fatal("edges must be symmetric")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("deg(1)=%d, want 2", g.Degree(1))
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	g.AddEdge(0, 1) // duplicate no-op
	if g.NumEdges() != 2 {
		t.Fatal("duplicate edge changed count")
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("RemoveEdge failed")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUndirected(2).AddEdge(1, 1)
}

func TestNeighborsSorted(t *testing.T) {
	g := NewUndirected(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	nb := g.Neighbors(2)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 3 || nb[2] != 4 {
		t.Fatalf("neighbors %v", nb)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	es := g.Edges()
	if len(es) != 2 || es[0] != [2]int{0, 2} || es[1] != [2]int{1, 3} {
		t.Fatalf("edges %v", es)
	}
}

func TestBFSDistances(t *testing.T) {
	g := NewUndirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	d := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, -1}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("dist[%d]=%d, want %d", i, d[i], v)
		}
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := NewUndirected(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	if !g.Connected([]int{0, 2}) {
		t.Fatal("0-2 connected")
	}
	if g.Connected([]int{0, 4}) {
		t.Fatal("0-4 not connected")
	}
	comp := g.ConnectedComponent(4)
	if !comp[5] || comp[0] {
		t.Fatalf("component of 4: %v", comp)
	}
}

func TestSubgraph(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	s := g.Subgraph(map[int]bool{0: true, 1: true, 2: true})
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 2) || s.HasEdge(2, 3) {
		t.Fatal("induced subgraph wrong")
	}
}

func TestQueryDistance(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	qd := g.QueryDistance([]int{0, 3})
	// node 1: max(1, 2) = 2; node 2: max(2,1) = 2.
	if qd[1] != 2 || qd[2] != 2 || qd[0] != 3 || qd[3] != 3 {
		t.Fatalf("query distances %v", qd)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewUndirected(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone shares storage")
	}
}

func TestSignedGraph(t *testing.T) {
	g := NewSigned(4)
	g.SetEdge(0, 1, Synergy)
	g.SetEdge(1, 2, Antagonism)
	g.SetEdge(2, 3, NoInteraction)
	if s, ok := g.Edge(1, 0); !ok || s != Synergy {
		t.Fatal("edge lookup should be symmetric")
	}
	syn, ant, zero := g.CountBySign()
	if syn != 1 || ant != 1 || zero != 1 {
		t.Fatalf("counts %d %d %d", syn, ant, zero)
	}
	if _, ok := g.Edge(0, 3); ok {
		t.Fatal("unrecorded edge should not exist")
	}
}

func TestSignedNeighborsFilter(t *testing.T) {
	g := NewSigned(4)
	g.SetEdge(0, 1, Synergy)
	g.SetEdge(0, 2, Antagonism)
	g.SetEdge(0, 3, Synergy)
	syn := g.Neighbors(0, func(s Sign) bool { return s == Synergy })
	if len(syn) != 2 || syn[0] != 1 || syn[1] != 3 {
		t.Fatalf("synergy neighbors %v", syn)
	}
	all := g.Neighbors(0, nil)
	if len(all) != 3 {
		t.Fatalf("all neighbors %v", all)
	}
}

func TestSignedInteractingSkeleton(t *testing.T) {
	g := NewSigned(4)
	g.SetEdge(0, 1, Synergy)
	g.SetEdge(1, 2, NoInteraction)
	g.SetEdge(2, 3, Antagonism)
	u := g.Interacting()
	if !u.HasEdge(0, 1) || !u.HasEdge(2, 3) {
		t.Fatal("non-zero edges must appear")
	}
	if u.HasEdge(1, 2) {
		t.Fatal("zero edges must be excluded from the skeleton")
	}
}

func TestSignedEdgesDeterministic(t *testing.T) {
	g := NewSigned(4)
	g.SetEdge(3, 0, Synergy)
	g.SetEdge(2, 1, Antagonism)
	el := g.Edges()
	if len(el.U) != 2 || el.U[0] != 0 || el.V[0] != 3 || el.U[1] != 1 || el.V[1] != 2 {
		t.Fatalf("edge list %v %v", el.U, el.V)
	}
}

func TestSignStrings(t *testing.T) {
	if Synergy.String() != "synergy" || Antagonism.String() != "antagonism" || NoInteraction.String() != "none" {
		t.Fatal("sign strings wrong")
	}
}
