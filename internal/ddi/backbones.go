package ddi

import (
	"math/rand"

	"dssddi/internal/ag"
	"dssddi/internal/graph"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
	"dssddi/internal/sparse"
)

// encoder produces drug relation embeddings (N x Hidden) on a tape:
// training records its forward pass there, and the final embeddings
// are one more replay of it.
type encoder interface {
	embed(t *ag.Tape) *ag.Node
}

// signEdges extracts the directed edge lists (both directions of every
// undirected edge) of one sign.
func signEdges(g *graph.Signed, want graph.Sign) (src, dst []int) {
	el := g.Edges()
	src = make([]int, 0, 2*len(el.U))
	dst = make([]int, 0, 2*len(el.U))
	for i := range el.U {
		if el.S[i] != want {
			continue
		}
		src = append(src, el.U[i], el.V[i])
		dst = append(dst, el.V[i], el.U[i])
	}
	return
}

// meanAdj builds the mean-aggregation operator over edges of the given
// signs (each undirected edge contributes both directions).
func meanAdj(g *graph.Signed, signs ...graph.Sign) *sparse.CSR {
	wanted := make(map[graph.Sign]bool, len(signs))
	for _, s := range signs {
		wanted[s] = true
	}
	var edges []sparse.Edge
	el := g.Edges()
	for i := range el.U {
		if wanted[el.S[i]] {
			edges = append(edges, sparse.Edge{U: el.U[i], V: el.V[i], Weight: 1})
		}
	}
	return sparse.MeanAdjacency(g.N(), edges)
}

// incidence builds the (n x E) mean-aggregation operator mapping
// per-edge messages to destination nodes: row v holds 1/indeg(v) at
// every edge whose destination is v.
func incidence(n int, dst []int) *sparse.CSR {
	indeg := make([]float64, n)
	for _, v := range dst {
		indeg[v]++
	}
	b := sparse.NewBuilder(n, len(dst))
	for e, v := range dst {
		b.Add(v, e, 1/indeg[v])
	}
	return b.Build()
}

// broadcastScalar expands a 1x1 parameter to an n x 1 column on the
// tape (used for GIN's learnable epsilon). idx is a caller-retained
// all-zero index slice so replay epochs allocate nothing.
func broadcastScalar(t *ag.Tape, p *mat.Dense, idx []int) *ag.Node {
	return t.GatherRows(t.Param(p), idx)
}

// --- GIN -------------------------------------------------------------

// ginEncoder implements Eq. 1: z_v = MLP((1+eps) z_v + mean_{u∈N(v)} z_u),
// with BatchNorm+ReLU after every layer, message passing over all
// non-zero interaction edges.
type ginEncoder struct {
	input  *nn.Linear
	layers []*nn.Linear
	norms  []*nn.BatchNorm
	eps    []*mat.Dense // learnable 1x1 per layer
	adj    *sparse.CSR
	oneHot *mat.Dense
	bidx   []int // retained all-zero index for the eps broadcast
	hidden int
}

func newGIN(rng *rand.Rand, ps *nn.Params, g *graph.Signed, hidden, layers int) *ginEncoder {
	e := &ginEncoder{
		input:  nn.NewLinear(rng, ps, g.N(), hidden),
		adj:    meanAdj(g, graph.Synergy, graph.Antagonism),
		oneHot: mat.OneHot(g.N()),
		bidx:   make([]int, g.N()),
		hidden: hidden,
	}
	for l := 0; l < layers; l++ {
		e.layers = append(e.layers, nn.NewLinear(rng, ps, hidden, hidden))
		e.norms = append(e.norms, nn.NewBatchNorm(ps, hidden))
		e.eps = append(e.eps, ps.Register(mat.New(1, 1)))
	}
	return e
}

func (e *ginEncoder) embed(t *ag.Tape) *ag.Node {
	h := e.input.Apply(t, t.Const(e.oneHot))
	for l, lin := range e.layers {
		agg := t.SpMM(e.adj, h)
		epsCol := broadcastScalar(t, e.eps[l], e.bidx)
		pre := t.Add(t.Add(h, t.ScaleRows(h, epsCol)), agg)
		h = e.norms[l].Apply(t, lin.Apply(t, pre))
		// The final layer stays linear so the inner-product decoder
		// (Eq. 5) can reach the -1 antagonism target.
		if l < len(e.layers)-1 {
			h = t.ReLU(h)
		}
	}
	return h
}

// --- SGCN ------------------------------------------------------------

// sgcnEncoder implements Eqs. 2-4: separate balanced (synergy-reachable)
// and unbalanced (antagonism-reachable) representations, combined by
// concatenation. Each side has hidden/2 dimensions so z keeps the
// configured width.
type sgcnEncoder struct {
	inputB, inputU *nn.Linear
	wB, wU         []*nn.Linear
	adjSyn, adjAnt *sparse.CSR
	oneHot         *mat.Dense
}

func newSGCN(rng *rand.Rand, ps *nn.Params, g *graph.Signed, hidden, layers int) *sgcnEncoder {
	half := hidden / 2
	e := &sgcnEncoder{
		inputB: nn.NewLinear(rng, ps, g.N(), half),
		inputU: nn.NewLinear(rng, ps, g.N(), half),
		adjSyn: meanAdj(g, graph.Synergy),
		adjAnt: meanAdj(g, graph.Antagonism),
		oneHot: mat.OneHot(g.N()),
	}
	for l := 0; l < layers; l++ {
		e.wB = append(e.wB, nn.NewLinear(rng, ps, 3*half, half))
		e.wU = append(e.wU, nn.NewLinear(rng, ps, 3*half, half))
	}
	return e
}

func (e *sgcnEncoder) embed(t *ag.Tape) *ag.Node {
	x := t.Const(e.oneHot)
	hB := e.inputB.Apply(t, x)
	hU := e.inputU.Apply(t, x)
	for l := range e.wB {
		// Eq. 2: balanced side sees synergy-neighbours' balanced reps
		// and antagonism-neighbours' unbalanced reps.
		bIn := t.ConcatCols(t.ConcatCols(t.SpMM(e.adjSyn, hB), t.SpMM(e.adjAnt, hU)), hB)
		// Eq. 3: unbalanced side mirrors it.
		uIn := t.ConcatCols(t.ConcatCols(t.SpMM(e.adjSyn, hU), t.SpMM(e.adjAnt, hB)), hU)
		// σ = tanh, as in the original SGCN; its signed range lets the
		// inner-product decoder reach the -1 antagonism target.
		hB = t.Tanh(e.wB[l].Apply(t, bIn))
		hU = t.Tanh(e.wU[l].Apply(t, uIn))
	}
	return t.ConcatCols(hB, hU) // Eq. 4
}

// --- Signed attention backbones ---------------------------------------

// attnKind distinguishes the two attention backbones.
type attnKind int

const (
	kindSiGAT attnKind = iota
	kindSNEA
)

// attnEncoder implements the attention-based signed encoders. Per sign,
// per layer, each directed edge (u→v) receives an attention weight:
//
//	SiGAT: α = σ(LeakyReLU(a·[h_u, h_v]))       (concat attention)
//	SNEA:  α = σ(LeakyReLU((W h_u)·(W h_v)))    (bilinear attention)
//
// Messages h_u are scaled by α and mean-aggregated at v; the layer
// combines [agg_syn, agg_ant, h] with a linear transform and ReLU.
// These are faithful simplifications of the published models: the
// originals' motif enumeration (SiGAT) and softmax normalisation
// (SNEA) are replaced with sigmoid gates, which preserves the
// sign-aware attention structure the paper's comparison probes.
type attnEncoder struct {
	kind    attnKind
	input   *nn.Linear
	combine []*nn.Linear
	attnSyn []*nn.Linear // per layer attention scorer for synergy
	attnAnt []*nn.Linear
	projSyn []*nn.Linear // SNEA bilinear projections
	projAnt []*nn.Linear
	srcSyn  []int
	dstSyn  []int
	srcAnt  []int
	dstAnt  []int
	incSyn  *sparse.CSR
	incAnt  *sparse.CSR
	oneHot  *mat.Dense
	zeroAgg *mat.Dense // retained placeholder for a missing sign
	hidden  int
	haveSyn bool
	haveAnt bool
}

func newAttn(rng *rand.Rand, ps *nn.Params, g *graph.Signed, hidden, layers int, kind attnKind) *attnEncoder {
	e := &attnEncoder{
		kind:   kind,
		input:  nn.NewLinear(rng, ps, g.N(), hidden),
		oneHot: mat.OneHot(g.N()),
		hidden: hidden,
	}
	e.srcSyn, e.dstSyn = signEdges(g, graph.Synergy)
	e.srcAnt, e.dstAnt = signEdges(g, graph.Antagonism)
	e.haveSyn = len(e.srcSyn) > 0
	e.haveAnt = len(e.srcAnt) > 0
	if e.haveSyn {
		e.incSyn = incidence(g.N(), e.dstSyn)
	}
	if e.haveAnt {
		e.incAnt = incidence(g.N(), e.dstAnt)
	}
	if !e.haveSyn || !e.haveAnt {
		e.zeroAgg = mat.New(g.N(), hidden)
	}
	for l := 0; l < layers; l++ {
		e.combine = append(e.combine, nn.NewLinear(rng, ps, 3*hidden, hidden))
		switch kind {
		case kindSiGAT:
			e.attnSyn = append(e.attnSyn, nn.NewLinear(rng, ps, 2*hidden, 1))
			e.attnAnt = append(e.attnAnt, nn.NewLinear(rng, ps, 2*hidden, 1))
		case kindSNEA:
			e.projSyn = append(e.projSyn, nn.NewLinear(rng, ps, hidden, hidden))
			e.projAnt = append(e.projAnt, nn.NewLinear(rng, ps, hidden, hidden))
		}
	}
	return e
}

// attend computes the attention-weighted mean aggregation for one sign
// at layer l.
func (e *attnEncoder) attend(t *ag.Tape, h *ag.Node, l int, src, dst []int,
	inc *sparse.CSR, attn, proj *nn.Linear) *ag.Node {

	hu := t.GatherRows(h, src)
	hv := t.GatherRows(h, dst)
	var logits *ag.Node
	if e.kind == kindSiGAT {
		logits = attn.Apply(t, t.ConcatCols(hu, hv))
	} else {
		logits = t.RowDot(proj.Apply(t, hu), proj.Apply(t, hv))
	}
	alpha := t.Sigmoid(t.LeakyReLU(logits, 0.2))
	msg := t.ScaleRows(hu, alpha)
	return t.SpMM(inc, msg)
}

func (e *attnEncoder) embed(t *ag.Tape) *ag.Node {
	h := e.input.Apply(t, t.Const(e.oneHot))
	// Retained zero aggregate placeholder for a missing sign (the
	// common both-signs case never touches it).
	zero := func() *ag.Node { return t.Const(e.zeroAgg) }
	for l := range e.combine {
		var aggSyn, aggAnt *ag.Node
		var attnS, attnA, projS, projA *nn.Linear
		if e.kind == kindSiGAT {
			attnS, attnA = e.attnSyn[l], e.attnAnt[l]
		} else {
			projS, projA = e.projSyn[l], e.projAnt[l]
		}
		if e.haveSyn {
			aggSyn = e.attend(t, h, l, e.srcSyn, e.dstSyn, e.incSyn, attnS, projS)
		} else {
			aggSyn = zero()
		}
		if e.haveAnt {
			aggAnt = e.attend(t, h, l, e.srcAnt, e.dstAnt, e.incAnt, attnA, projA)
		} else {
			aggAnt = zero()
		}
		h = e.combine[l].Apply(t, t.ConcatCols(t.ConcatCols(aggSyn, aggAnt), h))
		// Keep the final layer linear for the signed decoder.
		if l < len(e.combine)-1 {
			h = t.ReLU(h)
		}
	}
	return h
}
