package baselines

import (
	"math/rand"

	"dssddi/internal/ag"
	"dssddi/internal/dataset"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
	"dssddi/internal/optim"
	"dssddi/internal/par"
)

// gnnBase carries the plumbing shared by the bipartite GNN baselines:
// the observed training view and its 1:1 pair sampler.
type gnnBase struct {
	d      *dataset.Dataset
	obs    dataset.Observed
	pairs  *dataset.Pairs
	rng    *rand.Rand
	params nn.Params
}

func (g *gnnBase) prepare(d *dataset.Dataset, seed int64) {
	g.d = d
	g.rng = rand.New(rand.NewSource(seed))
	g.obs = d.Observed()
	g.pairs = dataset.NewPairs(g.obs.Y)
}

// train runs Adam over a forward closure producing the loss, one
// nn.Step per epoch. One retained tape is reset and replayed per
// epoch, so steady-state epochs reuse the previous epoch's graph and
// buffers.
func train(ps *nn.Params, epochs int, lr, weightDecay float64, forward func(t *ag.Tape) *ag.Node) {
	opt := optim.NewAdam(lr)
	opt.WeightDecay = weightDecay
	tape := ag.NewTape()
	grads := make([]*mat.Dense, len(ps.All()))
	for e := 0; e < epochs; e++ {
		tape.Reset()
		nn.Step(tape, forward(tape), ps, grads, opt)
	}
}

// LightGCN is He et al.'s simplified GCN recommender in its original
// form: free ID embeddings for patients and drugs, no feature
// transforms or nonlinearities during propagation, layer outputs
// combined by averaging. Because the model is transductive, unobserved
// patients are scored through an inductive extension: their
// representation is the feature-cosine-weighted average of observed
// patients' final representations. This is also the model whose
// propagated patient representations the paper's Fig. 7 shows to be
// over-smoothed.
type LightGCN struct {
	Hidden      int
	Layers      int
	Epochs      int
	LR          float64
	WeightDecay float64
	Seed        int64

	gnnBase
	patEmb  *nn.Embedding
	drugEmb *nn.Embedding
}

// NewLightGCN returns the baseline with the experiments'
// configuration.
func NewLightGCN() *LightGCN {
	return &LightGCN{Hidden: 64, Layers: 2, Epochs: 250, LR: 0.01, WeightDecay: 1e-4, Seed: 1}
}

// Name implements Suggester.
func (l *LightGCN) Name() string { return "LightGCN" }

// encode propagates and returns (patient reps, drug reps) after layer
// averaging.
func (l *LightGCN) encode(t *ag.Tape) (*ag.Node, *ag.Node) {
	p0 := l.patEmb.Full(t)
	d0 := l.drugEmb.Full(t)
	pSum, dSum := p0, d0
	pT, dT := p0, d0
	for layer := 1; layer <= l.Layers; layer++ {
		pNext := t.SpMM(l.obs.L2R, dT)
		dNext := t.SpMM(l.obs.R2L, pT)
		pT, dT = pNext, dNext
		pSum = t.Add(pSum, pT)
		dSum = t.Add(dSum, dT)
	}
	scale := 1 / float64(l.Layers+1)
	return t.Scale(pSum, scale), t.Scale(dSum, scale)
}

// Fit implements Suggester.
func (l *LightGCN) Fit(d *dataset.Dataset) {
	l.prepare(d, l.Seed)
	rng := rand.New(rand.NewSource(l.Seed))
	l.patEmb = nn.NewEmbedding(rng, &l.params, len(d.Train), l.Hidden)
	l.drugEmb = nn.NewEmbedding(rng, &l.params, d.NumDrugs(), l.Hidden)
	train(&l.params, l.Epochs, l.LR, l.WeightDecay, func(t *ag.Tape) *ag.Node {
		ps, vs, y := l.pairs.Sample(l.rng)
		hp, hd := l.encode(t)
		logits := t.RowDot(t.GatherRows(hp, ps), t.GatherRows(hd, vs))
		return t.BCEWithLogits(logits, y)
	})
}

// repsFor returns the representation LightGCN uses for each GLOBAL
// patient index: observed patients use their propagated embedding;
// unobserved patients the feature-cosine-weighted average of observed
// patients' final representations (the inductive extension).
func (l *LightGCN) repsFor(hpTrain *mat.Dense, patients []int) *mat.Dense {
	d := l.d
	trainPos := make(map[int]int, len(d.Train))
	for ti, p := range d.Train {
		trainPos[p] = ti
	}
	// Each patient's representation is independent, so the similarity
	// search fans out across the shared worker pool.
	hp := mat.New(len(patients), l.Hidden)
	par.For(len(patients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := patients[i]
			if ti, ok := trainPos[p]; ok {
				copy(hp.Row(i), hpTrain.Row(ti))
				continue
			}
			xi := d.X.Row(p)
			row := hp.Row(i)
			var wsum float64
			for ti, o := range d.Train {
				sim := mat.CosineSimilarity(xi, d.X.Row(o))
				if sim <= 0 {
					continue
				}
				wsum += sim
				orow := hpTrain.Row(ti)
				for j, v := range orow {
					row[j] += sim * v
				}
			}
			if wsum > 0 {
				for j := range row {
					row[j] /= wsum
				}
			}
		}
	})
	return hp
}

// Scores implements Suggester.
func (l *LightGCN) Scores(patients []int) *mat.Dense {
	t := ag.NewTape()
	hpTrain, hd := l.encode(t)
	hp := l.repsFor(hpTrain.Value, patients)
	out := mat.MatMulTransB(hp, hd.Value)
	applySigmoid(out)
	return out
}

// PatientRepresentations returns the representations used to score the
// given GLOBAL patient indices (Fig. 7's over-smoothing probe; the
// paper samples 100 test patients).
func (l *LightGCN) PatientRepresentations(patients []int) *mat.Dense {
	t := ag.NewTape()
	hpTrain, _ := l.encode(t)
	return l.repsFor(hpTrain.Value, patients)
}

// DrugRepresentations returns the propagated drug embeddings.
func (l *LightGCN) DrugRepresentations() *mat.Dense {
	t := ag.NewTape()
	_, hd := l.encode(t)
	return t.Detach(hd) // single-use tape: hand the value over, no copy
}

func applySigmoid(m *mat.Dense) {
	m.ApplyInPlace(sigmoidSafe)
}

// GCMC is Berg et al.'s graph convolutional matrix completion adapted
// to implicit binary feedback: one message-passing layer with a weight
// matrix and ReLU per direction, dense (feature) side channels, and a
// bilinear decoder.
type GCMC struct {
	Hidden      int
	Epochs      int
	LR          float64
	WeightDecay float64
	Seed        int64

	gnnBase
	patFC, drugFC *nn.Linear // side-feature channels
	convP, convD  *nn.Linear // message transforms
	bilinear      *mat.Dense // decoder Q
}

// NewGCMC returns the baseline with the experiments' configuration.
func NewGCMC() *GCMC {
	return &GCMC{Hidden: 64, Epochs: 250, LR: 0.01, WeightDecay: 1e-4, Seed: 1}
}

// Name implements Suggester.
func (g *GCMC) Name() string { return "GCMC" }

func (g *GCMC) encode(t *ag.Tape) (*ag.Node, *ag.Node) {
	p0 := t.ReLU(g.patFC.Apply(t, t.Const(g.obs.X)))
	d0 := t.ReLU(g.drugFC.Apply(t, t.Const(g.obs.DrugFeat)))
	// One graph-convolution layer per direction with transform+ReLU.
	p1 := t.ReLU(g.convP.Apply(t, t.SpMM(g.obs.L2R, d0)))
	d1 := t.ReLU(g.convD.Apply(t, t.SpMM(g.obs.R2L, p0)))
	return t.Add(p0, p1), t.Add(d0, d1)
}

// Fit implements Suggester.
func (g *GCMC) Fit(d *dataset.Dataset) {
	g.prepare(d, g.Seed)
	rng := rand.New(rand.NewSource(g.Seed))
	g.patFC = nn.NewLinear(rng, &g.params, d.X.Cols(), g.Hidden)
	g.drugFC = nn.NewLinear(rng, &g.params, g.obs.DrugFeat.Cols(), g.Hidden)
	g.convP = nn.NewLinear(rng, &g.params, g.Hidden, g.Hidden)
	g.convD = nn.NewLinear(rng, &g.params, g.Hidden, g.Hidden)
	g.bilinear = g.params.Register(mat.GlorotUniform(rng, g.Hidden, g.Hidden))
	train(&g.params, g.Epochs, g.LR, g.WeightDecay, func(t *ag.Tape) *ag.Node {
		ps, vs, y := g.pairs.Sample(g.rng)
		hp, hd := g.encode(t)
		// Bilinear decode: (h_p Q) · h_d.
		hq := t.MatMul(t.GatherRows(hp, ps), t.Param(g.bilinear))
		logits := t.RowDot(hq, t.GatherRows(hd, vs))
		return t.BCEWithLogits(logits, y)
	})
}

// Scores implements Suggester. Unobserved patients have no incident
// links, so their message aggregation is the zero vector; running the
// convolution on zeros keeps their representation in the same space
// the decoder was trained in.
func (g *GCMC) Scores(patients []int) *mat.Dense {
	t := ag.NewTape()
	_, hd := g.encode(t)
	p0 := t.ReLU(g.patFC.Apply(t, t.Const(g.d.Rows(patients))))
	zeroAgg := t.Const(mat.New(len(patients), g.Hidden))
	p1 := t.ReLU(g.convP.Apply(t, zeroAgg))
	hp := t.Add(p0, p1)
	hq := mat.MatMul(hp.Value, g.bilinear)
	out := mat.MatMulTransB(hq, hd.Value)
	applySigmoid(out)
	return out
}

// BiparGCN is Jin et al.'s two-tower bipartite GCN: structurally
// identical patient-oriented and drug-oriented networks with separate
// parameters, two propagation layers with transforms, dot-product
// decoding.
type BiparGCN struct {
	Hidden      int
	Layers      int
	Epochs      int
	LR          float64
	WeightDecay float64
	Seed        int64

	gnnBase
	patFC, drugFC *nn.Linear
	patConv       []*nn.Linear
	drugConv      []*nn.Linear
}

// NewBiparGCN returns the baseline with the experiments'
// configuration.
func NewBiparGCN() *BiparGCN {
	return &BiparGCN{Hidden: 64, Layers: 2, Epochs: 250, LR: 0.01, WeightDecay: 1e-4, Seed: 1}
}

// Name implements Suggester.
func (b *BiparGCN) Name() string { return "Bipar-GCN" }

func (b *BiparGCN) encode(t *ag.Tape) (*ag.Node, *ag.Node) {
	hp := t.ReLU(b.patFC.Apply(t, t.Const(b.obs.X)))
	hd := t.ReLU(b.drugFC.Apply(t, t.Const(b.obs.DrugFeat)))
	for l := 0; l < b.Layers; l++ {
		hpNext := t.ReLU(b.patConv[l].Apply(t, t.ConcatCols(hp, t.SpMM(b.obs.L2R, hd))))
		hdNext := t.ReLU(b.drugConv[l].Apply(t, t.ConcatCols(hd, t.SpMM(b.obs.R2L, hp))))
		hp, hd = hpNext, hdNext
	}
	return hp, hd
}

// Fit implements Suggester.
func (b *BiparGCN) Fit(d *dataset.Dataset) {
	b.prepare(d, b.Seed)
	rng := rand.New(rand.NewSource(b.Seed))
	b.patFC = nn.NewLinear(rng, &b.params, d.X.Cols(), b.Hidden)
	b.drugFC = nn.NewLinear(rng, &b.params, b.obs.DrugFeat.Cols(), b.Hidden)
	for l := 0; l < b.Layers; l++ {
		b.patConv = append(b.patConv, nn.NewLinear(rng, &b.params, 2*b.Hidden, b.Hidden))
		b.drugConv = append(b.drugConv, nn.NewLinear(rng, &b.params, 2*b.Hidden, b.Hidden))
	}
	train(&b.params, b.Epochs, b.LR, b.WeightDecay, func(t *ag.Tape) *ag.Node {
		ps, vs, y := b.pairs.Sample(b.rng)
		hp, hd := b.encode(t)
		logits := t.RowDot(t.GatherRows(hp, ps), t.GatherRows(hd, vs))
		return t.BCEWithLogits(logits, y)
	})
}

// Scores implements Suggester. Unobserved patients run through the full
// patient tower with zero neighbourhood aggregations (they have no
// links yet), which keeps their representation in the space the
// decoder was trained in.
func (b *BiparGCN) Scores(patients []int) *mat.Dense {
	t := ag.NewTape()
	_, hd := b.encode(t)
	hp := t.ReLU(b.patFC.Apply(t, t.Const(b.d.Rows(patients))))
	for l := 0; l < b.Layers; l++ {
		zeroAgg := t.Const(mat.New(len(patients), b.Hidden))
		hp = t.ReLU(b.patConv[l].Apply(t, t.ConcatCols(hp, zeroAgg)))
	}
	out := mat.MatMulTransB(hp.Value, hd.Value)
	applySigmoid(out)
	return out
}
