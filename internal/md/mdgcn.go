package md

import (
	"math/rand"
	"sync"

	"dssddi/internal/ag"
	"dssddi/internal/dataset"
	"dssddi/internal/mat"
	"dssddi/internal/metrics"
	"dssddi/internal/nn"
	"dssddi/internal/optim"
	"dssddi/internal/par"
)

// Config tunes MDGCN training. Defaults follow Section V-A3: hidden 64,
// 2 propagation layers with βt = 1/(t+2), LeakyReLU after the fully
// connected layers, Adam at 0.01, 1000 epochs, δ = 1.
type Config struct {
	Hidden      int
	PropLayers  int
	Epochs      int
	LR          float64
	Delta       float64 // weight of the counterfactual loss (Eq. 18)
	WeightDecay float64
	Seed        int64
	CF          CFConfig
	// UseDDI controls whether the shared DDI relation embeddings are
	// added to the final drug representations (the paper's h'_v + z_v;
	// switched off for the "w/o DDI" ablation).
	UseDDI bool
	// UseCounterfactual toggles the counterfactual loss entirely
	// (equivalent to Delta = 0 but also skips mining).
	UseCounterfactual bool
	// SelectOnVal enables validation-based model selection (the paper
	// selects hyperparameters/checkpoints on the validation split):
	// every ValEvery epochs the NDCG@4 over the dataset's Val patients
	// is computed and the best-scoring parameters are restored after
	// training.
	SelectOnVal bool
	ValEvery    int
}

// DefaultConfig mirrors the paper's hyperparameters.
func DefaultConfig() Config {
	return Config{
		Hidden:      64,
		PropLayers:  2,
		Epochs:      1000,
		LR:          0.01,
		Delta:       1,
		WeightDecay: 1e-4,
		Seed:        1,
		CF:          DefaultCFConfig(),
		UseDDI:      true,

		UseCounterfactual: true,
		SelectOnVal:       true,
		ValEvery:          25,
	}
}

// Model is the Medical Decision GCN. It owns the patient/drug encoders
// (Eqs. 9-10), the bipartite propagation (Eqs. 11-13) and the MLP
// decoder (Eqs. 14-15).
type Model struct {
	Config    Config
	Data      *dataset.Dataset
	Treatment *Treatment

	params  nn.Params
	fcPat   *nn.MLP    // Eq. 9 ("two fully connected layers")
	fcDrug  *nn.Linear // Eq. 10
	relProj *nn.Linear // projects relation embeddings to Hidden when needed
	decoder *nn.MLP    // Eqs. 14-15

	relEmb *mat.Dense // m x r DDI relation embeddings (may be nil)

	// Training state, which serving models lack: the observed patients
	// and drug features with their propagation operators, the 1:1 pair
	// sampler over obs.Y, the counterfactual miner, one tape replayed
	// every epoch, a reused gradient slice and the per-epoch treatment
	// and counterfactual columns epochPairs refills.
	obs                     dataset.Observed
	pairs                   *dataset.Pairs
	miner                   *Miner
	rng                     *rand.Rand
	tape                    *ag.Tape
	grads                   []*mat.Dense
	pairT, pairCFY, pairCFT *mat.Dense

	// drugCache holds the final drug representations h'_v once training
	// finishes, so scoring a patient is a cached-embedding lookup plus
	// decoder call (no propagation).
	drugCache *mat.Dense

	// pd is the fused pair decoder over the decoder's live weights and
	// f32 the float32 view SetPrecision derived from the frozen model
	// (nil at F64, dropped when Train moves the parameters). scratch
	// pools the tiled engine's per-goroutine buffers; see score.go.
	pd      *nn.PairDecoder[float64]
	f32     *view[float32]
	scratch sync.Pool

	// Lazily built inputs of the inductive patient layer (see
	// inductive.go): the per-layer drug representations d_0..d_{L-1}
	// and the drugs' observed bipartite degrees. Guarded by indMu;
	// invalidated when Train moves the parameters.
	indMu     sync.Mutex
	indLayers []*mat.Dense
	indDeg    []float64
}

// NewModel assembles an MDGCN over the dataset. relEmb is the drug
// relation embedding matrix produced by the DDI module (nil for the
// w/o-DDI ablation); its rows are L2-normalised so backbones with
// different output scales contribute comparably to h'_v + z_v. Drug
// input features default to the dataset's pretrained features or
// one-hot IDs.
func NewModel(d *dataset.Dataset, relEmb *mat.Dense, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rel := 0
	if relEmb != nil {
		relEmb = relEmb.Clone()
		par.For(relEmb.Rows(), 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := relEmb.Row(i)
				if n := mat.Norm2(row); n > 0 {
					for j := range row {
						row[j] /= n
					}
				}
			}
		})
		rel = relEmb.Cols()
	}
	m := newModel(rng, d, cfg, rel)
	m.relEmb, m.obs = relEmb, d.Observed()
	m.Treatment = BuildTreatment(rng, m.obs.X, m.obs.Y, d.DDI, d.NumClusters)

	// Pairs over LOCAL train indices (0..len(Train)-1).
	m.pairs = dataset.NewPairs(m.obs.Y)
	n := m.pairs.Len()
	m.pairT = mat.New(n, 1)
	if cfg.UseCounterfactual {
		m.miner = NewMiner(m.obs.X, m.obs.DrugFeat, m.Treatment.T, m.obs.Y, cfg.CF)
		m.pairCFY, m.pairCFT = mat.New(n, 1), mat.New(n, 1)
	}
	m.rng = rng
	m.pd, _ = nn.NewPairDecoder(m.decoder)
	return m
}

// newModel builds MDGCN's layers over d for relation embeddings rel
// columns wide (0 for none): the patient encoder, the drug encoder, a
// projection of the relation embeddings when they are neither absent
// nor Hidden wide, and the decoder, drawing their initial weights from
// rng in that order. NewModel and Decode both build through here; a
// nil rng leaves every parameter unallocated for Decode to read in.
func newModel(rng *rand.Rand, d *dataset.Dataset, cfg Config, rel int) *Model {
	m := &Model{Config: cfg, Data: d}
	m.fcPat = nn.NewMLP(rng, &m.params, []int{d.X.Cols(), cfg.Hidden, cfg.Hidden}, nn.ActLeakyReLU)
	m.fcPat.OutAct = nn.ActLeakyReLU
	m.fcDrug = nn.NewLinear(rng, &m.params, d.DrugFeatureWidth(), cfg.Hidden)
	if rel != 0 && rel != cfg.Hidden {
		m.relProj = nn.NewLinear(rng, &m.params, rel, cfg.Hidden)
	}
	m.decoder = nn.NewMLP(rng, &m.params, []int{cfg.Hidden + 1, cfg.Hidden, 1}, nn.ActLeakyReLU)
	return m
}

// epochPairs builds this epoch's training pairs (the 1:1 sample of
// m.pairs) together with the treatment column and — when enabled —
// the counterfactual treatment/outcome columns. The returned slices
// and matrices are model-retained buffers refilled in place, so an
// epoch allocates nothing here.
func (m *Model) epochPairs() (ps, vs []int, y, tr, cfY, cfT *mat.Dense) {
	ps, vs, y = m.pairs.Sample(m.rng)
	td := m.pairT.Data()
	for i := range ps {
		td[i] = m.Treatment.T.At(ps[i], vs[i])
	}
	tr = m.pairT
	if m.miner != nil {
		cfYd, cfTd := m.pairCFY.Data(), m.pairCFT.Data()
		for i := range ps {
			cfTd[i], cfYd[i], _ = m.miner.Mine(ps[i], vs[i])
		}
		cfY, cfT = m.pairCFY, m.pairCFT
	}
	return
}

// encode runs Eqs. 9-13 on a tape: patient hidden reps (pre-propagation,
// per the paper's anti-over-smoothing design), and final drug reps
// including the βt layer combination and the shared DDI embeddings.
func (m *Model) encode(t *ag.Tape) (hPat, hDrugFinal *ag.Node) {
	hPat = m.fcPat.Apply(t, t.Const(m.obs.X))                              // Eq. 9
	hDrug := t.LeakyReLU(m.fcDrug.Apply(t, t.Const(m.obs.DrugFeat)), 0.01) // Eq. 10

	// Propagation (Eqs. 11-12) with layer combination (Eq. 13):
	// beta_t = 1/(t+2).
	pT, dT := hPat, hDrug
	hDrugFinal = t.Scale(hDrug, beta(0))
	for layer := 1; layer <= m.Config.PropLayers; layer++ {
		pNext := t.SpMM(m.obs.L2R, dT)
		dNext := t.SpMM(m.obs.R2L, pT)
		pT, dT = pNext, dNext
		hDrugFinal = t.Add(hDrugFinal, t.Scale(dT, beta(layer)))
	}
	// h'_v = h'_v + z_v (shared DDI relation embeddings).
	if m.Config.UseDDI && m.relEmb != nil {
		rel := t.Const(m.relEmb)
		var relNode *ag.Node
		if m.relProj != nil {
			relNode = m.relProj.Apply(t, rel)
		} else {
			relNode = rel
		}
		hDrugFinal = t.Add(hDrugFinal, relNode)
	}
	return hPat, hDrugFinal
}

func beta(t int) float64 { return 1 / float64(t+2) }

// decodeInter builds the shared h_i ⊙ h'_v interaction term of the
// decoder (Eq. 14). The factual and counterfactual losses decode the
// same (patient, drug) pairs, so Train computes this once and feeds it
// to both decoder heads.
func (m *Model) decodeInter(t *ag.Tape, hPat, hDrug *ag.Node, pIdx, vIdx []int) *ag.Node {
	hi := t.GatherRows(hPat, pIdx)
	hv := t.GatherRows(hDrug, vIdx)
	return t.Hadamard(hi, hv)
}

// decodeWith scores pairs given their interaction term: MLP([inter,
// T_iv]) (Eqs. 14-15). treatments is an (E x 1) column.
func (m *Model) decodeWith(t *ag.Tape, inter *ag.Node, treatments *mat.Dense) *ag.Node {
	return m.decoder.Apply(t, t.ConcatCols(inter, t.Const(treatments)))
}

// Train fits the model, returning the loss history (L = LC + δ·LCF,
// Eq. 18). With SelectOnVal the parameters giving the best validation
// NDCG@4 are restored at the end. One retained tape serves every
// epoch: Reset + replay reuses the whole graph and its buffers, so
// steady-state epochs allocate ~nothing, and validation replays only
// the encoder prefix of that graph (inferDrugReps). The final drug
// representations are cached for the fused scoring engine. Train must
// not run concurrently with any other method of m.
func (m *Model) Train() []float64 {
	opt := optim.NewAdam(m.Config.LR)
	opt.WeightDecay = m.Config.WeightDecay
	losses := make([]float64, 0, m.Config.Epochs)
	valEvery := m.Config.ValEvery
	if valEvery <= 0 {
		valEvery = 25
	}
	m.drugCache = nil // params are about to move; never serve stale reps
	m.f32 = nil       // frozen-model state; drop it too
	m.indMu.Lock()
	m.indLayers, m.indDeg = nil, nil // same for the inductive layer inputs
	m.indMu.Unlock()
	if m.tape == nil {
		m.tape = ag.NewTape()
	}
	if len(m.grads) != len(m.params.All()) {
		m.grads = make([]*mat.Dense, len(m.params.All()))
	}
	bestVal := -1.0
	var bestSnap []*mat.Dense
	for epoch := 0; epoch < m.Config.Epochs; epoch++ {
		losses = append(losses, m.epoch(opt))
		if m.Config.SelectOnVal && len(m.Data.Val) > 0 &&
			((epoch+1)%valEvery == 0 || epoch == m.Config.Epochs-1) {
			if v := m.valNDCG(); v > bestVal {
				bestVal = v
				bestSnap = cloneParams(m.params.All())
			}
		}
	}
	if bestSnap != nil {
		restoreParams(m.params.All(), bestSnap)
	}
	m.drugCache = m.inferDrugReps().Clone()
	return losses
}

// epoch runs one training epoch on the retained tape: fresh pairs,
// the factual loss (Eq. 16) plus δ times the counterfactual loss over
// the same pairs (Eq. 17), and one nn.Step. It returns the loss.
func (m *Model) epoch(opt *optim.Adam) float64 {
	ps, vs, y, tr, cfY, cfT := m.epochPairs()
	t := m.tape
	t.Reset()
	hPat, hDrug := m.encode(t)
	inter := m.decodeInter(t, hPat, hDrug, ps, vs)
	loss := t.BCEWithLogits(m.decodeWith(t, inter, tr), y)
	if cfY != nil && m.Config.Delta > 0 {
		cfLoss := t.BCEWithLogits(m.decodeWith(t, inter, cfT), cfY)
		loss = t.Add(loss, t.Scale(cfLoss, m.Config.Delta))
	}
	return nn.Step(t, loss, &m.params, m.grads, opt)
}

// valNDCG scores the validation patients and returns NDCG@4.
func (m *Model) valNDCG() float64 {
	scores := m.Scores(m.Data.Val)
	sugg := make([][]int, len(m.Data.Val))
	truth := make([][]int, len(m.Data.Val))
	for i, p := range m.Data.Val {
		sugg[i] = metrics.TopK(scores.Row(i), 4)
		truth[i] = m.Data.TruePositives(p)
	}
	return metrics.NDCGAtK(sugg, truth, 4)
}

func cloneParams(params []*mat.Dense) []*mat.Dense {
	out := make([]*mat.Dense, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

func restoreParams(params, snap []*mat.Dense) {
	for i, p := range params {
		p.CopyFrom(snap[i])
	}
}

// inferDrugReps computes the final drug representations h'_v
// (Eqs. 10-13 plus the DDI embedding addition) by replaying encode,
// the first ops of the training graph, on the retained tape. During
// training that replay reuses the recorded nodes, so mid-training
// validation allocates nothing after its first run. The result is the
// tape node's buffer: it stays valid until the next Reset.
func (m *Model) inferDrugReps() *mat.Dense {
	if m.tape == nil {
		m.tape = ag.NewTape()
	}
	m.tape.Reset()
	_, hDrug := m.encode(m.tape)
	return hDrug.Value
}

// drugReps serves the final drug representations: from the
// post-training cache when available, recomputed on the tape otherwise
// (validation scoring mid-training). The fallback runs only while
// drugCache is nil, i.e. before Train finishes, and it must not run
// concurrently; serving models always hold the cache, because Decode
// requires it.
func (m *Model) drugReps() *mat.Dense {
	if m.drugCache != nil {
		return m.drugCache
	}
	return m.inferDrugReps()
}

// Scores predicts medication-use probabilities for the given GLOBAL
// patient indices (typically validation or test patients), returning a
// (len(patients) x drugs) matrix. Treatments for unobserved patients
// come from Treatment.InferRow. Scoring runs on the tiled fused engine
// in score.go — no autodiff machinery, no pair-matrix materialization —
// over the drug representations drugReps serves, and is bitwise
// identical to the batched reference path (reference_test.go) for any
// worker count.
func (m *Model) Scores(patients []int) *mat.Dense {
	out := mat.New(len(patients), m.Data.NumDrugs())
	m.ScoresInto(out, patients)
	return out
}

// PatientRepresentations returns the pre-propagation patient hidden
// representations (Eq. 9) for the given global patient indices — the
// representations the paper analyses in Fig. 7(a). Tape-free.
func (m *Model) PatientRepresentations(patients []int) *mat.Dense {
	return m.fcPat.Forward(m.Data.Rows(patients))
}

// DrugRepresentations returns the final drug representations h'_v
// (Fig. 7(b)), served from the post-training cache when available.
func (m *Model) DrugRepresentations() *mat.Dense {
	return m.drugReps().Clone()
}

// NumParams reports the trainable parameter count.
func (m *Model) NumParams() int { return m.params.Count() }
