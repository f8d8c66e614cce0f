package md

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"dssddi/internal/ag"
	"dssddi/internal/dataset"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
	"dssddi/internal/optim"
	"dssddi/internal/par"
	"dssddi/internal/sparse"
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

	drugFeat *mat.Dense // m x f drug input features
	relEmb   *mat.Dense // m x r DDI relation embeddings (may be nil)

	l2r, r2l *sparse.CSR // bipartite propagation operators
	trainX   *mat.Dense  // observed patients' features
	trainY   *mat.Dense  // observed patients' labels

	// Positive training pairs; negatives are resampled every epoch.
	posP, posV []int
	miner      *Miner
	rng        *rand.Rand

	// Retained training state: one tape replayed every epoch, a
	// reused gradient slice, and per-epoch pair buffers (epochPairs
	// refills them instead of reallocating).
	tape                           *ag.Tape
	grads                          []*mat.Dense
	pairP, pairV                   []int
	pairY, pairT, pairCFY, pairCFT *mat.Dense

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
	}
	m := &Model{Config: cfg, Data: d, relEmb: relEmb}

	m.drugFeat = d.DrugFeatures
	if m.drugFeat == nil {
		m.drugFeat = mat.OneHot(d.NumDrugs())
	}
	m.trainX = d.Rows(d.Train)
	m.trainY = d.Labels(d.Train)

	m.fcPat = nn.NewMLP(rng, &m.params, []int{d.X.Cols(), cfg.Hidden, cfg.Hidden}, nn.ActLeakyReLU)
	m.fcPat.OutAct = nn.ActLeakyReLU
	m.fcDrug = nn.NewLinear(rng, &m.params, m.drugFeat.Cols(), cfg.Hidden)
	if relEmb != nil && relEmb.Cols() != cfg.Hidden {
		m.relProj = nn.NewLinear(rng, &m.params, relEmb.Cols(), cfg.Hidden)
	}
	m.decoder = nn.NewMLP(rng, &m.params, []int{cfg.Hidden + 1, cfg.Hidden, 1}, nn.ActLeakyReLU)

	m.l2r, m.r2l = sparse.BipartiteNorm(len(d.Train), d.NumDrugs(), d.ObservedBipartite().Links())

	m.Treatment = BuildTreatment(rng, m.trainX, m.trainY, d.DDI, d.NumClusters)

	// Positive pairs over LOCAL train indices (0..len(Train)-1);
	// negatives are drawn fresh every epoch (1:1) to prevent the
	// decoder memorising a fixed negative set.
	for p := 0; p < m.trainY.Rows(); p++ {
		for v := 0; v < m.trainY.Cols(); v++ {
			if m.trainY.At(p, v) == 1 {
				m.posP = append(m.posP, p)
				m.posV = append(m.posV, v)
			}
		}
	}
	if cfg.UseCounterfactual {
		m.miner = NewMiner(m.trainX, m.drugFeat, m.Treatment.T, m.trainY, cfg.CF)
	}
	m.rng = rng
	m.pd, _ = nn.NewPairDecoder(m.decoder)
	return m
}

// epochPairs builds this epoch's training pairs: every positive plus
// one fresh negative per positive (the paper's 1:1 negative sampling),
// together with the treatment column and — when enabled — the
// counterfactual treatment/outcome columns. The returned slices and
// matrices are model-retained buffers refilled in place, so an epoch
// allocates nothing here.
func (m *Model) epochPairs() (ps, vs []int, y, tr, cfY, cfT *mat.Dense) {
	nDrugs := m.trainY.Cols()
	total := 2 * len(m.posP)
	if cap(m.pairP) < total {
		m.pairP = make([]int, 0, total)
		m.pairV = make([]int, 0, total)
		m.pairY = mat.New(total, 1)
		m.pairT = mat.New(total, 1)
		if m.miner != nil {
			m.pairCFY = mat.New(total, 1)
			m.pairCFT = mat.New(total, 1)
		}
	}
	ps, vs = m.pairP[:0], m.pairV[:0]
	yd := m.pairY.Data()
	for i := range m.posP {
		p := m.posP[i]
		ps = append(ps, p)
		vs = append(vs, m.posV[i])
		yd[len(ps)-1] = 1
		for {
			neg := m.rng.Intn(nDrugs)
			if m.trainY.At(p, neg) != 1 {
				ps = append(ps, p)
				vs = append(vs, neg)
				yd[len(ps)-1] = 0
				break
			}
		}
	}
	m.pairP, m.pairV = ps, vs
	td := m.pairT.Data()
	for i := range ps {
		td[i] = m.Treatment.T.At(ps[i], vs[i])
	}
	y, tr = m.pairY, m.pairT
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
	hPat = m.fcPat.Apply(t, t.Const(m.trainX))                         // Eq. 9
	hDrug := t.LeakyReLU(m.fcDrug.Apply(t, t.Const(m.drugFeat)), 0.01) // Eq. 10

	// Propagation (Eqs. 11-12) with layer combination (Eq. 13):
	// beta_t = 1/(t+2).
	pT, dT := hPat, hDrug
	hDrugFinal = t.Scale(hDrug, beta(0))
	for layer := 1; layer <= m.Config.PropLayers; layer++ {
		pNext := t.SpMM(m.l2r, dT)
		dNext := t.SpMM(m.r2l, pT)
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
		ps, vs, y, tr, cfY, cfT := m.epochPairs()
		t := m.tape
		t.Reset()
		hPat, hDrug := m.encode(t)
		inter := m.decodeInter(t, hPat, hDrug, ps, vs)
		logits := m.decodeWith(t, inter, tr)
		loss := t.BCEWithLogits(logits, y) // Eq. 16
		if cfY != nil && m.Config.Delta > 0 {
			cfLogits := m.decodeWith(t, inter, cfT)  // same pairs, cf treatment
			cfLoss := t.BCEWithLogits(cfLogits, cfY) // Eq. 17
			loss = t.Add(loss, t.Scale(cfLoss, m.Config.Delta))
		}
		t.Backward(loss)
		nn.CollectGradsInto(m.grads, t, &m.params)
		optim.ClipGlobalNorm(m.grads, 5)
		opt.Step(m.params.All(), m.grads)
		losses = append(losses, loss.Value.At(0, 0))

		if m.Config.SelectOnVal && len(m.Data.Val) > 0 &&
			((epoch+1)%valEvery == 0 || epoch == m.Config.Epochs-1) {
			if v := m.valNDCG(); v > bestVal {
				bestVal = v
				bestSnap = snapshot(m.params.All())
			}
		}
	}
	if bestSnap != nil {
		restore(m.params.All(), bestSnap)
	}
	m.drugCache = m.inferDrugReps().Clone()
	return losses
}

// valNDCG scores the validation patients and returns NDCG@4.
func (m *Model) valNDCG() float64 {
	scores := m.Scores(m.Data.Val)
	var total float64
	var count int
	for i, p := range m.Data.Val {
		truth := m.Data.TruePositives(p)
		if len(truth) == 0 {
			continue
		}
		total += ndcgAt(scores.Row(i), truth, 4)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// ndcgAt computes binary-relevance NDCG@k for one score row.
func ndcgAt(scores []float64, truth []int, k int) float64 {
	type sv struct {
		idx int
		v   float64
	}
	top := make([]sv, len(scores))
	for i, v := range scores {
		top[i] = sv{i, v}
	}
	sort.SliceStable(top, func(a, b int) bool { return top[a].v > top[b].v })
	isRel := make(map[int]bool, len(truth))
	for _, v := range truth {
		isRel[v] = true
	}
	var dcg float64
	for s := 0; s < k && s < len(top); s++ {
		if isRel[top[s].idx] {
			dcg += 1 / math.Log2(float64(s)+2)
		}
	}
	ideal := len(truth)
	if ideal > k {
		ideal = k
	}
	var idcg float64
	for s := 0; s < ideal; s++ {
		idcg += 1 / math.Log2(float64(s)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func snapshot(params []*mat.Dense) []*mat.Dense {
	out := make([]*mat.Dense, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

func restore(params, snap []*mat.Dense) {
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
// concurrently; serving models always hold the cache, because
// NewServing requires it.
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
