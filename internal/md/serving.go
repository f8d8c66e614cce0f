package md

import (
	"fmt"

	"dssddi/internal/dataset"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
)

// ServingState bundles everything a trained Model needs to score
// patients — the layer weights, the (row-normalised) shared DDI
// relation embeddings, the cached final drug representations and the
// treatment model. It is the unit the snapshot layer serializes; the
// matrices are shared with the live model and must be treated as
// read-only.
type ServingState struct {
	Config    Config
	FcPat     *nn.MLP    // patient encoder (Eq. 9)
	FcDrug    *nn.Linear // drug encoder (Eq. 10)
	RelProj   *nn.Linear // optional relation-embedding projection
	Decoder   *nn.MLP    // Eqs. 14-15
	RelEmb    *mat.Dense // row-normalised DDI embeddings; nil for w/o-DDI
	DrugCache *mat.Dense // final drug representations h'_v
	Treatment *Treatment
}

// ServingState exports the model's post-training state. It requires a
// trained model: the drug-representation cache is what makes a
// restored model score without re-running propagation.
func (m *Model) ServingState() (ServingState, error) {
	if m.drugCache == nil {
		return ServingState{}, fmt.Errorf("md: model has no cached drug representations; call Train before exporting serving state")
	}
	return ServingState{
		Config:    m.Config,
		FcPat:     m.fcPat,
		FcDrug:    m.fcDrug,
		RelProj:   m.relProj,
		Decoder:   m.decoder,
		RelEmb:    m.relEmb,
		DrugCache: m.drugCache,
		Treatment: m.Treatment,
	}, nil
}

// NewServing rebuilds an inference-ready Model from serialized state
// over the given dataset. The restored model's Scores /
// PatientRepresentations / DrugRepresentations are bitwise identical
// to the model the state came from; to retrain, build a fresh model
// with NewModel instead. A state whose decoder the fused engine cannot
// run — not a two-layer scalar MLP over the hidden width + 1 — is
// rejected here rather than on the first score.
func NewServing(d *dataset.Dataset, st ServingState) (*Model, error) {
	pd, fused := nn.NewPairDecoder(st.Decoder)
	switch {
	case st.FcPat == nil || st.FcDrug == nil || st.Decoder == nil:
		return nil, fmt.Errorf("md: serving state is missing encoder or decoder weights")
	case st.DrugCache == nil:
		return nil, fmt.Errorf("md: serving state is missing the drug representation cache")
	case st.Treatment == nil:
		return nil, fmt.Errorf("md: serving state is missing the treatment model")
	case st.DrugCache.Rows() != d.NumDrugs():
		return nil, fmt.Errorf("md: drug cache has %d rows for a dataset with %d drugs", st.DrugCache.Rows(), d.NumDrugs())
	case len(st.FcPat.Layers) == 0 || st.FcPat.Layers[0].W.Rows() != d.X.Cols():
		return nil, fmt.Errorf("md: patient encoder input width does not match the dataset feature width %d", d.X.Cols())
	case !fused:
		return nil, fmt.Errorf("md: decoder is not the two-layer scalar MLP the scoring engine fuses")
	}
	if w, _ := pd.Dims(); w != st.DrugCache.Cols() || w != st.FcPat.OutDim() {
		return nil, fmt.Errorf("md: decoder input width %d does not match drug representations %d + 1 and patient encoder output %d + 1",
			w+1, st.DrugCache.Cols(), st.FcPat.OutDim())
	}
	m := &Model{
		Config:    st.Config,
		Data:      d,
		Treatment: st.Treatment,
		fcPat:     st.FcPat,
		fcDrug:    st.FcDrug,
		relProj:   st.RelProj,
		decoder:   st.Decoder,
		relEmb:    st.RelEmb,
		drugCache: st.DrugCache,
	}
	// Register parameters in NewModel's order so NumParams matches.
	for _, l := range st.FcPat.Layers {
		m.params.Register(l.W)
		m.params.Register(l.B)
	}
	m.params.Register(st.FcDrug.W)
	m.params.Register(st.FcDrug.B)
	if st.RelProj != nil {
		m.params.Register(st.RelProj.W)
		m.params.Register(st.RelProj.B)
	}
	for _, l := range st.Decoder.Layers {
		m.params.Register(l.W)
		m.params.Register(l.B)
	}
	// The observed view is derived from the dataset: the inductive
	// patient layer derives its inputs from it (the drug cache serves
	// every other request), and it keeps encode runnable on a restored
	// model.
	m.obs = d.Observed()
	// The fused scoring kernel references the decoder's live weight
	// matrices, so a restored model scores through the same tiled
	// engine (and with the same bits) as the model it was saved from.
	m.pd = pd
	return m, nil
}
