package md

import (
	"fmt"
	"math"
	"sort"

	"dssddi/internal/mat"
	"dssddi/internal/nn"
)

// This file is the inductive patient layer: scoring for patients that
// were never part of the training dataset. A PatientEmbedding carries
// everything the fused tiled engine needs for one patient — the
// decoder-facing hidden representation and the treatment row — so a
// regimen edited at serving time reaches the scorer without touching
// the trained model, and an unseen patient never requires retraining.
//
// The transductive path (Scores / TopKScores) derives both quantities
// from a dataset index; EmbedPatient derives the identical quantities
// from a (regimen, features) profile. For an observed patient queried
// with their own recorded profile the two are bitwise identical — the
// hidden representation goes through the same nn.ForwardRow kernel the
// engine uses, and the treatment row degenerates to the same cluster
// row (see Treatment.InferRowFor) — which the equivalence tests in
// inductive_test.go enforce for every training patient at workers
// {1, 4}.

// PatientEmbedding is the scoring-ready representation of one patient
// profile. H is the decoder-facing hidden representation (Eq. 9 when
// built from features, the propagated bipartite aggregation when built
// from a bare regimen); T is the treatment row. All slices are owned
// by the embedding and must be treated as read-only by the scoring
// engine.
//
// On an f32 model (SetPrecision F32) EmbedPatient stores the
// narrowed H32/T32 pair instead and leaves H/T nil — a registry of
// cached embeddings then holds half the bytes — so an embedding is
// bound to the precision of the model that built it; checkEmbedding
// rejects a mismatch, and the serving layer re-embeds on every epoch
// swap.
type PatientEmbedding struct {
	H []float64
	T []float64

	H32 []float32
	T32 []float32
}

// Bytes returns the resident size of the embedding's payload — the
// per-entry term of the registry's explicit memory accounting.
func (e *PatientEmbedding) Bytes() int {
	return 8*(len(e.H)+len(e.T)) + 4*(len(e.H32)+len(e.T32))
}

// EmbedPatient builds the embedding for an arbitrary patient profile:
// a current medication regimen (drug IDs) plus an optional feature
// vector of the dataset's feature width.
//
// With features, H is the MDGCN patient representation h_i (Eq. 9)
// computed by the same row kernel the tiled engine runs, so scores for
// an observed patient's own profile are bitwise identical to the
// transductive Scores path. Without features, H is reconstructed from
// the regimen alone by running the bipartite aggregation inductively:
// the patient is treated as a fresh node linked to their regimen, and
// the per-layer propagated representations p_t = Σ_v d_{t-1,v} /
// √(deg_p·deg_v) (Eq. 11 with the drug-side layer inputs frozen at
// their training values and the training-time degrees) are combined
// with the same per-layer β_t = 1/(t+2) weights encode applies.
// Regimen drugs that never appear in the observed bipartite graph
// carry no learned propagation signal and contribute only to the
// treatment row.
//
// The regimen may be empty only when features are present. Invalid
// drug IDs or a wrong feature width are errors.
func (m *Model) EmbedPatient(regimen []int, features []float64) (*PatientEmbedding, error) {
	nD := m.Data.NumDrugs()
	for _, v := range regimen {
		if v < 0 || v >= nD {
			return nil, fmt.Errorf("md: EmbedPatient: regimen drug %d out of range [0, %d)", v, nD)
		}
	}
	if features == nil && len(regimen) == 0 {
		return nil, fmt.Errorf("md: EmbedPatient: need features or a non-empty regimen")
	}
	if features != nil && len(features) != m.Data.X.Cols() {
		return nil, fmt.Errorf("md: EmbedPatient: got %d features, dataset has %d", len(features), m.Data.X.Cols())
	}
	// Canonicalise the regimen (sorted, deduplicated copy) so the
	// embedding is independent of the caller's ordering and the input
	// slice is never retained or mutated.
	reg := append([]int(nil), regimen...)
	sort.Ints(reg)
	n := 0
	for i, v := range reg {
		if i == 0 || v != reg[n-1] {
			reg[n] = v
			n++
		}
	}
	reg = reg[:n]

	e := &PatientEmbedding{H: make([]float64, m.fcPat.OutDim())}
	if features != nil {
		w := m.fcPat.MaxWidth()
		buf1, buf2 := make([]float64, w), make([]float64, w)
		m.fcPat.ForwardRow(e.H, features, buf1, buf2)
	} else {
		m.aggregateRegimen(e.H, reg)
	}
	e.T = m.Treatment.InferRowFor(reg, features)
	if m.f32 != nil {
		// f32 model: keep only the narrowed pair. The f64
		// intermediates above stay the derivation path so the narrowing
		// is exactly one rounding of the oracle's values.
		e.H32, e.T32 = mat.Floats32(e.H), mat.Floats32(e.T)
		e.H, e.T = nil, nil
	}
	return e, nil
}

// inductiveInputs lazily builds (and caches) the inputs of the
// feature-free inductive aggregation: the per-layer drug
// representations d_0..d_{L-1} of the training propagation — encode's
// recurrence evaluated on plain matrices, retaining each layer instead
// of only their β-combination — and the drugs' observed bipartite
// degrees. Everything is derived from state Decode restores, so a
// snapshot-loaded model embeds identically to the model it was saved
// from and the snapshot format needs no extra weights. The
// observed-data view is built here, once, because a decoded model
// keeps none (see Decode).
func (m *Model) inductiveInputs() (layers []*mat.Dense, deg []float64) {
	m.indMu.Lock()
	defer m.indMu.Unlock()
	if m.indLayers == nil {
		obs := m.Data.Observed()
		hPat := m.fcPat.Forward(obs.X)
		hDrug := nn.ForwardActivation(m.fcDrug.Forward(obs.DrugFeat), nn.ActLeakyReLU)
		ls := []*mat.Dense{hDrug}
		pT, dT := hPat, hDrug
		for layer := 1; layer < m.Config.PropLayers; layer++ {
			pNext := obs.L2R.MulDense(dT)
			dNext := obs.R2L.MulDense(pT)
			pT, dT = pNext, dNext
			ls = append(ls, dT)
		}
		d := make([]float64, m.Data.NumDrugs())
		for _, p := range m.Data.Train {
			row := m.Data.Y.Row(p)
			for v, y := range row {
				if y == 1 {
					d[v]++
				}
			}
		}
		m.indLayers, m.indDeg = ls, d
	}
	return m.indLayers, m.indDeg
}

// aggregateRegimen accumulates the β-combined inductive patient
// representation for a canonicalised (sorted, deduplicated) regimen
// into dst. dst must be zeroed and of width Hidden.
func (m *Model) aggregateRegimen(dst []float64, regimen []int) {
	layers, deg := m.inductiveInputs()
	degP := float64(len(regimen))
	tmp := make([]float64, len(dst))
	for t := 1; t <= m.Config.PropLayers; t++ {
		d := layers[t-1]
		for j := range tmp {
			tmp[j] = 0
		}
		for _, v := range regimen {
			if deg[v] == 0 {
				continue // unobserved drug: no learned propagation signal
			}
			w := 1 / math.Sqrt(degP*deg[v])
			row := d.Row(v)
			for j := range tmp {
				tmp[j] += w * row[j]
			}
		}
		b := beta(t)
		for j := range dst {
			dst[j] += b * tmp[j]
		}
	}
}

// checkEmbedding validates an embedding's shape against the model; the
// scoring kernels index matrices directly, so shape errors must stop
// here rather than surface as panics inside a worker.
func (m *Model) checkEmbedding(e *PatientEmbedding) {
	if e == nil {
		panic("md: nil PatientEmbedding")
	}
	if m.f32 != nil {
		if e.H32 == nil {
			panic("md: float64 PatientEmbedding scored on a quantized model; re-embed the profile")
		}
		if len(e.H32) != m.fcPat.OutDim() || len(e.T32) != m.Data.NumDrugs() {
			panic(fmt.Sprintf("md: PatientEmbedding shape %d/%d does not match model %d/%d",
				len(e.H32), len(e.T32), m.fcPat.OutDim(), m.Data.NumDrugs()))
		}
		return
	}
	if e.H == nil {
		panic("md: quantized PatientEmbedding scored on a float64 model; re-embed the profile")
	}
	if len(e.H) != m.fcPat.OutDim() || len(e.T) != m.Data.NumDrugs() {
		panic(fmt.Sprintf("md: PatientEmbedding shape %d/%d does not match model %d/%d",
			len(e.H), len(e.T), m.fcPat.OutDim(), m.Data.NumDrugs()))
	}
}

// ScoresForInto fills dst (length NumDrugs) with the suggestion scores
// of an embedded patient profile, riding the fused tiled engine. For
// an observed patient's own profile the bits equal the corresponding
// Scores row for any worker count; every pair's value is independent
// of how pairs are partitioned, so the sequential tile walk here and
// the engine's parallel units agree exactly.
func (m *Model) ScoresForInto(dst []float64, e *PatientEmbedding) {
	m.checkEmbedding(e)
	if len(dst) != m.Data.NumDrugs() {
		panic(fmt.Sprintf("md: ScoresForInto dst has length %d, want %d", len(dst), m.Data.NumDrugs()))
	}
	sc := m.getScratch()
	if v := m.f32; v != nil {
		b := v.block(sc)
		copy(b.hp, e.H32)
		v.scoreRow(dst, b, e.T32, 0)
	} else {
		v := m.view64()
		b := v.block(sc)
		copy(b.hp, e.H)
		v.scoreRow(dst, b, e.T, 0)
	}
	m.putScratch(sc)
}

// ScoresFor is the allocating form of ScoresForInto.
func (m *Model) ScoresFor(e *PatientEmbedding) []float64 {
	out := make([]float64, m.Data.NumDrugs())
	m.ScoresForInto(out, e)
	return out
}

// TopKScoresFor is TopKScores over an embedded patient profile: a
// tile-streamed size-k selection with exactly the ordering and score
// bits ranking the full ScoresFor row would produce. The returned
// slices are the caller's to keep.
func (m *Model) TopKScoresFor(e *PatientEmbedding, k int) (ids []int, scores []float64) {
	m.checkEmbedding(e)
	sc := m.getScratch()
	if v := m.f32; v != nil {
		b := v.block(sc)
		copy(b.hp, e.H32)
		ids, scores = v.topK(sc, b, e.T32, k)
	} else {
		v := m.view64()
		b := v.block(sc)
		copy(b.hp, e.H)
		ids, scores = v.topK(sc, b, e.T, k)
	}
	m.putScratch(sc)
	return ids, scores
}
