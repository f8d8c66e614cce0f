package md

import (
	"fmt"
	"slices"

	"dssddi/internal/dataset"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
	"dssddi/internal/snapshot"
)

// This file is the MD module's section of snapshot format v1: the
// config, the layers in the order newModel builds them, the relation
// embeddings, the drug cache and the treatment model.

// maxPropLayers bounds the propagation depth Decode accepts: every
// layer is one more propagation step per inductive query (the paper
// uses 2).
const maxPropLayers = 16

// Encode writes the model's MD section. The model must have finished
// Train: without the drug cache it writes a section Decode refuses.
func (m *Model) Encode(e *snapshot.Encoder) {
	c := m.Config
	e.Int(c.Hidden)
	e.Int(c.PropLayers)
	e.Int(c.Epochs)
	e.Float(c.LR)
	e.Float(c.Delta)
	e.Float(c.WeightDecay)
	e.Int64(c.Seed)
	e.Float(c.CF.GammaPQuantile)
	e.Float(c.CF.GammaDQuantile)
	e.Int(c.CF.Shortlist)
	e.Bool(c.UseDDI)
	e.Bool(c.UseCounterfactual)
	e.Bool(c.SelectOnVal)
	e.Int(c.ValEvery)

	encodeMLP(e, m.fcPat)
	encodeLinear(e, m.fcDrug)
	e.Bool(m.relProj != nil)
	if m.relProj != nil {
		encodeLinear(e, m.relProj)
	}
	encodeMLP(e, m.decoder)
	e.Matrix(m.relEmb)
	e.Matrix(m.drugCache)

	encodeTreatment(e, m.Treatment)
}

func encodeMLP(e *snapshot.Encoder, l *nn.MLP) {
	e.Int(len(l.Layers))
	for _, layer := range l.Layers {
		encodeLinear(e, layer)
	}
	e.Int(int(l.Act))
	e.Int(int(l.OutAct))
}

func encodeLinear(e *snapshot.Encoder, l *nn.Linear) {
	e.Matrix(l.W)
	e.Matrix(l.B)
}

// encodeTreatment writes T, the cluster assignment, the centroids and
// each cluster's drug set in ascending order: the post-step-2 sets
// cannot be recomputed from the rest.
func encodeTreatment(e *snapshot.Encoder, t *Treatment) {
	e.Matrix(t.T)
	e.Ints(t.Assign)
	e.Matrix(t.Centroids)
	e.Int(len(t.clusterDrugs))
	for _, set := range t.clusterDrugs {
		drugs := make([]int, 0, len(set))
		for v := range set {
			drugs = append(drugs, v)
		}
		slices.Sort(drugs)
		e.Ints(drugs)
	}
}

// Decode reads a section Encode wrote, for a model over d whose
// relation embeddings are rel wide, into the model newModel builds
// with no rng: every weight, bias, layer count, activation and matrix
// must have the shape that construction and d fix, and any other
// fails the decoder before its payload is read. Every matrix starts
// unallocated and is allocated as its payload arrives, and the model
// keeps no observed-data view (its one-hot drug IDs are drugs x
// drugs), so a section that declares a wide model and then ends costs
// no more memory than it carried. The hidden width must be rel, as
// System.Train builds every model. The decoded model scores bitwise
// identically to the encoded one; to retrain, build a fresh one with
// NewModel.
func Decode(dec *snapshot.Decoder, d *dataset.Dataset, rel int) (*Model, error) {
	var c Config
	c.Hidden = dec.Int()
	c.PropLayers = dec.Int()
	c.Epochs = dec.Int()
	c.LR = dec.Float()
	c.Delta = dec.Float()
	c.WeightDecay = dec.Float()
	c.Seed = dec.Int64()
	c.CF.GammaPQuantile = dec.Float()
	c.CF.GammaDQuantile = dec.Float()
	c.CF.Shortlist = dec.Int()
	c.UseDDI = dec.Bool()
	c.UseCounterfactual = dec.Bool()
	c.SelectOnVal = dec.Bool()
	c.ValEvery = dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if c.Hidden != rel || rel < 1 {
		return nil, fmt.Errorf("md: hidden width %d where the relation embeddings are %d wide", c.Hidden, rel)
	}
	if c.PropLayers < 0 || c.PropLayers > maxPropLayers {
		return nil, fmt.Errorf("md: propagation depth %d outside [0, %d]", c.PropLayers, maxPropLayers)
	}
	if min(d.NumClusters, len(d.Train)) < 1 {
		return nil, fmt.Errorf("md: %d clusters over %d observed patients", d.NumClusters, len(d.Train))
	}

	m := newModel(nil, d, c, rel)
	decodeMLP(dec, m.fcPat)
	decodeLinear(dec, m.fcDrug)
	if dec.Bool() {
		dec.Fail(fmt.Errorf("md: relation projection in a model whose relation embeddings are its hidden width"))
	}
	decodeMLP(dec, m.decoder)
	m.relEmb = mat.Unallocated(d.NumDrugs(), rel)
	dec.MatrixInto(m.relEmb)
	m.drugCache = mat.Unallocated(d.NumDrugs(), c.Hidden)
	dec.MatrixInto(m.drugCache)
	m.Treatment = decodeTreatment(dec, d)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	m.pd, _ = nn.NewPairDecoder(m.decoder)
	return m, nil
}

// decodeMLP reads an MLP encodeMLP wrote into l, whose layer count and
// activations the stream must repeat.
func decodeMLP(dec *snapshot.Decoder, l *nn.MLP) {
	if n := dec.Int(); n != len(l.Layers) {
		dec.Fail(fmt.Errorf("md: %d-layer MLP where %d layers belong", n, len(l.Layers)))
	}
	for _, layer := range l.Layers {
		decodeLinear(dec, layer)
	}
	if act, out := nn.Activation(dec.Int()), nn.Activation(dec.Int()); act != l.Act || out != l.OutAct {
		dec.Fail(fmt.Errorf("md: MLP activations %d/%d where %d/%d belong", act, out, l.Act, l.OutAct))
	}
}

func decodeLinear(dec *snapshot.Decoder, l *nn.Linear) {
	dec.MatrixInto(l.W)
	dec.MatrixInto(l.B)
}

// decodeTreatment reads the treatment model in the shapes
// BuildTreatment gives it over d: T is observed patients x drugs, the
// centroids min(NumClusters, observed patients) x the feature width,
// and each cluster set lists existing drugs in ascending order, as
// encodeTreatment writes them.
func decodeTreatment(dec *snapshot.Decoder, d *dataset.Dataset) *Treatment {
	k, nD := min(d.NumClusters, len(d.Train)), d.NumDrugs()
	t := &Treatment{T: mat.Unallocated(len(d.Train), nD), Centroids: mat.Unallocated(k, d.X.Cols()), ddi: d.DDI}
	dec.MatrixInto(t.T)
	t.Assign = dec.Ints()
	dec.MatrixInto(t.Centroids)
	if n := dec.Int(); n != k {
		dec.Fail(fmt.Errorf("md: %d cluster drug sets for %d clusters", n, k))
	}
	t.clusterDrugs = make([]map[int]bool, k)
	for c := range t.clusterDrugs {
		set := dec.Ints()
		t.clusterDrugs[c] = make(map[int]bool, len(set))
		for i, v := range set {
			if v < 0 || v >= nD || (i > 0 && v <= set[i-1]) {
				dec.Fail(fmt.Errorf("md: cluster drug %d out of range or order on %d drugs", v, nD))
				return nil
			}
			t.clusterDrugs[c][v] = true
		}
	}
	if dec.Err() != nil {
		return nil
	}
	t.buildClusterRows(nD)
	return t
}
