package baselines

import (
	"math/rand"

	"dssddi/internal/ag"
	"dssddi/internal/dataset"
	"dssddi/internal/graph"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
)

// SafeDrug is the safety-regularised multi-label model of Yang et al.
// (IJCAI 2021), simplified per DESIGN.md: the MPNN molecule encoder is
// replaced by fixed random molecular fingerprints, the patient encoder
// is a GRU over visit medicine vectors when visit history exists
// (MIMIC) and an MLP over questionnaire features otherwise, and the
// original's DDI-controlled loss is kept as an explicit penalty on
// jointly recommending antagonistic drug pairs.
type SafeDrug struct {
	Hidden      int
	Epochs      int
	LR          float64
	DDIWeight   float64
	WeightDecay float64
	Seed        int64
	// VisitHistory, when non-nil, provides per-patient medicine
	// multi-hot sequences (index-aligned with the dataset's patients).
	VisitHistory [][][]int

	d       *dataset.Dataset
	params  nn.Params
	encoder *nn.MLP
	gru     *nn.GRUCell
	readout *nn.Linear
	molFP   *mat.Dense // drugs x Hidden fixed fingerprints
	antU    []int
	antV    []int
	rng     *rand.Rand
}

// NewSafeDrug returns the baseline with the experiments'
// configuration.
func NewSafeDrug() *SafeDrug {
	return &SafeDrug{Hidden: 64, Epochs: 200, LR: 0.01, DDIWeight: 0.05, WeightDecay: 1e-4, Seed: 1}
}

// Name implements Suggester.
func (s *SafeDrug) Name() string { return "SafeDrug" }

// Fit implements Suggester.
func (s *SafeDrug) Fit(d *dataset.Dataset) {
	s.d = d
	s.rng = rand.New(rand.NewSource(s.Seed))
	rng := rand.New(rand.NewSource(s.Seed))
	nD := d.NumDrugs()
	s.molFP = mat.RandNormal(rng, nD, s.Hidden, 0.3)
	if s.VisitHistory != nil {
		s.gru = nn.NewGRUCell(rng, &s.params, nD, s.Hidden)
	} else {
		s.encoder = nn.NewMLP(rng, &s.params, []int{d.X.Cols(), s.Hidden, s.Hidden}, nn.ActReLU)
	}
	s.readout = nn.NewLinear(rng, &s.params, s.Hidden, nD)
	// Collect antagonistic pairs for the safety penalty.
	el := d.DDI.Edges()
	for i := range el.U {
		if el.S[i] == graph.Antagonism {
			s.antU = append(s.antU, el.U[i])
			s.antV = append(s.antV, el.V[i])
		}
	}
	y := d.Labels(d.Train)
	var maskU, maskV *mat.Dense
	if len(s.antU) > 0 && s.DDIWeight > 0 {
		maskU, maskV = columnMask(nD, s.antU), columnMask(nD, s.antV)
	}
	train(&s.params, s.Epochs, s.LR, s.WeightDecay, func(t *ag.Tape) *ag.Node {
		logits := s.readout.Apply(t, s.encodePatients(t, d.Train))
		loss := t.BCEWithLogits(logits, y)
		if maskU != nil {
			// DDI penalty: mean over antagonistic pairs of p_u * p_v,
			// the pair columns of the probabilities selected by
			// multiplying with one-hot column masks.
			probs := t.Sigmoid(logits)
			pu := t.MatMul(probs, t.Const(maskU))
			pv := t.MatMul(probs, t.Const(maskV))
			pen := t.Mean(t.Hadamard(pu, pv))
			loss = t.Add(loss, t.Scale(pen, s.DDIWeight))
		}
		return loss
	})
}

// columnMask builds a (drugs x len(cols)) selection matrix whose k-th
// column is the one-hot of cols[k].
func columnMask(drugs int, cols []int) *mat.Dense {
	m := mat.New(drugs, len(cols))
	for k, c := range cols {
		m.Set(c, k, 1)
	}
	return m
}

// encodePatients produces patient representations on the tape: GRU
// over the visit medicine history when available, MLP over features
// otherwise.
func (s *SafeDrug) encodePatients(t *ag.Tape, patients []int) *ag.Node {
	if s.gru == nil {
		return s.encoder.Apply(t, t.Const(s.d.Rows(patients)))
	}
	// Align visit sequences to a common length by left-padding with
	// zero vectors.
	maxLen := 1
	for _, p := range patients {
		if l := len(s.VisitHistory[p]); l > maxLen {
			maxLen = l
		}
	}
	nD := s.d.NumDrugs()
	steps := make([]*ag.Node, maxLen)
	for step := 0; step < maxLen; step++ {
		x := mat.New(len(patients), nD)
		for i, p := range patients {
			h := s.VisitHistory[p]
			offset := maxLen - len(h)
			if step >= offset {
				for _, med := range h[step-offset] {
					x.Set(i, med, 1)
				}
			}
		}
		steps[step] = t.Const(x)
	}
	return s.gru.Run(t, steps)
}

// Scores implements Suggester: sigmoid readout modulated by fingerprint
// similarity (the local bipartite module of the original).
func (s *SafeDrug) Scores(patients []int) *mat.Dense {
	t := ag.NewTape()
	rep := s.encodePatients(t, patients)
	logits := s.readout.Apply(t, rep)
	out := logits.Value.Clone()
	applySigmoid(out)
	return out
}

// CauseRec is Zhang et al.'s counterfactual recommendation model
// (SIGIR 2021), simplified per DESIGN.md: patient "behaviour tokens"
// are the feature dimensions (or visit medicine vectors on MIMIC);
// counterfactual samples replace a random subset of dispensable tokens
// with cohort means, and training adds a consistency loss between
// factual and counterfactual representations on top of the BCE
// objective.
type CauseRec struct {
	Hidden      int
	Epochs      int
	LR          float64
	ReplaceFrac float64
	ConsistW    float64
	WeightDecay float64
	Seed        int64

	d       *dataset.Dataset
	params  nn.Params
	encoder *nn.MLP
	readout *nn.Linear
	mean    []float64
	rng     *rand.Rand
}

// NewCauseRec returns the baseline with the experiments'
// configuration.
func NewCauseRec() *CauseRec {
	return &CauseRec{Hidden: 64, Epochs: 200, LR: 0.01, ReplaceFrac: 0.3, ConsistW: 0.5, WeightDecay: 1e-4, Seed: 1}
}

// Name implements Suggester.
func (c *CauseRec) Name() string { return "CauseRec" }

// Fit implements Suggester.
func (c *CauseRec) Fit(d *dataset.Dataset) {
	c.d = d
	c.rng = rand.New(rand.NewSource(c.Seed))
	rng := rand.New(rand.NewSource(c.Seed))
	c.encoder = nn.NewMLP(rng, &c.params, []int{d.X.Cols(), c.Hidden, c.Hidden}, nn.ActReLU)
	c.readout = nn.NewLinear(rng, &c.params, c.Hidden, d.NumDrugs())

	x := d.Rows(d.Train)
	y := d.Labels(d.Train)
	// Cohort means for token replacement.
	c.mean = make([]float64, x.Cols())
	for i := 0; i < x.Rows(); i++ {
		for j, v := range x.Row(i) {
			c.mean[j] += v
		}
	}
	for j := range c.mean {
		c.mean[j] /= float64(x.Rows())
	}

	train(&c.params, c.Epochs, c.LR, c.WeightDecay, func(t *ag.Tape) *ag.Node {
		xcf := c.counterfactual(x)
		rep := c.encoder.Apply(t, t.Const(x))
		loss := t.BCEWithLogits(c.readout.Apply(t, rep), y)
		// Counterfactual consistency: out-of-interest replacements must
		// not change the representation much.
		diff := t.Sub(rep, c.encoder.Apply(t, t.Const(xcf)))
		consist := t.Mean(t.Hadamard(diff, diff))
		return t.Add(loss, t.Scale(consist, c.ConsistW))
	})
}

// counterfactual replaces a random ReplaceFrac of each row's features
// with the cohort mean (the "dispensable concept replacement").
func (c *CauseRec) counterfactual(x *mat.Dense) *mat.Dense {
	out := x.Clone()
	nRep := int(c.ReplaceFrac * float64(x.Cols()))
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for _, j := range c.rng.Perm(x.Cols())[:nRep] {
			row[j] = c.mean[j]
		}
	}
	return out
}

// Scores implements Suggester.
func (c *CauseRec) Scores(patients []int) *mat.Dense {
	t := ag.NewTape()
	rep := c.encoder.Apply(t, t.Const(c.d.Rows(patients)))
	logits := c.readout.Apply(t, rep)
	out := logits.Value.Clone()
	applySigmoid(out)
	return out
}
