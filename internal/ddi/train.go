package ddi

import (
	"fmt"
	"math/rand"

	"dssddi/internal/ag"
	"dssddi/internal/graph"
	"dssddi/internal/mat"
	"dssddi/internal/nn"
	"dssddi/internal/optim"
)

// Model is a trained (or trainable) DDIGCN.
type Model struct {
	Config Config
	Graph  *TrainingGraph

	params  nn.Params
	enc     encoder
	targets *mat.Dense

	// tape is retained across epochs: Reset + replay reuses the whole
	// graph and its buffers, so epoch 2..N allocate ~nothing.
	tape  *ag.Tape
	grads []*mat.Dense

	// emb caches the relation embeddings once training finishes, so
	// read paths never rerun the encoder.
	emb *mat.Dense
}

// NewModel builds a DDIGCN over the given signed DDI graph, sampling
// the zero edges for its edge-regression training set.
func NewModel(g *graph.Signed, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Config: cfg}
	m.Graph = BuildTrainingGraph(rng, g, cfg.ZeroRatio)
	m.targets = m.Graph.TargetMatrix()
	switch cfg.Backbone {
	case GIN:
		m.enc = newGIN(rng, &m.params, g, cfg.Hidden, cfg.Layers)
	case SGCN:
		m.enc = newSGCN(rng, &m.params, g, cfg.Hidden, cfg.Layers)
	case SiGAT:
		m.enc = newAttn(rng, &m.params, g, cfg.Hidden, cfg.Layers, kindSiGAT)
	case SNEA:
		m.enc = newAttn(rng, &m.params, g, cfg.Hidden, cfg.Layers, kindSNEA)
	default:
		panic(fmt.Sprintf("ddi: unknown backbone %v", cfg.Backbone))
	}
	return m
}

// forward builds the full forward pass on the tape: embeddings,
// per-edge inner product scores (Eq. 5) and MSE loss (Eq. 6).
func (m *Model) forward(t *ag.Tape) (*ag.Node, *ag.Node) {
	z := m.enc.embed(t)
	zu := t.GatherRows(z, m.Graph.EdgeU)
	zv := t.GatherRows(z, m.Graph.EdgeV)
	scores := t.RowDot(zu, zv)
	loss := t.MSELoss(scores, m.targets)
	return z, loss
}

// Train fits the model for Config.Epochs, returning the loss history.
// One tape serves the whole run: each epoch resets and replays it, so
// steady-state epochs reuse every node, value, gradient and scratch
// buffer of the previous one. The final embeddings are one more replay
// of the encoder on the trained parameters, detached into the cache.
// Train must not run concurrently with any other method of m.
func (m *Model) Train() []float64 {
	opt := optim.NewAdam(m.Config.LR)
	if m.tape == nil {
		m.tape = ag.NewTape()
	}
	if len(m.grads) != len(m.params.All()) {
		m.grads = make([]*mat.Dense, len(m.params.All()))
	}
	losses := make([]float64, 0, m.Config.Epochs)
	for epoch := 0; epoch < m.Config.Epochs; epoch++ {
		m.tape.Reset()
		_, loss := m.forward(m.tape)
		losses = append(losses, nn.Step(m.tape, loss, &m.params, m.grads, opt))
	}
	m.tape.Reset()
	m.emb = m.tape.Detach(m.enc.embed(m.tape))
	return losses
}

// Embeddings returns the drug relation embedding matrix (N x Hidden)
// as a private copy. After Train it is served from the post-training
// cache and is safe for concurrent callers. Before Train it runs the
// encoder on a fresh tape, which (like Train) writes the BatchNorm
// layers' retained statistics, so that call must not run concurrently.
func (m *Model) Embeddings() *mat.Dense {
	if m.emb != nil {
		return m.emb.Clone()
	}
	return m.enc.embed(ag.NewTape()).Value
}

// EdgeScore predicts the interaction score between two drugs from the
// current embeddings (ẑ ≈ +1 synergy, -1 antagonism, 0 none).
func (m *Model) EdgeScore(z *mat.Dense, u, v int) float64 {
	return mat.Dot(z.Row(u), z.Row(v))
}

// NumParams reports the trainable parameter count.
func (m *Model) NumParams() int { return m.params.Count() }
