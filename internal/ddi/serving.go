package ddi

import (
	"fmt"

	"dssddi/internal/mat"
)

// FromEmbeddings rebuilds an inference-only Model around a previously
// trained relation embedding matrix (the snapshot load path), which
// must be drugs x cfg.Hidden. The returned model serves Embeddings and
// EdgeScore exactly like the model the matrix came from; it has no
// encoder, so Train panics — retraining starts from NewModel.
func FromEmbeddings(cfg Config, drugs int, emb *mat.Dense) (*Model, error) {
	if emb == nil || drugs < 1 || emb.Rows() != drugs || emb.Cols() != cfg.Hidden {
		return nil, fmt.Errorf("ddi: FromEmbeddings needs a %d x %d embedding matrix (drugs x Hidden)", drugs, cfg.Hidden)
	}
	return &Model{Config: cfg, emb: emb}, nil
}
