package ddi

import (
	"testing"

	"dssddi/internal/ag"
)

// TestInferEmbedMatchesTape trains a few epochs per backbone, then
// checks the post-training embedding cache equals the encoder run on a
// fresh tape over the trained parameters, bit for bit: the cache is
// the final replay of the training tape's encoder, so it must not
// depend on that tape's history.
func TestInferEmbedMatchesTape(t *testing.T) {
	for _, backbone := range []Backbone{GIN, SGCN, SiGAT, SNEA} {
		t.Run(backbone.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Backbone = backbone
			cfg.Hidden = 8
			cfg.Layers = 2
			cfg.Epochs = 3
			m := NewModel(toyGraph(), cfg)
			m.Train()

			want := m.enc.embed(ag.NewTape()).Value
			got := m.Embeddings()
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
			}
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Fatalf("cached element %d: %v != fresh tape %v", i, v, want.Data()[i])
				}
			}
		})
	}
}
