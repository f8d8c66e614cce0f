package nn

import (
	"math"
	"math/rand"
	"testing"

	"dssddi/internal/mat"
)

// TestPairDecoder32TracksOracle checks the f32 fused pair decode
// against the f64 oracle across activations: with O(1) weights and
// inputs the two paths must agree to a few ulps of float32 — the same
// tolerance the serving divergence gate enforces end to end.
func TestPairDecoder32TracksOracle(t *testing.T) {
	for _, act := range []Activation{ActLeakyReLU, ActReLU, ActTanh, ActSigmoid} {
		rng := rand.New(rand.NewSource(5))
		const d, h, pairs = 23, 16, 200
		var ps Params
		mlp := NewMLP(rng, &ps, []int{d + 1, h, 1}, act, false)
		pd, ok := NewPairDecoder(mlp)
		if !ok {
			t.Fatal("decoder-shaped MLP rejected")
		}
		pd32 := NewPairDecoder32(pd)
		if gd, gh := pd32.Dims(); gd != d || gh != h {
			t.Fatalf("Dims = (%d, %d), want (%d, %d)", gd, gh, d, h)
		}
		if pd32.Bytes() != (d+1)*h*4+h*4+h*4+4 {
			t.Fatalf("Bytes = %d", pd32.Bytes())
		}

		ha := mat.RandNormal(rng, 9, d, 1)
		hb := mat.RandNormal(rng, 11, d, 1)
		inter := make([]float64, d+1)
		hid := make([]float64, h)
		hid32 := make([]float32, h)
		var maxDelta float64
		for i := 0; i < pairs; i++ {
			a64 := ha.Row(rng.Intn(ha.Rows()))
			b64 := hb.Row(rng.Intn(hb.Rows()))
			tv := float64(rng.Intn(2))
			want := pd.Logit(a64, b64, tv, inter, hid)
			got := pd32.Logit(mat.Floats32(a64), mat.Floats32(b64), float32(tv), hid32)
			if d := math.Abs(got - want); d > maxDelta {
				maxDelta = d
			}
		}
		// d=23/h=16 sums of O(1) terms: f32 rounding keeps the logit
		// within ~1e-5; anything larger means a wrong formula, not
		// rounding.
		if maxDelta > 1e-4 {
			t.Fatalf("act=%v: max |logit32 - logit64| = %g, want <= 1e-4", act, maxDelta)
		}

		// The block decode: every block size up to hb's rows, each pair
		// bit-equal to its per-pair Logit.
		hids := blockScratch[float32](hb.Rows(), h)
		for nb := 1; nb <= hb.Rows(); nb++ {
			a := mat.Floats32(ha.Row(nb % ha.Rows()))
			bs := make([][]float32, nb)
			ts := make([]float32, nb)
			for i := range bs {
				bs[i], ts[i] = mat.Floats32(hb.Row(i)), float32(i%2)
			}
			got := make([]float64, nb)
			pd32.LogitsInto(got, a, bs, ts, hids)
			for i, g := range got {
				if w := pd32.Logit(a, bs[i], ts[i], hid32); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("act=%v block %d pair %d: LogitsInto %v != Logit %v", act, nb, i, g, w)
				}
			}
		}
	}
}

// TestPairDecoder32Deterministic pins the conversion determinism the
// snapshot-load derivation relies on: two derivations from the same
// oracle produce identical f32 bits for every pair.
func TestPairDecoder32Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const d, h = 12, 8
	var ps Params
	mlp := NewMLP(rng, &ps, []int{d + 1, h, 1}, ActLeakyReLU, false)
	pd, _ := NewPairDecoder(mlp)
	p1, p2 := NewPairDecoder32(pd), NewPairDecoder32(pd)
	a := mat.Floats32(mat.RandNormal(rng, 1, d, 1).Row(0))
	b := mat.Floats32(mat.RandNormal(rng, 1, d, 1).Row(0))
	hid := make([]float32, h)
	for i := 0; i < 20; i++ {
		g1 := p1.Logit(a, b, 1, hid)
		g2 := p2.Logit(a, b, 1, hid)
		if math.Float64bits(g1) != math.Float64bits(g2) {
			t.Fatalf("derivation not deterministic: %v != %v", g1, g2)
		}
	}
}
