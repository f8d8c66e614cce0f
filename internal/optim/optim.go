// Package optim provides the optimizer used for model training, Adam
// (the paper's choice), plus global-norm gradient clipping. The
// optimizer steps a fixed list of parameter matrices; the matching
// gradient list comes from the autodiff tape.
package optim

import (
	"fmt"
	"math"

	"dssddi/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with optional
// decoupled weight decay.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    []*mat.Dense
	v    []*mat.Dense
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update. params[i] is updated in place using
// grads[i]; a nil grad is treated as zero (parameter untouched by the
// loss this step).
func (a *Adam) Step(params, grads []*mat.Dense) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("optim: %d params but %d grads", len(params), len(grads)))
	}
	if a.m == nil {
		a.m = make([]*mat.Dense, len(params))
		a.v = make([]*mat.Dense, len(params))
		for i, p := range params {
			a.m[i] = mat.New(p.Rows(), p.Cols())
			a.v[i] = mat.New(p.Rows(), p.Cols())
		}
	}
	if len(a.m) != len(params) {
		panic("optim: parameter list changed between steps")
	}
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		g := grads[i]
		if g == nil {
			continue
		}
		pd, gd := p.Data(), g.Data()
		md, vd := a.m[i].Data(), a.v[i].Data()
		for k := range pd {
			gk := gd[k]
			if a.WeightDecay > 0 {
				pd[k] -= a.LR * a.WeightDecay * pd[k]
			}
			md[k] = a.Beta1*md[k] + (1-a.Beta1)*gk
			vd[k] = a.Beta2*vd[k] + (1-a.Beta2)*gk*gk
			mhat := md[k] / bc1
			vhat := vd[k] / bc2
			pd[k] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// ClipGlobalNorm rescales grads in place so their combined L2 norm is at
// most maxNorm, returning the pre-clip norm. Nil grads are skipped.
func ClipGlobalNorm(grads []*mat.Dense, maxNorm float64) float64 {
	var total float64
	for _, g := range grads {
		if g == nil {
			continue
		}
		for _, v := range g.Data() {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, g := range grads {
			if g != nil {
				g.Scale(scale)
			}
		}
	}
	return norm
}
