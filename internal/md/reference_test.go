package md

import (
	"dssddi/internal/mat"
	"dssddi/internal/par"
)

// This file is the batched scoring path: it gathers, multiplies and
// concatenates matrices over every (patient, drug) pair before one
// decoder forward, through the same kernels as training. It is the
// equivalence oracle the fused engine is tested against (score_test.go,
// inductive_test.go).

// decodeInfer is the tape-free counterpart of decodeInter followed by
// decodeWith: same kernels, bitwise-identical logits, no graph nodes.
func (m *Model) decodeInfer(hPat, hDrug *mat.Dense, pIdx, vIdx []int, treatments *mat.Dense) *mat.Dense {
	hi := hPat.GatherRows(pIdx)
	hv := hDrug.GatherRows(vIdx)
	inter := mat.Hadamard(hi, hv)
	return m.decoder.Forward(mat.ConcatCols(inter, treatments))
}

func column(vals []float64) *mat.Dense {
	c := mat.New(len(vals), 1)
	for i, v := range vals {
		c.Set(i, 0, v)
	}
	return c
}

// scoresReference scores the given patients against every drug through
// the batched path.
func (m *Model) scoresReference(patients []int) *mat.Dense {
	hDrug := m.drugReps()
	// Patient reps for the queried patients (Eq. 9 on their features).
	x := m.Data.Rows(patients)
	hP := m.fcPat.Forward(x)

	nD := m.Data.NumDrugs()
	out := mat.New(len(patients), nD)
	pIdx := make([]int, len(patients)*nD)
	vIdx := make([]int, len(patients)*nD)
	tvals := make([]float64, len(patients)*nD)
	par.For(len(patients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			trow := m.Treatment.inferRowShared(x.Row(i))
			base := i * nD
			for v := 0; v < nD; v++ {
				pIdx[base+v] = i
				vIdx[base+v] = v
				tvals[base+v] = trow[v]
			}
		}
	})
	logits := m.decodeInfer(hP, hDrug, pIdx, vIdx, column(tvals))
	for r := 0; r < logits.Rows(); r++ {
		out.Set(pIdx[r], vIdx[r], mat.Sigmoid(logits.At(r, 0)))
	}
	return out
}

// scoresForReference scores one embedding through the batched path.
func (m *Model) scoresForReference(e *PatientEmbedding) []float64 {
	hDrug := m.drugReps()
	hP := mat.NewFrom(1, len(e.H), append([]float64(nil), e.H...))
	nD := m.Data.NumDrugs()
	pIdx := make([]int, nD)
	vIdx := make([]int, nD)
	for v := range vIdx {
		vIdx[v] = v
	}
	logits := m.decodeInfer(hP, hDrug, pIdx, vIdx, column(e.T))
	out := make([]float64, nD)
	for v := range out {
		out[v] = mat.Sigmoid(logits.At(v, 0))
	}
	return out
}
