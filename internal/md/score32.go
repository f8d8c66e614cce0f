package md

import "dssddi/internal/mat"

// This file is the float32 twin of the tiled scoring engine in
// score.go — the same (patient, drug tile) walk, pairBlock drug
// blocks, exp-skipping top-k selection and pooled scratch, with the
// pair decode running through the eight-lane f32 kernels
// (nn.PairDecoder32.LogitsInto) over the quantized
// representations SetPrecision derived. Engine entry points dispatch
// here whenever pd32 is non-nil, so the callers in score.go and
// inductive.go stay the single public surface.
//
// The patient encoder still runs in float64 (one ForwardRow per
// patient, a sliver of a cold request's work) and its output row is
// converted once; logits come back widened to float64, so the selector,
// the sigmoid and every caller-visible type are unchanged. Unlike the
// f64 engine there is no bitwise guarantee against the reference path —
// the f32 twin is instead characterized against the f64 oracle by max
// absolute score divergence and top-k ranking invariance
// (precision_test.go, benchdiff -precision-gate).

// floats32Into narrows src into dst element by element.
func floats32Into(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// drugRows32 returns the serving representations of drugs [v0, v0+n):
// rows of the f32 matrix or — on the int8 path — the rows dequantized
// into the scratch's block buffer (valid until the next call on this
// scratch).
func (m *Model) drugRows32(sc *scoreScratch, v0, n int) [][]float32 {
	if m.drugQ8 != nil {
		rows := sc.deq[:n]
		for i, row := range rows {
			m.drugQ8.DequantRowInto(row, v0+i)
		}
		return rows
	}
	rows := sc.drows32[:n]
	for i := range rows {
		rows[i] = m.drugCache32.Row(v0 + i)
	}
	return rows
}

// scoreTile32 is scoreTile on the f32 path: sigmoid scores for drugs
// [vLo, vLo+len(dst)) of the patient whose converted hidden
// representation is in sc.hp32.
func (m *Model) scoreTile32(dst []float64, sc *scoreScratch, trow []float32, vLo int) {
	m.logitTile32(dst, sc, trow, vLo)
	for i, logit := range dst {
		dst[i] = mat.Sigmoid(logit)
	}
}

// logitTile32 is scoreTile32 without the sigmoid — the top-k path
// defers it exactly like the f64 engine, and decodes pairBlock drugs
// at a time like it too.
func (m *Model) logitTile32(dst []float64, sc *scoreScratch, trow []float32, vLo int) {
	for b := 0; b < len(dst); b += pairBlock {
		blk := dst[b:min(b+pairBlock, len(dst))]
		v0 := vLo + b
		m.pd32.LogitsInto(blk, sc.hp32, m.drugRows32(sc, v0, len(blk)), trow[v0:v0+len(blk)], sc.hid32)
	}
}

// chunk32 is scoreTask.Chunk on the f32 path: identical unit walk and
// encode-once-per-patient structure, with the hidden representation
// narrowed once and the treatment row taken from the f32 cluster rows.
func (t *scoreTask) chunk32(lo, hi int) {
	sc := t.m.getScratch()
	nD := t.m.Data.NumDrugs()
	cur := -1
	var trow []float32
	for u := lo; u < hi; u++ {
		if pi := u / t.tiles; pi != cur {
			cur = pi
			x := t.m.Data.X.Row(t.patients[pi])
			t.m.fcPat.ForwardRow(sc.hp, x, sc.buf1, sc.buf2)
			floats32Into(sc.hp32, sc.hp)
			trow = t.m.trow32[t.m.Treatment.NearestCluster(x)]
		}
		vLo := (u % t.tiles) * drugTile
		vHi := vLo + drugTile
		if vHi > nD {
			vHi = nD
		}
		t.m.scoreTile32(t.rows[cur][vLo:vHi], sc, trow, vLo)
	}
	t.m.putScratch(sc)
}

// topKSelect32 is topKSelect on the f32 path. Logits are float64 by the
// time they reach the selector, so the exp-skip reasoning carries over
// unchanged: the sigmoid is monotone, a logit at or below the k-th
// retained aux cannot displace anything.
func (m *Model) topKSelect32(sc *scoreScratch, trow []float32, k int) (ids []int, scores []float64) {
	sc.sel.Reset(k)
	nD := m.Data.NumDrugs()
	for vLo := 0; vLo < nD; vLo += drugTile {
		vHi := vLo + drugTile
		if vHi > nD {
			vHi = nD
		}
		tile := sc.tile[:vHi-vLo]
		m.logitTile32(tile, sc, trow, vLo)
		for i, logit := range tile {
			if sc.sel.Full() && logit <= sc.sel.LastAux() {
				continue
			}
			sc.sel.PushAux(vLo+i, mat.Sigmoid(logit), logit)
		}
	}
	return sc.sel.AppendTo(nil, nil)
}

// topKScores32 is the single-patient cold path at f32: encode once,
// narrow, stream tiles into the selection.
func (m *Model) topKScores32(patient, k int) (ids []int, scores []float64) {
	sc := m.getScratch()
	x := m.Data.X.Row(patient)
	m.fcPat.ForwardRow(sc.hp, x, sc.buf1, sc.buf2)
	floats32Into(sc.hp32, sc.hp)
	trow := m.trow32[m.Treatment.NearestCluster(x)]
	ids, scores = m.topKSelect32(sc, trow, k)
	m.putScratch(sc)
	return ids, scores
}
