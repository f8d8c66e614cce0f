package md

import (
	"fmt"
	"sync"

	"dssddi/internal/mat"
	"dssddi/internal/metrics"
	"dssddi/internal/par"
)

// This file is the tiled, fused scoring engine — the cold path behind
// Scores, ScoresInto, ScoresRowsInto and TopKScores.
//
// The batched reference path (scoresReference in mdgcn.go) scores P
// patients against nD drugs by materializing three (P·nD × dim)
// intermediates — gathered patient rows, gathered drug rows and their
// Hadamard product — plus a (P·nD × dim+1) concatenation, before a
// single decoder forward. The engine instead walks (patient, drug
// tile) units and decodes each tile pairBlock drugs at a time through
// nn.PairDecoder.LogitsInto: a block of dim+1 scratch rows replaces
// all four matrices, so peak memory is O(block) instead of
// O(P·nD·dim) and the steady state allocates nothing (scratch is
// pooled and reused across calls).
//
// The decoder's layer-1 weight matrix W1 ((dim+1) × hidden, 1.2 MB of
// float64 at hidden 384) is the largest operand a pair touches. A
// block decode streams it once per block instead of once per drug, so
// each 4-row slab of W1 serves every drug of the block from L1.
//
// Every pair's value is bitwise identical to the reference path for
// any worker count and any block size: the block kernel runs each
// pair's per-element accumulation in exactly the order the batched
// kernels do (see mat.MulRowsInto and nn.PairDecoder), units partition
// the output disjointly, and the equivalence tests in score_test.go
// enforce it.

// drugTile is the drug-tile width of the scoring engine: the unit of
// work the pool hands out (so a lone patient still fans out across
// cores) and the granularity at which TopKScores folds scores into its
// running selection.
const drugTile = 64

// pairBlock is the number of drugs decoded together. Eight drugs'
// hidden rows (8 × 384 float64 = 24 KB) plus one 4-row W1 slab (12 KB)
// fit in a 48 KB L1 data cache, so each slab loaded from L2 is reused
// eight times. On a cold suggest at hidden 384 (86 drugs, one core),
// blocks of 8 cut the time by about a sixth against one drug at a
// time at both precisions; 4 was slightly slower and 16, whose hidden
// rows alone fill L1, no faster.
const pairBlock = 8

// scoreScratch is the per-goroutine working set of the engine: the
// patient hidden representation, the encoder ping-pong buffers, one
// score tile, a top-k selection and the block decoder's scratch.
type scoreScratch struct {
	hp   []float64
	buf1 []float64
	buf2 []float64
	tile []float64
	sel  metrics.Selector

	// f64 block decoder scratch (pairBlock rows each): interaction
	// rows, hidden rows and the block's drug-row headers.
	inter [][]float64
	hid   [][]float64
	drows [][]float64

	// f32 working set (score32.go): the narrowed patient hidden
	// representation, the f32 block decoder scratch and, on the int8
	// path, the block's dequantized drug rows.
	hp32    []float32
	hid32   [][]float32
	drows32 [][]float32
	deq     [][]float32
}

// getScratch returns a pooled scratch with the working set of the
// model's active precision; each part is sized the first time a
// scratch meets a model that needs it.
func (m *Model) getScratch() *scoreScratch {
	sc, _ := m.scratch.Get().(*scoreScratch)
	if sc == nil {
		w := m.fcPat.MaxWidth()
		sc = &scoreScratch{
			hp:   make([]float64, m.fcPat.OutDim()),
			buf1: make([]float64, w),
			buf2: make([]float64, w),
			tile: make([]float64, drugTile),
		}
	}
	switch {
	case m.pd32 == nil:
		if sc.hid == nil {
			d, h := m.pd.Dims()
			sc.inter, sc.hid = blockRows[float64](d+1), blockRows[float64](h)
			sc.drows = make([][]float64, pairBlock)
		}
	case sc.hid32 == nil:
		_, h := m.pd32.Dims()
		sc.hp32 = make([]float32, len(sc.hp))
		sc.hid32 = blockRows[float32](h)
		sc.drows32 = make([][]float32, pairBlock)
	}
	if m.drugQ8 != nil && sc.deq == nil {
		d, _ := m.pd32.Dims()
		sc.deq = blockRows[float32](d)
	}
	return sc
}

// blockRows returns pairBlock rows of n elements over one backing
// array.
func blockRows[T float32 | float64](n int) [][]T {
	back := make([]T, pairBlock*n)
	rows := make([][]T, pairBlock)
	for i := range rows {
		rows[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

func (m *Model) putScratch(sc *scoreScratch) { m.scratch.Put(sc) }

// scoreTask carries one scoring invocation through the worker pool.
// Work units are (patient, drug tile) pairs, so a lone patient still
// fans out across cores; each unit owns a disjoint slice of its
// output row, keeping any partition bitwise identical. hdr is the
// task-owned row-header buffer ScoresInto builds its destination
// views in, reused across calls.
type scoreTask struct {
	m        *Model
	patients []int
	rows     [][]float64
	hdr      [][]float64
	hDrug    *mat.Dense
	tiles    int
}

var scoreTaskPool = sync.Pool{New: func() any { return new(scoreTask) }}

// Chunk implements par.Worker.
func (t *scoreTask) Chunk(lo, hi int) {
	if t.m.pd32 != nil { // quantized serving representation: f32 twin
		t.chunk32(lo, hi)
		return
	}
	sc := t.m.getScratch()
	nD := t.m.Data.NumDrugs()
	cur := -1 // a patient's tiles are contiguous in u: encode once, score many
	var trow []float64
	for u := lo; u < hi; u++ {
		if pi := u / t.tiles; pi != cur {
			cur = pi
			x := t.m.Data.X.Row(t.patients[pi])
			t.m.fcPat.ForwardRow(sc.hp, x, sc.buf1, sc.buf2)
			trow = t.m.Treatment.inferRowShared(x)
		}
		vLo := (u % t.tiles) * drugTile
		vHi := vLo + drugTile
		if vHi > nD {
			vHi = nD
		}
		t.m.scoreTile(t.rows[cur][vLo:vHi], sc, t.hDrug, trow, vLo)
	}
	t.m.putScratch(sc)
}

// scoreTile scores drugs [vLo, vLo+len(dst)) for the patient whose
// hidden representation is in sc.hp, writing sigmoid scores into dst.
func (m *Model) scoreTile(dst []float64, sc *scoreScratch, hDrug *mat.Dense, trow []float64, vLo int) {
	m.logitTile(dst, sc, hDrug, trow, vLo)
	for i, logit := range dst {
		dst[i] = mat.Sigmoid(logit)
	}
}

// logitTile is scoreTile without the sigmoid — the top-k path defers
// it so drugs that provably cannot enter the selection never pay for
// an exp. It decodes the tile pairBlock drugs at a time.
func (m *Model) logitTile(dst []float64, sc *scoreScratch, hDrug *mat.Dense, trow []float64, vLo int) {
	for b := 0; b < len(dst); b += pairBlock {
		blk := dst[b:min(b+pairBlock, len(dst))]
		v0 := vLo + b
		drows := sc.drows[:len(blk)]
		for i := range drows {
			drows[i] = hDrug.Row(v0 + i)
		}
		m.pd.LogitsInto(blk, sc.hp, drows, trow[v0:v0+len(blk)], sc.inter, sc.hid)
	}
}

// runScore drives the engine over the given patients and recycles the
// task. rows[i] must have length NumDrugs.
func (m *Model) runScore(t *scoreTask, rows [][]float64, patients []int) {
	if len(patients) > 0 {
		t.m, t.patients, t.rows, t.hDrug = m, patients, rows, m.drugReps()
		t.tiles = (m.Data.NumDrugs() + drugTile - 1) / drugTile
		par.Run(len(patients)*t.tiles, 1, t)
	}
	for i := range t.hdr {
		t.hdr[i] = nil // keep the pooled header buffer, drop what it pointed at
	}
	t.m, t.patients, t.rows, t.hDrug = nil, nil, nil, nil
	scoreTaskPool.Put(t)
}

// ScoresInto is the scratch-reusing form of Scores: it fills dst
// (len(patients) x NumDrugs) in place, allocating nothing in the
// steady state. dst rows receive the same bits Scores would return.
func (m *Model) ScoresInto(dst *mat.Dense, patients []int) {
	if dst.Rows() != len(patients) || dst.Cols() != m.Data.NumDrugs() {
		panic(fmt.Sprintf("md: ScoresInto shape mismatch dst %dx%d for %d patients x %d drugs",
			dst.Rows(), dst.Cols(), len(patients), m.Data.NumDrugs()))
	}
	if m.pd == nil { // non-decomposable decoder: batched reference path
		dst.CopyFrom(m.scoresReference(patients))
		return
	}
	t := scoreTaskPool.Get().(*scoreTask)
	hdr := t.hdr[:0]
	for i := range patients {
		hdr = append(hdr, dst.Row(i))
	}
	t.hdr = hdr
	m.runScore(t, hdr, patients)
}

// ScoresRowsInto fills one caller-owned row per patient — the serving
// batcher's entry point, letting it recycle row buffers across
// requests instead of materializing a matrix per batch. Each rows[i]
// must have length NumDrugs.
func (m *Model) ScoresRowsInto(rows [][]float64, patients []int) {
	if len(rows) != len(patients) {
		panic(fmt.Sprintf("md: ScoresRowsInto got %d rows for %d patients", len(rows), len(patients)))
	}
	nD := m.Data.NumDrugs()
	for i, r := range rows {
		if len(r) != nD {
			panic(fmt.Sprintf("md: ScoresRowsInto row %d has length %d, want %d", i, len(r), nD))
		}
	}
	if m.pd == nil {
		ref := m.scoresReference(patients)
		for i, r := range rows {
			copy(r, ref.Row(i))
		}
		return
	}
	m.runScore(scoreTaskPool.Get().(*scoreTask), rows, patients)
}

// TopKScores scores every drug for one patient tile by tile,
// maintaining a size-k selection instead of producing the full row
// and sorting it — the single-patient cold path behind Suggest. The
// returned ids/scores are ordered exactly like
// metrics.TopK(Scores(patient).Row(0), k) with the identical score
// bits; only the full-row materialization is gone. The returned
// slices are the caller's to keep.
func (m *Model) TopKScores(patient, k int) (ids []int, scores []float64) {
	if m.pd == nil {
		row := m.scoresReference([]int{patient}).Row(0)
		for _, v := range metrics.TopK(row, k) {
			ids = append(ids, v)
			scores = append(scores, row[v])
		}
		return ids, scores
	}
	if m.pd32 != nil { // quantized serving representation: f32 twin
		return m.topKScores32(patient, k)
	}
	hDrug := m.drugReps()
	sc := m.getScratch()
	x := m.Data.X.Row(patient)
	m.fcPat.ForwardRow(sc.hp, x, sc.buf1, sc.buf2)
	trow := m.Treatment.inferRowShared(x)
	ids, scores = m.topKSelect(sc, hDrug, trow, k)
	m.putScratch(sc)
	return ids, scores
}

// topKSelect streams drug tiles for the patient whose hidden
// representation is in sc.hp, folding logits into a size-k selection —
// the shared tail of TopKScores and TopKScoresFor.
func (m *Model) topKSelect(sc *scoreScratch, hDrug *mat.Dense, trow []float64, k int) (ids []int, scores []float64) {
	sc.sel.Reset(k)
	nD := m.Data.NumDrugs()
	for vLo := 0; vLo < nD; vLo += drugTile {
		vHi := vLo + drugTile
		if vHi > nD {
			vHi = nD
		}
		tile := sc.tile[:vHi-vLo]
		m.logitTile(tile, sc, hDrug, trow, vLo)
		for i, logit := range tile {
			// The selection ranks sigmoid scores, but the sigmoid is
			// monotone non-decreasing, so a logit at or below the k-th
			// retained item's logit (carried as the selector aux value)
			// cannot displace anything — skip its exp entirely. Ranks
			// and retained score bits are unchanged: every retained
			// item's score is still mat.Sigmoid of its logit.
			if sc.sel.Full() && logit <= sc.sel.LastAux() {
				continue
			}
			sc.sel.PushAux(vLo+i, mat.Sigmoid(logit), logit)
		}
	}
	return sc.sel.AppendTo(nil, nil)
}
