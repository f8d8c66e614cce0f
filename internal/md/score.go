package md

import (
	"fmt"
	"sync"

	"dssddi/internal/mat"
	"dssddi/internal/metrics"
	"dssddi/internal/nn"
	"dssddi/internal/par"
)

// This file is the tiled, fused scoring engine — the cold path behind
// Scores, ScoresInto, ScoresRowsInto, TopKScores, ScoresForInto and
// TopKScoresFor — written once over the serving precision T.
//
// The batched reference path (scoresReference in reference_test.go)
// scores P patients against nD drugs by materializing three
// (P·nD × dim) intermediates — gathered patient rows, gathered drug
// rows and their Hadamard product — plus a (P·nD × dim+1)
// concatenation, before a single decoder forward. The engine instead
// walks (patient, drug tile) units and decodes each tile pairBlock
// drugs at a time through nn.PairDecoder.LogitsInto: a block of
// scratch rows replaces all four matrices, so peak memory is O(block)
// instead of O(P·nD·dim) and the steady state allocates nothing
// (scratch is pooled and reused across calls).
//
// The decoder's layer-1 weight matrix W1 ((dim+1) × hidden, 1.2 MB of
// float64 at hidden 384) is the largest operand a pair touches. A
// block decode streams it once per block instead of once per drug, so
// each 4-row slab of W1 serves every drug of the block from L1.
//
// At float64 every pair's value is bitwise identical to the reference
// path for any worker count and any block size: the block kernel runs
// each pair's accumulation in exactly the order the batched kernels do
// (see mat.MulRowsHadamardInto and nn.PairDecoder), units partition
// the output disjointly, and the equivalence tests in score_test.go
// enforce it. At float32 there is no bitwise guarantee against the
// reference; the f32 view is characterized against the f64 oracle by
// max absolute score divergence and top-k ranking invariance
// (precision_test.go, benchdiff -precision-gate). The patient encoder
// runs in float64 at both precisions (one ForwardRow per patient, a
// sliver of a cold request's work) and logits come back as float64, so
// the selector, the sigmoid and every caller-visible type are shared.

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
// rows alone fill L1, no faster. 8 is also the AVX-512 register
// tile's accumulator count (see mat.MulRowsHadamardInto): one block
// is one tile, so no block pays for a second, mostly padded one.
const pairBlock = 8

// view is one precision's frozen scoring state: the fused pair
// decoder, the final drug representations (NumDrugs rows of d,
// row-major) and the per-cluster treatment rows. The f64 view wraps
// the live model — drugReps() and Treatment.clusterRow, unchanged —
// and is rebuilt per call, since validation scoring runs mid-training
// when drugReps recomputes; SetPrecision derives the f32 view once.
type view[T mat.Float] struct {
	pd    *nn.PairDecoder[T]
	drugs []T
	trows [][]T
}

func (m *Model) view64() view[float64] {
	return view[float64]{m.pd, m.drugReps().Data(), m.Treatment.clusterRow}
}

// scoreScratch is the per-goroutine working set of the engine: the
// float64 patient encoder's output and ping-pong buffers, one score
// tile, a top-k selection and the block decoder's scratch at each
// precision (sized the first time a scratch meets that precision).
type scoreScratch struct {
	hp   []float64
	buf1 []float64
	buf2 []float64
	tile []float64
	sel  metrics.Selector
	b64  blockScratch[float64]
	b32  blockScratch[float32]
}

// blockScratch is the block decoder's working set at one precision:
// the patient hidden representation, pairBlock layer-1 rows, the
// block's drug-row headers and its layer-1 coefficients.
type blockScratch[T mat.Float] struct {
	hp    []T
	hid   [][]T
	drows [][]T
	coef  []T
}

// getScratch returns a pooled scratch.
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
	return sc
}

func (m *Model) putScratch(sc *scoreScratch) { m.scratch.Put(sc) }

// block returns sc's block scratch at T, sized on first use.
func (v *view[T]) block(sc *scoreScratch) *blockScratch[T] {
	var b any = &sc.b64
	if _, f32 := any((*T)(nil)).(*float32); f32 {
		b = &sc.b32
	}
	bs := b.(*blockScratch[T])
	if bs.hid == nil {
		d, h := v.pd.Dims()
		back := make([]T, pairBlock*h)
		bs.hid = make([][]T, pairBlock)
		for i := range bs.hid {
			bs.hid[i] = back[i*h : (i+1)*h : (i+1)*h]
		}
		bs.hp, bs.drows, bs.coef = make([]T, d), make([][]T, pairBlock), make([]T, mat.PairCoefLen(d))
	}
	return bs
}

// encode runs the float64 patient encoder on dataset row patient,
// narrows its output into b.hp and returns the patient's treatment
// row (their nearest cluster's).
func (v *view[T]) encode(m *Model, sc *scoreScratch, b *blockScratch[T], patient int) []T {
	x := m.Data.X.Row(patient)
	m.fcPat.ForwardRow(sc.hp, x, sc.buf1, sc.buf2)
	for i, h := range sc.hp {
		b.hp[i] = T(h)
	}
	return v.trows[m.Treatment.NearestCluster(x)]
}

// logitTile writes the logits of drugs [vLo, vLo+len(dst)) for the
// patient whose hidden representation is in b.hp, decoding pairBlock
// drugs at a time. The top-k path uses it directly, so drugs that
// provably cannot enter the selection never pay for an exp.
func (v *view[T]) logitTile(dst []float64, b *blockScratch[T], trow []T, vLo int) {
	d, _ := v.pd.Dims()
	for o := 0; o < len(dst); o += pairBlock {
		blk := dst[o:min(o+pairBlock, len(dst))]
		v0 := vLo + o
		drows := b.drows[:len(blk)]
		for i := range drows {
			drows[i] = v.drugs[(v0+i)*d : (v0+i+1)*d]
		}
		v.pd.LogitsInto(blk, b.hp, drows, trow[v0:v0+len(blk)], b.hid, b.coef)
	}
}

// scoreRow writes the sigmoid scores of drugs [vLo, vLo+len(dst)) for
// the patient in b.hp, tile by tile.
func (v *view[T]) scoreRow(dst []float64, b *blockScratch[T], trow []T, vLo int) {
	for o := 0; o < len(dst); o += drugTile {
		tile := dst[o:min(o+drugTile, len(dst))]
		v.logitTile(tile, b, trow, vLo+o)
		for i, logit := range tile {
			tile[i] = mat.Sigmoid(logit)
		}
	}
}

// topK streams drug tiles for the patient in b.hp, folding logits into
// a size-k selection.
func (v *view[T]) topK(sc *scoreScratch, b *blockScratch[T], trow []T, k int) (ids []int, scores []float64) {
	sc.sel.Reset(k)
	nD := len(trow)
	for vLo := 0; vLo < nD; vLo += drugTile {
		tile := sc.tile[:min(vLo+drugTile, nD)-vLo]
		v.logitTile(tile, b, trow, vLo)
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

// scoreTask carries one scoring invocation through the worker pool.
// Work units are (patient, drug tile) pairs, so a lone patient still
// fans out across cores; each unit owns a disjoint slice of its
// output row, keeping any partition bitwise identical. hdr is the
// task-owned row-header buffer ScoresInto builds its destination
// views in, reused across calls. v32 is the model's f32 view, or nil
// to score through v64.
type scoreTask struct {
	m        *Model
	patients []int
	rows     [][]float64
	hdr      [][]float64
	v64      view[float64]
	v32      *view[float32]
	tiles    int
}

var scoreTaskPool = sync.Pool{New: func() any { return new(scoreTask) }}

// Chunk implements par.Worker.
func (t *scoreTask) Chunk(lo, hi int) {
	sc := t.m.getScratch()
	if t.v32 != nil {
		t.v32.chunk(t, sc, lo, hi)
	} else {
		t.v64.chunk(t, sc, lo, hi)
	}
	t.m.putScratch(sc)
}

// chunk scores units [lo, hi) of t, encoding each patient once for
// all of its (contiguous) tiles.
func (v *view[T]) chunk(t *scoreTask, sc *scoreScratch, lo, hi int) {
	b := v.block(sc)
	nD := t.m.Data.NumDrugs()
	cur := -1
	var trow []T
	for u := lo; u < hi; u++ {
		if pi := u / t.tiles; pi != cur {
			cur = pi
			trow = v.encode(t.m, sc, b, t.patients[pi])
		}
		vLo := (u % t.tiles) * drugTile
		v.scoreRow(t.rows[cur][vLo:min(vLo+drugTile, nD)], b, trow, vLo)
	}
}

// runScore drives the engine over the given patients and recycles the
// task. rows[i] must have length NumDrugs.
func (m *Model) runScore(t *scoreTask, rows [][]float64, patients []int) {
	if len(patients) > 0 {
		t.m, t.patients, t.rows = m, patients, rows
		if t.v32 = m.f32; t.v32 == nil {
			t.v64 = m.view64()
		}
		t.tiles = (m.Data.NumDrugs() + drugTile - 1) / drugTile
		par.Run(len(patients)*t.tiles, 1, t)
	}
	for i := range t.hdr {
		t.hdr[i] = nil // keep the pooled header buffer, drop what it pointed at
	}
	t.m, t.patients, t.rows, t.v64, t.v32 = nil, nil, nil, view[float64]{}, nil
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
	sc := m.getScratch()
	if v := m.f32; v != nil {
		b := v.block(sc)
		ids, scores = v.topK(sc, b, v.encode(m, sc, b, patient), k)
	} else {
		v := m.view64()
		b := v.block(sc)
		ids, scores = v.topK(sc, b, v.encode(m, sc, b, patient), k)
	}
	m.putScratch(sc)
	return ids, scores
}
