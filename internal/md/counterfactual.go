package md

import (
	"math"
	"sort"

	"dssddi/internal/mat"
)

// CFConfig tunes counterfactual mining. GammaP/GammaD are the γp/γd
// distance ceilings of Eq. 7, expressed as quantiles of the observed
// nearest-neighbour distance distributions (0.3 means "the closest 30%
// count as similar"). Shortlist bounds the neighbour lists searched
// per pair.
type CFConfig struct {
	GammaPQuantile float64
	GammaDQuantile float64
	Shortlist      int
}

// DefaultCFConfig returns the mining configuration used by the
// experiments. The γ quantiles were selected on the validation split
// (as the paper selects its hyperparameters): tight ceilings keep only
// high-confidence counterfactual matches, which matters on the
// synthetic cohort where looser matches inject label noise.
func DefaultCFConfig() CFConfig {
	return CFConfig{GammaPQuantile: 0.05, GammaDQuantile: 0.05, Shortlist: 12}
}

// Miner mines counterfactual links lazily with precomputed
// nearest-neighbour shortlists, caching per-(patient, drug) results so
// that per-epoch negative resampling stays cheap.
type Miner struct {
	tmat, y        *mat.Dense
	pNbrs, dNbrs   [][]neighbour
	gammaP, gammaD float64
	cache          map[[2]int]cfEntry
}

type cfEntry struct {
	tcf, ycf float64
	matched  bool
}

// NewMiner precomputes the patient and drug shortlists of Eq. 7. x
// holds the observed patients' features, z the drug features, tmat the
// treatment matrix and y the outcome matrix, all over observed
// patients.
func NewMiner(x, z, tmat, y *mat.Dense, cfg CFConfig) *Miner {
	if cfg.Shortlist <= 0 {
		cfg.Shortlist = 12
	}
	m := &Miner{tmat: tmat, y: y, cache: make(map[[2]int]cfEntry)}
	m.pNbrs, m.gammaP = neighbourLists(x, cfg.Shortlist, cfg.GammaPQuantile)
	m.dNbrs, m.gammaD = neighbourLists(z, cfg.Shortlist, cfg.GammaDQuantile)
	return m
}

// Mine returns the counterfactual treatment/outcome for one (patient,
// drug) pair per Eqs. 7-8, falling back to the factual values when no
// opposite-treatment neighbour lies within the γ ceilings.
func (m *Miner) Mine(p, v int) (tcf, ycf float64, matched bool) {
	key := [2]int{p, v}
	if e, ok := m.cache[key]; ok {
		return e.tcf, e.ycf, e.matched
	}
	if p < 0 || p >= m.tmat.Rows() || v < 0 || v >= m.tmat.Cols() {
		panic("md: counterfactual pair index out of range")
	}
	factT := m.tmat.At(p, v)
	wantT := 1 - factT
	bestDist := math.Inf(1)
	var bestJ, bestU int
	found := false
	// Search the cross-product of the two shortlists in increasing
	// combined distance. Shortlists include the element itself at
	// distance 0, so "same patient, different drug" matches are
	// allowed, as in Eq. 7.
	for _, pj := range m.pNbrs[p] {
		if pj.dist >= m.gammaP || pj.dist >= bestDist {
			break
		}
		for _, du := range m.dNbrs[v] {
			if du.dist >= m.gammaD {
				break
			}
			total := pj.dist + du.dist
			if total >= bestDist {
				break
			}
			if m.tmat.At(pj.idx, du.idx) == wantT {
				bestDist = total
				bestJ, bestU = pj.idx, du.idx
				found = true
				break
			}
		}
	}
	e := cfEntry{tcf: factT, ycf: m.y.At(p, v)}
	if found {
		e = cfEntry{tcf: wantT, ycf: m.y.At(bestJ, bestU), matched: true}
	}
	m.cache[key] = e
	return e.tcf, e.ycf, e.matched
}

type neighbour struct {
	idx  int
	dist float64
}

// neighbourLists computes, for every row of x, its `shortlist` nearest
// rows (including itself at distance 0) sorted by distance, and the γ
// ceiling as the given quantile of all shortlist distances.
func neighbourLists(x *mat.Dense, shortlist int, quantile float64) ([][]neighbour, float64) {
	n := x.Rows()
	if shortlist > n {
		shortlist = n
	}
	lists := make([][]neighbour, n)
	var all []float64
	for i := 0; i < n; i++ {
		ds := make([]neighbour, 0, n)
		for j := 0; j < n; j++ {
			ds = append(ds, neighbour{j, mat.EuclideanDistance(x.Row(i), x.Row(j))})
		}
		sort.Slice(ds, func(a, b int) bool {
			if ds[a].dist != ds[b].dist {
				return ds[a].dist < ds[b].dist
			}
			return ds[a].idx < ds[b].idx
		})
		lists[i] = ds[:shortlist]
		for _, nb := range lists[i][1:] { // skip self distance 0
			all = append(all, nb.dist)
		}
	}
	gamma := math.Inf(1)
	if len(all) > 0 && quantile > 0 && quantile < 1 {
		sort.Float64s(all)
		gamma = all[int(float64(len(all))*quantile)]
	}
	return lists, gamma
}
