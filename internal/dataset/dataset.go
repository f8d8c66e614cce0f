// Package dataset packages a medication-suggestion problem instance —
// patient features X, binary medication-use labels Y, the signed DDI
// graph and the observed/unobserved patient split — in the form every
// model in the repository consumes.
//
// Terminology follows the paper: "observed" patients (train) have both
// features and medication use available to the model; "unobserved"
// patients (validation/test) expose only features at inference time.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dssddi/internal/graph"
	"dssddi/internal/mat"
	"dssddi/internal/sparse"
	"dssddi/internal/synth"
)

// Dataset is one fully materialised problem instance.
type Dataset struct {
	// X is the n x d patient feature matrix (standardised).
	X *mat.Dense
	// Y is the n x m binary medication-use matrix.
	Y *mat.Dense
	// DDI is the signed drug-drug interaction graph on m drugs.
	DDI *graph.Signed
	// DrugFeatures is the m x f pretrained drug feature matrix (e.g.
	// TransE embeddings); may be nil, in which case models fall back to
	// one-hot IDs.
	DrugFeatures *mat.Dense
	// Train/Val/Test are disjoint patient index sets (5:3:2 split).
	Train, Val, Test []int
	// DrugNames, if present, maps drug IDs to names for explanations.
	DrugNames []string
	// NumClusters is the k used for patient clustering (the number of
	// distinct diseases in the cohort, per the paper).
	NumClusters int
}

// NumPatients returns n.
func (d *Dataset) NumPatients() int { return d.X.Rows() }

// NumDrugs returns m.
func (d *Dataset) NumDrugs() int { return d.Y.Cols() }

// Split partitions indices 0..n-1 into train/val/test with the given
// ratios (they are normalised), shuffled by rng.
func Split(rng *rand.Rand, n int, trainR, valR, testR float64) (train, val, test []int) {
	total := trainR + valR + testR
	if total <= 0 {
		panic("dataset: non-positive split ratios")
	}
	perm := rng.Perm(n)
	nTrain := int(math.Round(float64(n) * trainR / total))
	nVal := int(math.Round(float64(n) * valR / total))
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	train = append(train, perm[:nTrain]...)
	val = append(val, perm[nTrain:nTrain+nVal]...)
	test = append(test, perm[nTrain+nVal:]...)
	return
}

// Standardize rescales every column of x to zero mean, unit variance
// (in place), using only the rows in fit to compute the statistics —
// preventing information leaking from validation/test patients.
// Constant columns are left centred.
func Standardize(x *mat.Dense, fit []int) {
	if len(fit) == 0 {
		panic("dataset: Standardize needs at least one fitting row")
	}
	d := x.Cols()
	mean := make([]float64, d)
	std := make([]float64, d)
	for _, i := range fit {
		for j, v := range x.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(fit))
	}
	for _, i := range fit {
		for j, v := range x.Row(i) {
			dv := v - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(fit)))
		if std[j] < 1e-9 {
			std[j] = 1
		}
	}
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = (row[j] - mean[j]) / std[j]
		}
	}
}

// FromCohort converts a synthetic chronic cohort into a Dataset with
// the paper's 5:3:2 split and standardised features.
func FromCohort(rng *rand.Rand, c *synth.Cohort, drugFeatures *mat.Dense) *Dataset {
	x := c.FeatureMatrix()
	y := c.LabelMatrix()
	train, val, test := Split(rng, x.Rows(), 5, 3, 2)
	Standardize(x, train)
	names := make([]string, len(c.Catalog))
	for i, d := range c.Catalog {
		names[i] = d.Name
	}
	return &Dataset{
		X: x, Y: y, DDI: c.DDI, DrugFeatures: drugFeatures,
		Train: train, Val: val, Test: test,
		DrugNames:   names,
		NumClusters: c.DiseaseCount(),
	}
}

// FromMIMIC converts a synthetic MIMIC instance into a Dataset.
func FromMIMIC(rng *rand.Rand, m *synth.MIMIC) *Dataset {
	x := m.FeatureMatrix()
	y := m.LabelMatrix()
	train, val, test := Split(rng, x.Rows(), 5, 3, 2)
	Standardize(x, train)
	names := make([]string, m.Opts.Medicines)
	for i := range names {
		names[i] = fmt.Sprintf("MED_%04d", i)
	}
	return &Dataset{
		X: x, Y: y, DDI: m.DDI,
		Train: train, Val: val, Test: test,
		DrugNames:   names,
		NumClusters: m.Opts.Conditions,
	}
}

// Rows gathers the feature rows for the given patient indices.
func (d *Dataset) Rows(idx []int) *mat.Dense { return d.X.GatherRows(idx) }

// Labels gathers the label rows for the given patient indices.
func (d *Dataset) Labels(idx []int) *mat.Dense { return d.Y.GatherRows(idx) }

// TruePositives returns the drug IDs patient p takes.
func (d *Dataset) TruePositives(p int) []int {
	var out []int
	for v := 0; v < d.NumDrugs(); v++ {
		if d.Y.At(p, v) == 1 {
			out = append(out, v)
		}
	}
	return out
}

// Observed is the training view of a dataset, the one form every
// graph model learns from: the observed (train) patients' feature rows
// and labels, the drug input features and the normalised bipartite
// propagation operators over their medication links. Row i of X and Y,
// and patient i of the operators, is patient Train[i].
type Observed struct {
	X, Y *mat.Dense
	// DrugFeat is the dataset's DrugFeatures, or one-hot drug IDs when
	// it has none.
	DrugFeat *mat.Dense
	// L2R (patients x drugs) and R2L (drugs x patients) are
	// sparse.BipartiteNorm over the train patients' links.
	L2R, R2L *sparse.CSR
}

// DrugFeatureWidth is the width of Observed's DrugFeat, computed
// without building it.
func (d *Dataset) DrugFeatureWidth() int {
	if d.DrugFeatures != nil {
		return d.DrugFeatures.Cols()
	}
	return d.NumDrugs()
}

// Observed builds the training view over the train patients.
func (d *Dataset) Observed() Observed {
	o := Observed{X: d.Rows(d.Train), Y: d.Labels(d.Train), DrugFeat: d.DrugFeatures}
	if o.DrugFeat == nil {
		o.DrugFeat = mat.OneHot(d.NumDrugs())
	}
	links := make([][]int, len(d.Train))
	for i, p := range d.Train {
		links[i] = d.TruePositives(p)
	}
	o.L2R, o.R2L = sparse.BipartiteNorm(len(d.Train), d.NumDrugs(), links)
	return o
}

// Pairs is the paper's 1:1 negative sampler over a binary label
// matrix: each epoch, every positive (row, column) pair followed by one
// uniformly drawn column the row does not take, fresh every Sample so
// a decoder cannot memorise a fixed negative set.
type Pairs struct {
	y          *mat.Dense
	posP, posV []int // positives in row-major order

	// Retained sample buffers, refilled by every Sample.
	p, v []int
	t    *mat.Dense
}

// NewPairs indexes the positives of y. A row with no negative (a
// patient who takes every drug) has no 1:1 pair to draw, so its
// positives are left out, and Sample's rejection loop always ends.
func NewPairs(y *mat.Dense) *Pairs {
	s := &Pairs{y: y}
	for p := 0; p < y.Rows(); p++ {
		if !slices.ContainsFunc(y.Row(p), func(v float64) bool { return v != 1 }) {
			continue
		}
		for v := 0; v < y.Cols(); v++ {
			if y.At(p, v) == 1 {
				s.posP = append(s.posP, p)
				s.posV = append(s.posV, v)
			}
		}
	}
	n := 2 * len(s.posP)
	s.p, s.v, s.t = make([]int, n), make([]int, n), mat.New(n, 1)
	return s
}

// Len returns the number of pairs each Sample draws: two per positive.
func (s *Pairs) Len() int { return len(s.p) }

// Sample draws one epoch's pairs: row indices, column indices and the
// (pairs x 1) 0/1 target column, each positive followed by its
// rejection-sampled negative. The results are the sampler's retained
// buffers, valid until the next Sample, so an epoch allocates nothing.
func (s *Pairs) Sample(rng *rand.Rand) (ps, vs []int, y *mat.Dense) {
	yd, cols := s.t.Data(), s.y.Cols()
	for i, p := range s.posP {
		neg := rng.Intn(cols)
		for s.y.At(p, neg) == 1 {
			neg = rng.Intn(cols)
		}
		s.p[2*i], s.v[2*i], yd[2*i] = p, s.posV[i], 1
		s.p[2*i+1], s.v[2*i+1], yd[2*i+1] = p, neg, 0
	}
	return s.p, s.v, s.t
}
