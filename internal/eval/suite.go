// Package eval is the experiment harness: it trains every method of
// the paper's evaluation on the synthetic datasets and regenerates each
// table (I-IV) and figure (2, 3, 7, 8, 9) of the paper as formatted
// text. cmd/benchtab and the repository's benchmarks drive it.
package eval

import (
	"fmt"
	"math/rand"

	"dssddi/internal/baselines"
	"dssddi/internal/dataset"
	"dssddi/internal/ddi"
	"dssddi/internal/kg"
	"dssddi/internal/mat"
	"dssddi/internal/md"
	"dssddi/internal/metrics"
	"dssddi/internal/synth"
)

// Options sizes an experiment run. Quick mode shrinks the cohort and
// epoch counts so a full table regenerates in seconds; Full mode uses
// the paper's sizes (4157 chronic records, 6350 MIMIC patients, 400 +
// 1000 training epochs).
type Options struct {
	Seed           int64
	Males          int
	Females        int
	MIMICPatients  int
	DDIEpochs      int
	MDEpochs       int
	BaselineEpochs int
	Hidden         int
}

// Quick returns the fast profile used by unit benches and smoke runs.
func Quick() Options {
	return Options{
		Seed: 1, Males: 420, Females: 380, MIMICPatients: 600,
		DDIEpochs: 150, MDEpochs: 250, BaselineEpochs: 150, Hidden: 48,
	}
}

// Full returns the paper-scale profile.
func Full() Options {
	return Options{
		Seed: 1, Males: 2254, Females: 1903, MIMICPatients: 6350,
		DDIEpochs: 400, MDEpochs: 1000, BaselineEpochs: 300, Hidden: 64,
	}
}

// Suite holds the materialised data shared by all experiments of one
// run.
type Suite struct {
	Opts     Options
	Chronic  *dataset.Dataset
	Cohort   *synth.Cohort
	MIMIC    *dataset.Dataset
	MIMICGen *synth.MIMIC
	KGEmb    *mat.Dense // TransE drug embeddings (Table II "KG" row)
}

// NewSuite generates the chronic and MIMIC data for one run.
func NewSuite(opts Options) *Suite {
	s := &Suite{Opts: opts}
	rng := rand.New(rand.NewSource(opts.Seed))
	copts := synth.DefaultCohortOptions()
	copts.Males, copts.Females = opts.Males, opts.Females
	s.Cohort = synth.GenerateCohort(rng, copts)

	kgraph := kg.Generate(rng, s.Cohort.Catalog, 40)
	kcfg := kg.DefaultTransEConfig()
	kcfg.Dim = opts.Hidden
	kcfg.Epochs = 30
	kcfg.Seed = opts.Seed
	s.KGEmb = kg.Train(kgraph, kcfg).DrugEmbeddings(len(s.Cohort.Catalog))

	s.Chronic = dataset.FromCohort(rng, s.Cohort, s.KGEmb)

	mopts := synth.DefaultMIMICOptions()
	mopts.Patients = opts.MIMICPatients
	s.MIMICGen = synth.GenerateMIMIC(rng, mopts)
	s.MIMIC = dataset.FromMIMIC(rng, s.MIMICGen)
	return s
}

// DSSDDISuggester adapts the full DSSDDI pipeline (DDIGCN + MDGCN) to
// the Suggester interface used by the harness.
type DSSDDISuggester struct {
	Backbone ddi.Backbone
	Opts     Options
	// RelEmbOverride, when set, replaces the DDIGCN embeddings
	// (Table II ablations). UseDDI=false disables the addition
	// entirely.
	RelEmbOverride *mat.Dense
	UseDDI         bool
	DisplayName    string

	MD *md.Model
}

// NewDSSDDI builds the standard system with the given backbone.
func NewDSSDDI(b ddi.Backbone, opts Options) *DSSDDISuggester {
	return &DSSDDISuggester{
		Backbone: b, Opts: opts, UseDDI: true,
		DisplayName: fmt.Sprintf("DSSDDI(%s)", b),
	}
}

// Name implements Suggester.
func (s *DSSDDISuggester) Name() string { return s.DisplayName }

// Fit implements Suggester.
func (s *DSSDDISuggester) Fit(d *dataset.Dataset) {
	var relEmb *mat.Dense
	switch {
	case !s.UseDDI:
		relEmb = nil
	case s.RelEmbOverride != nil:
		relEmb = s.RelEmbOverride
	default:
		dcfg := ddi.DefaultConfig()
		dcfg.Backbone = s.Backbone
		dcfg.Hidden = s.Opts.Hidden
		dcfg.Epochs = s.Opts.DDIEpochs
		dcfg.Seed = s.Opts.Seed
		dm := ddi.NewModel(d.DDI, dcfg)
		dm.Train()
		relEmb = dm.Embeddings()
	}
	mcfg := md.DefaultConfig()
	mcfg.Hidden = s.Opts.Hidden
	mcfg.Epochs = s.Opts.MDEpochs
	mcfg.Seed = s.Opts.Seed
	mcfg.UseDDI = s.UseDDI
	// δ = 0.3, below the δ = 1 the paper fixes on its own data. On this
	// synthetic cohort a heavier counterfactual loss lowers validation
	// NDCG@4 (Quick options, seed 1, SGCN: 0.232 at δ = 0, 0.225 at
	// 0.3, 0.221 at 1), while δ = 0 would drop the loss of Eq. 17 from
	// the model altogether; 0.3 keeps it at a reduced weight.
	mcfg.Delta = 0.3
	s.MD = md.NewModel(d, relEmb, mcfg)
	s.MD.Train()
}

// Scores implements Suggester.
func (s *DSSDDISuggester) Scores(patients []int) *mat.Dense {
	return s.MD.Scores(patients)
}

// evaluateOn fits a suggester and computes metrics over the test split.
func evaluateOn(m baselines.Suggester, d *dataset.Dataset, ks []int) []metrics.Report {
	m.Fit(d)
	return testReports(m, d, ks)
}

// testReports scores the test split of d with an already-fitted model.
func testReports(m baselines.Suggester, d *dataset.Dataset, ks []int) []metrics.Report {
	scores := m.Scores(d.Test)
	rows := make([][]float64, len(d.Test))
	truth := make([][]int, len(d.Test))
	for i, p := range d.Test {
		rows[i] = scores.Row(i)
		truth[i] = d.TruePositives(p)
	}
	return metrics.Evaluate(rows, truth, ks)
}

// chronicBaselines instantiates the eight baselines with epoch budgets
// from opts.
func chronicBaselines(opts Options) []baselines.Suggester {
	lg := baselines.NewLightGCN()
	lg.Epochs = opts.BaselineEpochs
	gc := baselines.NewGCMC()
	gc.Epochs = opts.BaselineEpochs
	bp := baselines.NewBiparGCN()
	bp.Epochs = opts.BaselineEpochs
	sd := baselines.NewSafeDrug()
	sd.Epochs = opts.BaselineEpochs
	cr := baselines.NewCauseRec()
	cr.Epochs = opts.BaselineEpochs
	return []baselines.Suggester{
		baselines.NewUserSim(),
		baselines.NewECC(),
		baselines.NewSVM(),
		gc, lg, sd, bp, cr,
	}
}
