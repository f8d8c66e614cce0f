// Package dssddi is a decision support system for chronic diseases
// based on drug-drug interactions — a from-scratch Go reproduction of
// Bian et al., "Decision Support System for Chronic Diseases Based on
// Drug-Drug Interactions" (ICDE 2023).
//
// The system has three modules:
//
//   - the DDI module learns drug relation embeddings from a signed
//     drug-drug interaction graph (DDIGCN; backbones GIN, SGCN, SiGAT,
//     SNEA),
//   - the MD module suggests medications by link prediction on the
//     patient-drug bipartite graph, trained with counterfactual links
//     derived from a causal treatment model (MDGCN),
//   - the MS module explains each suggestion with the closest dense
//     subgraph of the DDI graph and the Suggestion Satisfaction score.
//
// Quickstart:
//
//	data := dssddi.GenerateChronic(1, 300, 250)
//	sys := dssddi.New(dssddi.DefaultConfig())
//	sys.Train(data)
//	suggestions, _ := sys.Suggest(data.TestPatients()[0], 3)
//	explanation, _ := sys.ExplainSuggestions(suggestions)
//	fmt.Println(explanation.Text)
package dssddi

import (
	"fmt"
	"math/rand"

	"dssddi/internal/dataset"
	"dssddi/internal/ddi"
	"dssddi/internal/kg"
	"dssddi/internal/mat"
	"dssddi/internal/md"
	"dssddi/internal/metrics"
	"dssddi/internal/ms"
	"dssddi/internal/synth"
)

// ExplicitZero is a sentinel for the Config fields whose literal zero
// value selects a paper default (Alpha, Delta): set a field to
// ExplicitZero to request an exact zero instead of the default. Any
// other negative value is rejected at Train time.
const ExplicitZero float64 = -1

// Config tunes the whole system. Zero values fall back to the paper's
// hyperparameters (Section V-A3).
type Config struct {
	// Backbone of the DDI module: "GIN", "SGCN" (default), "SiGAT" or
	// "SNEA".
	Backbone string
	// DDIEpochs / MDEpochs bound the two training loops (defaults 400
	// and 1000, the paper's settings).
	DDIEpochs int
	MDEpochs  int
	// Hidden is the representation width (default 64).
	Hidden int
	// Delta weights the counterfactual loss (default 1; ExplicitZero
	// disables it).
	Delta float64
	// Alpha balances the two terms of Suggestion Satisfaction
	// (default 0.5; ExplicitZero weights only the second term).
	Alpha float64
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the goroutines used by the dense/sparse compute
	// kernels (a process-wide knob shared by all systems). 0 keeps
	// the current process-wide setting (which defaults to
	// runtime.GOMAXPROCS(0)); 1 restores exact-serial execution. Any
	// setting produces bitwise-identical results — kernels partition
	// rows, never reductions.
	Workers int
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Backbone:  "SGCN",
		DDIEpochs: 400,
		MDEpochs:  1000,
		Hidden:    64,
		Delta:     1,
		Alpha:     0.5,
		Seed:      1,
	}
}

func (c *Config) fill() {
	if c.Backbone == "" {
		c.Backbone = "SGCN"
	}
	if c.DDIEpochs == 0 {
		c.DDIEpochs = 400
	}
	if c.MDEpochs == 0 {
		c.MDEpochs = 1000
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	switch c.Alpha {
	case 0:
		c.Alpha = 0.5
	case ExplicitZero:
		c.Alpha = 0
	}
	switch c.Delta {
	case 0:
		c.Delta = 1
	case ExplicitZero:
		c.Delta = 0
	}
}

// validate rejects out-of-range hyperparameters after fill has
// resolved defaults and sentinels.
func (c *Config) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("dssddi: Alpha %v out of range [0, 1] (use ExplicitZero for an exact zero)", c.Alpha)
	}
	if c.Delta < 0 {
		return fmt.Errorf("dssddi: Delta %v must be non-negative (use ExplicitZero for an exact zero)", c.Delta)
	}
	return nil
}

func parseBackbone(s string) (ddi.Backbone, error) {
	switch s {
	case "GIN":
		return ddi.GIN, nil
	case "SGCN":
		return ddi.SGCN, nil
	case "SiGAT":
		return ddi.SiGAT, nil
	case "SNEA":
		return ddi.SNEA, nil
	default:
		return 0, fmt.Errorf("dssddi: unknown backbone %q (want GIN, SGCN, SiGAT or SNEA)", s)
	}
}

// Data is a medication-suggestion problem instance: patients with
// features and medication-use labels, plus the signed DDI graph.
type Data struct {
	ds    *dataset.Dataset
	names []string
}

// GenerateChronic builds a synthetic chronic-disease cohort shaped
// after the paper's Hong Kong Chronic Disease Study data (86 drugs, 71
// features, 97 synergistic + 243 antagonistic DDI pairs) together with
// TransE-pretrained drug features, split 5:3:2.
func GenerateChronic(seed int64, males, females int) *Data {
	rng := rand.New(rand.NewSource(seed))
	opts := synth.DefaultCohortOptions()
	opts.Males, opts.Females = males, females
	cohort := synth.GenerateCohort(rng, opts)
	// Pretrained drug features from the synthetic knowledge graph.
	kgraph := kg.Generate(rng, cohort.Catalog, 40)
	cfg := kg.DefaultTransEConfig()
	cfg.Dim = 64
	cfg.Epochs = 30
	cfg.Seed = seed
	emb := kg.Train(kgraph, cfg).DrugEmbeddings(len(cohort.Catalog))
	ds := dataset.FromCohort(rng, cohort, emb)
	return &Data{ds: ds, names: ds.DrugNames}
}

// GenerateChronicDefault builds the full-size cohort of the paper
// (2254 male + 1903 female records).
func GenerateChronicDefault(seed int64) *Data { return GenerateChronic(seed, 2254, 1903) }

// GenerateMIMIC builds the synthetic critical-care instance standing in
// for MIMIC-III (visit sequences, anonymous medicines, unsigned DDI).
func GenerateMIMIC(seed int64, patients int) *Data {
	rng := rand.New(rand.NewSource(seed))
	opts := synth.DefaultMIMICOptions()
	if patients > 0 {
		opts.Patients = patients
	}
	m := synth.GenerateMIMIC(rng, opts)
	ds := dataset.FromMIMIC(rng, m)
	return &Data{ds: ds, names: ds.DrugNames}
}

// Dataset exposes the underlying dataset for the experiment harness.
func (d *Data) Dataset() *dataset.Dataset { return d.ds }

// NumPatients returns the cohort size.
func (d *Data) NumPatients() int { return d.ds.NumPatients() }

// NumDrugs returns the drug-candidate count.
func (d *Data) NumDrugs() int { return d.ds.NumDrugs() }

// DrugName resolves a drug ID.
func (d *Data) DrugName(id int) string {
	if id < 0 || id >= len(d.names) {
		return fmt.Sprintf("DID %d", id)
	}
	return d.names[id]
}

// TrainPatients returns the observed (training) patient indices.
func (d *Data) TrainPatients() []int { return d.ds.Train }

// ValPatients returns the validation patient indices.
func (d *Data) ValPatients() []int { return d.ds.Val }

// TestPatients returns the unobserved (test) patient indices.
func (d *Data) TestPatients() []int { return d.ds.Test }

// Medications returns the drug IDs patient p is recorded as taking.
func (d *Data) Medications(p int) []int { return d.ds.TruePositives(p) }

// Features returns a copy of patient p's feature vector.
func (d *Data) Features(p int) []float64 {
	return append([]float64(nil), d.ds.X.Row(p)...)
}

// Suggestion is one ranked drug recommendation.
type Suggestion struct {
	DrugID   int
	DrugName string
	Score    float64
}

// Explanation is the MS module's output with drug names resolved.
type Explanation struct {
	// SS is the Suggestion Satisfaction (Eq. 19 of the paper).
	SS float64
	// Synergistic / Antagonistic list the interactions in the
	// explanation subgraph as "DrugA and DrugB" strings.
	Synergistic  []string
	Antagonistic []string
	// SubgraphDrugs names every drug in the closest dense subgraph.
	SubgraphDrugs []string
	// Text is the full rendered explanation.
	Text string
}

// System is a trained DSSDDI instance.
type System struct {
	cfg      Config
	backbone ddi.Backbone
	data     *Data
	ddiModel *ddi.Model
	mdModel  *md.Model
	trained  bool
	// digest is data's identity digest (datasetDigest), taken once
	// when the system is trained or loaded; nothing mutates a trained
	// system's data.
	digest string
}

// New creates an untrained system. Invalid configurations surface at
// Train time. A non-zero Workers setting takes effect immediately
// (process-wide); zero leaves the current setting untouched, so
// constructing a default-config system never clobbers an explicit
// earlier choice.
func New(cfg Config) *System {
	cfg.fill()
	if cfg.Workers != 0 {
		mat.SetWorkers(cfg.Workers)
	}
	return &System{cfg: cfg}
}

// Train fits the DDI module on the data's interaction graph and the MD
// module on its observed patients.
func (s *System) Train(data *Data) error {
	b, err := parseBackbone(s.cfg.Backbone)
	if err != nil {
		return err
	}
	if err := s.cfg.validate(); err != nil {
		return err
	}
	syn, ant, _ := data.ds.DDI.CountBySign()
	useSigned := syn > 0 && ant > 0
	if !useSigned && (b == ddi.SGCN || b == ddi.SiGAT || b == ddi.SNEA) {
		// Signed backbones need both edge signs (the paper reports only
		// GIN on MIMIC for this reason).
		return fmt.Errorf("dssddi: backbone %v needs both synergy and antagonism edges; this data has %d/%d (use GIN)", b, syn, ant)
	}
	// Past the last rejection: a rejected Train leaves the system, its
	// data and its digest as they were.
	s.backbone = b
	s.data = data

	dcfg := ddi.DefaultConfig()
	dcfg.Backbone = b
	dcfg.Hidden = s.cfg.Hidden
	dcfg.Epochs = s.cfg.DDIEpochs
	dcfg.Seed = s.cfg.Seed
	s.ddiModel = ddi.NewModel(data.ds.DDI, dcfg)
	s.ddiModel.Train()
	relEmb := s.ddiModel.Embeddings()

	mcfg := md.DefaultConfig()
	mcfg.Hidden = s.cfg.Hidden
	mcfg.Epochs = s.cfg.MDEpochs
	mcfg.Delta = s.cfg.Delta
	mcfg.Seed = s.cfg.Seed
	s.mdModel = md.NewModel(data.ds, relEmb, mcfg)
	s.mdModel.Train()
	s.digest = datasetDigest(data.ds)
	s.trained = true
	return nil
}

func (s *System) ensureTrained() error {
	if !s.trained {
		return fmt.Errorf("dssddi: system is not trained; call Train first")
	}
	return nil
}

// checkPatients rejects the first patient index outside the system's
// data. Every method that takes patient indices checks them here
// before they reach the scoring engine.
func (s *System) checkPatients(patients ...int) error {
	for _, p := range patients {
		if p < 0 || p >= s.data.NumPatients() {
			return fmt.Errorf("dssddi: patient %d out of range %d", p, s.data.NumPatients())
		}
	}
	return nil
}

// SetPrecision switches the serving-side numeric representation of the
// frozen MD model: "f64" (the default and the accuracy oracle) or
// "f32" (float32 copies of the frozen state on the f32 SIMD kernels,
// half the resident bytes). The derivation is deterministic per
// snapshot. It must not run concurrently with
// scoring; the serving layer applies it to a freshly loaded system
// before the epoch is published. Embeddings built at one precision are
// rejected at another (see EmbedPatient), so callers holding
// PatientEmbeddings must re-embed after a switch.
func (s *System) SetPrecision(name string) error {
	if err := s.ensureTrained(); err != nil {
		return err
	}
	p, err := md.ParsePrecision(name)
	if err != nil {
		return err
	}
	return s.mdModel.SetPrecision(p)
}

// ValidatePrecision reports whether name is a recognized precision
// ("", "f64", "f32") without touching any system.
func ValidatePrecision(name string) error {
	_, err := md.ParsePrecision(name)
	return err
}

// Precision reports the active serving precision ("f64" or "f32").
func (s *System) Precision() string {
	if s.mdModel == nil {
		return md.F64.String()
	}
	return s.mdModel.Precision().String()
}

// ResidentModelBytes returns the explicit resident byte count of the
// active serving representation of the frozen model — measured from
// the blobs themselves per precision, not from runtime.MemStats.
func (s *System) ResidentModelBytes() int {
	if s.mdModel == nil {
		return 0
	}
	return s.mdModel.ResidentModelBytes()
}

// Suggest returns the top-k drug suggestions for a patient of the
// training data (typically a test patient). It is the single-patient
// cold fast path: scoring streams through the MD module's tiled
// TopKScores — pooled scratch, a size-k running selection, no full
// score row — and returns exactly the suggestions ranking a full
// Scores row would produce.
func (s *System) Suggest(patient, k int) ([]Suggestion, error) {
	if err := s.ensureTrained(); err != nil {
		return nil, err
	}
	if err := s.checkPatients(patient); err != nil {
		return nil, err
	}
	ids, scores := s.mdModel.TopKScores(patient, k)
	out := make([]Suggestion, len(ids))
	for i, v := range ids {
		out[i] = Suggestion{DrugID: v, DrugName: s.data.DrugName(v), Score: scores[i]}
	}
	return out, nil
}

// Scores returns the raw suggestion scores (one row per patient, one
// column per drug).
func (s *System) Scores(patients []int) ([][]float64, error) {
	if err := s.ensureTrained(); err != nil {
		return nil, err
	}
	if err := s.checkPatients(patients...); err != nil {
		return nil, err
	}
	// Scores materialises a fresh matrix owned by this call, so the
	// rows can be handed out directly — no second copy. Capacities are
	// clipped so appending to one row can never bleed into the next.
	m := s.mdModel.Scores(patients)
	n := m.Cols()
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)[:n:n]
	}
	return rows, nil
}

// ScoresInto fills rows[i] with the suggestion scores of patients[i]
// — the buffer-reusing form of Scores. Each rows[i] must have length
// NumDrugs. The serving batcher feeds pooled row buffers through
// here, so steady-state batch scoring allocates nothing; the values
// are bitwise identical to Scores.
func (s *System) ScoresInto(rows [][]float64, patients []int) error {
	if err := s.ensureTrained(); err != nil {
		return err
	}
	if len(rows) != len(patients) {
		return fmt.Errorf("dssddi: ScoresInto got %d rows for %d patients", len(rows), len(patients))
	}
	for i, r := range rows {
		if len(r) != s.data.NumDrugs() {
			return fmt.Errorf("dssddi: ScoresInto row %d has length %d, want %d", i, len(r), s.data.NumDrugs())
		}
	}
	if err := s.checkPatients(patients...); err != nil {
		return err
	}
	s.mdModel.ScoresRowsInto(rows, patients)
	return nil
}

// SuggestFromScores ranks a precomputed score row (one element per
// drug, as returned by Scores) into a suggestion list. It is the
// batched serving path: a server that coalesced many patients into one
// Scores call re-ranks each row with exactly the code Suggest uses, so
// batched and direct suggestions are identical. Returns an error on an
// untrained system or a row of the wrong width.
func (s *System) SuggestFromScores(scores []float64, k int) ([]Suggestion, error) {
	if err := s.ensureTrained(); err != nil {
		return nil, err
	}
	if len(scores) != s.data.NumDrugs() {
		return nil, fmt.Errorf("dssddi: score row has %d entries for %d drugs", len(scores), s.data.NumDrugs())
	}
	return s.rank(scores, k), nil
}

func (s *System) rank(scores []float64, k int) []Suggestion {
	// Streaming selection with metrics.TopK's exact ordering, without
	// allocating and sorting an index permutation of the whole row.
	var sel metrics.Selector
	sel.Reset(k)
	for i, v := range scores {
		sel.Push(i, v)
	}
	out := make([]Suggestion, sel.Len())
	for r := range out {
		v, sc := sel.At(r)
		out[r] = Suggestion{DrugID: v, DrugName: s.data.DrugName(v), Score: sc}
	}
	return out
}

// PatientProfile describes a patient by clinical content instead of a
// dataset index: their current medication regimen (drug IDs) and an
// optional feature vector of the training data's feature width. It is
// the online-layer input — profiles for patients the model has never
// seen, or edited regimens for known ones, score without retraining.
type PatientProfile struct {
	Regimen  []int
	Features []float64
}

// PatientEmbedding is an opaque scoring-ready representation of one
// PatientProfile, produced by EmbedPatient and consumed by the
// *ForEmbedding methods. Embedding once and scoring many times is the
// serving fast path: the registry caches one embedding per registered
// patient and recomputes it only on regimen/feature writes. An
// embedding is bound to the System that produced it.
type PatientEmbedding struct {
	sys *System
	emb *md.PatientEmbedding
}

// EmbedPatient builds the scoring-ready embedding of a patient
// profile. For an observed (training) patient embedded with their own
// recorded regimen and features, scoring the embedding is bitwise
// identical to the transductive Scores/Suggest path for that index;
// unseen profiles run the same kernels over the inductive patient
// representation (see internal/md).
func (s *System) EmbedPatient(p PatientProfile) (*PatientEmbedding, error) {
	if err := s.ensureTrained(); err != nil {
		return nil, err
	}
	emb, err := s.mdModel.EmbedPatient(p.Regimen, p.Features)
	if err != nil {
		return nil, fmt.Errorf("dssddi: %w", err)
	}
	return &PatientEmbedding{sys: s, emb: emb}, nil
}

// Bytes returns the resident size of the embedding's payload — the
// per-entry term of the registry's explicit memory accounting. At
// precision f32 embeddings store only narrowed representations,
// so this is half the f64 figure.
func (e *PatientEmbedding) Bytes() int {
	if e == nil || e.emb == nil {
		return 0
	}
	return e.emb.Bytes()
}

// checkEmbedding rejects embeddings that did not come from this
// system — scoring one against a different model (for example across a
// serving hot-reload) would silently mix two models' representations.
func (s *System) checkEmbedding(e *PatientEmbedding) error {
	if e == nil || e.emb == nil {
		return fmt.Errorf("dssddi: nil patient embedding")
	}
	if e.sys != s {
		return fmt.Errorf("dssddi: patient embedding belongs to a different System; re-embed the profile")
	}
	return nil
}

// SuggestFor returns the top-k drug suggestions for an arbitrary
// patient profile — the inductive counterpart of Suggest, riding the
// same tiled top-k engine.
func (s *System) SuggestFor(p PatientProfile, k int) ([]Suggestion, error) {
	e, err := s.EmbedPatient(p)
	if err != nil {
		return nil, err
	}
	return s.SuggestForEmbedding(e, k)
}

// SuggestForEmbedding is SuggestFor over a prebuilt embedding.
func (s *System) SuggestForEmbedding(e *PatientEmbedding, k int) ([]Suggestion, error) {
	if err := s.checkEmbedding(e); err != nil {
		return nil, err
	}
	ids, scores := s.mdModel.TopKScoresFor(e.emb, k)
	out := make([]Suggestion, len(ids))
	for i, v := range ids {
		out[i] = Suggestion{DrugID: v, DrugName: s.data.DrugName(v), Score: scores[i]}
	}
	return out, nil
}

// ScoresFor returns the raw suggestion scores (one per drug) for an
// arbitrary patient profile.
func (s *System) ScoresFor(p PatientProfile) ([]float64, error) {
	e, err := s.EmbedPatient(p)
	if err != nil {
		return nil, err
	}
	return s.ScoresForEmbedding(e)
}

// ScoresForEmbedding is ScoresFor over a prebuilt embedding.
func (s *System) ScoresForEmbedding(e *PatientEmbedding) ([]float64, error) {
	if err := s.checkEmbedding(e); err != nil {
		return nil, err
	}
	return s.mdModel.ScoresFor(e.emb), nil
}

// ScoresForEmbeddingInto fills dst (length NumDrugs) with the scores
// of a prebuilt embedding — the buffer-reusing serving form.
func (s *System) ScoresForEmbeddingInto(dst []float64, e *PatientEmbedding) error {
	if err := s.checkEmbedding(e); err != nil {
		return err
	}
	if len(dst) != s.data.NumDrugs() {
		return fmt.Errorf("dssddi: ScoresForEmbeddingInto dst has length %d, want %d", len(dst), s.data.NumDrugs())
	}
	s.mdModel.ScoresForInto(dst, e.emb)
	return nil
}

// ExplainFor suggests top-k drugs for an arbitrary patient profile and
// explains the suggested set with the MS module, returning both.
func (s *System) ExplainFor(p PatientProfile, k int) ([]Suggestion, Explanation, error) {
	suggs, err := s.SuggestFor(p, k)
	if err != nil {
		return nil, Explanation{}, err
	}
	ex, err := s.ExplainSuggestions(suggs)
	if err != nil {
		return nil, Explanation{}, err
	}
	return suggs, ex, nil
}

// Explain runs the MS module on a set of drug IDs.
func (s *System) Explain(drugIDs []int) (Explanation, error) {
	if err := s.ensureTrained(); err != nil {
		return Explanation{}, err
	}
	opts := ms.DefaultOptions()
	opts.Alpha = s.cfg.Alpha
	ex := ms.Explain(s.data.ds.DDI, drugIDs, opts)
	out := Explanation{SS: ex.SS, Text: ex.Render(s.data.names)}
	for _, n := range ex.Nodes {
		out.SubgraphDrugs = append(out.SubgraphDrugs, s.data.DrugName(n))
	}
	for _, e := range ex.Edges {
		line := fmt.Sprintf("%s and %s", s.data.DrugName(e.U), s.data.DrugName(e.V))
		if e.Sign > 0 {
			out.Synergistic = append(out.Synergistic, line)
		} else {
			out.Antagonistic = append(out.Antagonistic, line)
		}
	}
	return out, nil
}

// ExplainSuggestions is Explain over a suggestion list. It propagates
// Explain's error (an untrained system) instead of returning an empty
// Explanation that is indistinguishable from "no subgraph found".
func (s *System) ExplainSuggestions(suggs []Suggestion) (Explanation, error) {
	ids := make([]int, len(suggs))
	for i, sg := range suggs {
		ids[i] = sg.DrugID
	}
	return s.Explain(ids)
}

// Metrics bundles the ranking metrics of the paper at one k.
type Metrics struct {
	K         int
	Precision float64
	Recall    float64
	NDCG      float64
	SS        float64
}

// Evaluate scores the given patients and reports Precision/Recall/NDCG
// and mean Suggestion Satisfaction at each k. Scoring runs tile by
// tile through the fused engine, so evaluation peaks at the
// O(patients·drugs) result matrix plus O(tile) scratch — the old
// batched path's O(patients·drugs·dim) pair intermediates are gone.
func (s *System) Evaluate(patients []int, ks []int) ([]Metrics, error) {
	if err := s.ensureTrained(); err != nil {
		return nil, err
	}
	if err := s.checkPatients(patients...); err != nil {
		return nil, err
	}
	scores := s.mdModel.Scores(patients)
	rows := make([][]float64, len(patients))
	truth := make([][]int, len(patients))
	for i, p := range patients {
		rows[i] = scores.Row(i)
		truth[i] = s.data.ds.TruePositives(p)
	}
	reports := metrics.Evaluate(rows, truth, ks)
	out := make([]Metrics, len(reports))
	opts := ms.DefaultOptions()
	opts.Alpha = s.cfg.Alpha
	for i, r := range reports {
		sugg := make([][]int, len(rows))
		for j := range rows {
			sugg[j] = metrics.TopK(rows[j], r.K)
		}
		out[i] = Metrics{
			K: r.K, Precision: r.Precision, Recall: r.Recall, NDCG: r.NDCG,
			SS: ms.MeanSS(s.data.ds.DDI, sugg, opts),
		}
	}
	return out, nil
}

// DrugRelationEmbeddings exposes the DDI module's learned drug
// relation embeddings (one row per drug).
func (s *System) DrugRelationEmbeddings() ([][]float64, error) {
	if err := s.ensureTrained(); err != nil {
		return nil, err
	}
	// Embeddings returns a private copy, so its rows are ours to share
	// (capacity-clipped so appends cannot cross row boundaries).
	z := s.ddiModel.Embeddings()
	n := z.Cols()
	rows := make([][]float64, z.Rows())
	for i := range rows {
		rows[i] = z.Row(i)[:n:n]
	}
	return rows, nil
}
