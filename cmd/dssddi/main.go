// Command dssddi is the command-line front end of the decision support
// system. It supports a train-once / serve-many lifecycle: train and
// save a model snapshot, then answer suggestion, evaluation and
// explanation queries from the snapshot without retraining (pair with
// cmd/dssddi-serve for the HTTP service).
//
// Usage:
//
//	dssddi train   [-patients 800] [-backbone SGCN] -o model.snap
//	dssddi eval    [-m model.snap | training flags]
//	dssddi suggest [-m model.snap] [-patient 12] [-k 3] [-alerts]
//	dssddi explain [-m model.snap] -drugs 46,47
//	dssddi info    -m model.snap
//	dssddi precision [-m model.snap] [-k 4] [-sample 64] [-bench BENCH_serve.json]
//
// Without a subcommand it prints the subcommand list and exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"dssddi"
	"dssddi/internal/alerts"
	"dssddi/internal/benchfmt"
	"dssddi/internal/mat"
	"dssddi/internal/metrics"
)

// options collects the flags shared by the subcommands.
type options struct {
	backbone  string
	patients  int
	seed      int64
	ddiEpochs int
	mdEpochs  int
	hidden    int
	mimic     bool
	workers   int
	model     string // -m: load snapshot instead of training
	out       string // -o: save snapshot after training
	patient   int
	k         int
	drugs     string
	alerts    bool
	sample    int    // precision: max test patients to score
	bench     string // precision: merge stats into this report file
}

func commonFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.backbone, "backbone", "SGCN", "DDIGCN backbone: GIN, SGCN, SiGAT, SNEA")
	fs.IntVar(&o.patients, "patients", 800, "synthetic cohort size")
	fs.Int64Var(&o.seed, "seed", 1, "generation and training seed")
	fs.IntVar(&o.ddiEpochs, "ddi-epochs", 150, "DDI module training epochs (paper: 400)")
	fs.IntVar(&o.mdEpochs, "md-epochs", 250, "MD module training epochs (paper: 1000)")
	fs.IntVar(&o.hidden, "hidden", 0, "representation width (0 = paper default 64)")
	fs.BoolVar(&o.mimic, "mimic", false, "use the MIMIC-like data set instead of the chronic cohort")
	fs.IntVar(&o.workers, "workers", 0, "kernel worker goroutines (0 = GOMAXPROCS, 1 = serial)")
}

func modelFlag(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.model, "m", "", "load this model snapshot instead of training")
}

// trainSystem generates data and trains a fresh system.
func trainSystem(o *options) (*dssddi.System, error) {
	var data *dssddi.Data
	if o.mimic {
		data = dssddi.GenerateMIMIC(o.seed, o.patients)
	} else {
		males := o.patients / 2
		data = dssddi.GenerateChronic(o.seed, o.patients-males, males)
	}
	cfg := dssddi.DefaultConfig()
	cfg.Backbone = o.backbone
	cfg.DDIEpochs = o.ddiEpochs
	cfg.MDEpochs = o.mdEpochs
	if o.hidden > 0 {
		cfg.Hidden = o.hidden
	}
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	sys := dssddi.New(cfg)
	fmt.Fprintf(os.Stderr, "training DSSDDI(%s) on %d patients...\n", o.backbone, data.NumPatients())
	if err := sys.Train(data); err != nil {
		return nil, err
	}
	return sys, nil
}

// loadSystem restores a snapshot from disk.
func loadSystem(path string) (*dssddi.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := dssddi.Load(f)
	if err != nil {
		return nil, err
	}
	info, _ := sys.SnapshotInfo()
	fmt.Fprintf(os.Stderr, "loaded %s: %s model, %d patients, %d drugs\n",
		path, info.Backbone, info.Patients, info.Drugs)
	return sys, nil
}

// obtainSystem loads the -m snapshot when given, else trains.
func obtainSystem(o *options) (*dssddi.System, error) {
	if o.model != "" {
		return loadSystem(o.model)
	}
	return trainSystem(o)
}

func saveSnapshot(sys *dssddi.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.Save(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	info, err := sys.SnapshotInfo()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "saved %s (%d bytes, dataset %s)\n", path, st.Size(), info.DatasetSHA256[:12])
	return nil
}

func cmdTrain(args []string) error {
	var o options
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	commonFlags(fs, &o)
	fs.StringVar(&o.out, "o", "model.snap", "write the trained model snapshot here")
	fs.Parse(args)
	sys, err := trainSystem(&o)
	if err != nil {
		return err
	}
	return saveSnapshot(sys, o.out)
}

func cmdEval(args []string) error {
	var o options
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	commonFlags(fs, &o)
	modelFlag(fs, &o)
	fs.Parse(args)
	sys, err := obtainSystem(&o)
	if err != nil {
		return err
	}
	reports, err := sys.Evaluate(sys.Data().TestPatients(), []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %-10s %-10s %-10s %-10s\n", "k", "Precision", "Recall", "NDCG", "SS")
	for _, r := range reports {
		fmt.Printf("%-4d %-10.4f %-10.4f %-10.4f %-10.4f\n", r.K, r.Precision, r.Recall, r.NDCG, r.SS)
	}
	return nil
}

func cmdSuggest(args []string) error {
	var o options
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	commonFlags(fs, &o)
	modelFlag(fs, &o)
	fs.IntVar(&o.patient, "patient", -1, "patient index (default: first test patient)")
	fs.IntVar(&o.k, "k", 3, "suggestion list length")
	fs.BoolVar(&o.alerts, "alerts", true, "screen suggestions against the patient's regimen")
	fs.Parse(args)
	sys, err := obtainSystem(&o)
	if err != nil {
		return err
	}
	data := sys.Data()
	p := o.patient
	if p < 0 {
		p = data.TestPatients()[0]
	}
	suggs, err := sys.Suggest(p, o.k)
	if err != nil {
		return err
	}
	regimen := data.Medications(p)
	fmt.Printf("patient %d takes:", p)
	for _, d := range regimen {
		fmt.Printf(" %s", data.DrugName(d))
	}
	fmt.Println()
	var checker *alerts.Checker
	if o.alerts {
		emb, err := sys.DrugRelationEmbeddings()
		if err != nil {
			return err
		}
		names := make([]string, data.NumDrugs())
		for i := range names {
			names[i] = data.DrugName(i)
		}
		checker = alerts.NewChecker(data.Dataset().DDI, emb, names)
	}
	for i, s := range suggs {
		fmt.Printf("%d. %-24s %.4f\n", i+1, s.DrugName, s.Score)
		if checker != nil {
			for _, a := range checker.ScreenAgainst(regimen, []int{s.DrugID}) {
				fmt.Printf("   [%s] %s\n", a.Severity, a.Message)
			}
		}
	}
	fmt.Println()
	ex, err := sys.ExplainSuggestions(suggs)
	if err != nil {
		return err
	}
	fmt.Println(ex.Text)
	return nil
}

func cmdExplain(args []string) error {
	var o options
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	commonFlags(fs, &o)
	modelFlag(fs, &o)
	fs.StringVar(&o.drugs, "drugs", "", "comma-separated drug IDs, e.g. 46,47")
	fs.Parse(args)
	if o.drugs == "" {
		return fmt.Errorf("explain needs -drugs, e.g. -drugs 46,47")
	}
	ids, err := parseDrugs(o.drugs)
	if err != nil {
		return err
	}
	sys, err := obtainSystem(&o)
	if err != nil {
		return err
	}
	ex, err := sys.Explain(ids)
	if err != nil {
		return err
	}
	fmt.Println(ex.Text)
	return nil
}

func cmdInfo(args []string) error {
	var o options
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	modelFlag(fs, &o)
	fs.Parse(args)
	if o.model == "" {
		return fmt.Errorf("info needs -m model.snap")
	}
	f, err := os.Open(o.model)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := dssddi.ReadSnapshotInfo(f)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// cmdPrecision characterizes the f32 serving precision against the
// float64 accuracy oracle: it scores a sample of test patients at f64
// and f32, and reports the max absolute score divergence and top-K
// ranking invariance. With -bench it merges the
// stats (and the active SIMD level) into an existing benchfmt report,
// where cmd/benchdiff -precision-gate hard-fails on regressions.
func cmdPrecision(args []string) error {
	var o options
	fs := flag.NewFlagSet("precision", flag.ExitOnError)
	commonFlags(fs, &o)
	modelFlag(fs, &o)
	fs.IntVar(&o.k, "k", 4, "top-K list length for ranking invariance")
	fs.IntVar(&o.sample, "sample", 64, "max test patients to sample")
	fs.StringVar(&o.bench, "bench", "", "merge the stats into this benchfmt report file")
	fs.Parse(args)
	sys, err := obtainSystem(&o)
	if err != nil {
		return err
	}
	stats, err := precisionStats(sys, o.sample, o.k)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if o.bench == "" {
		return nil
	}
	raw, err := os.ReadFile(o.bench)
	if err != nil {
		return err
	}
	var report benchfmt.Report
	if err := json.Unmarshal(raw, &report); err != nil {
		return fmt.Errorf("%s: %v", o.bench, err)
	}
	report.Precisions = stats
	report.SIMD = mat.SIMD()
	out, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.bench, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged %d precision entries into %s\n", len(stats), o.bench)
	return nil
}

func precisionStats(sys *dssddi.System, sample, k int) ([]benchfmt.PrecisionStats, error) {
	patients := sys.Data().TestPatients()
	if len(patients) > sample {
		patients = patients[:sample]
	}
	oracle, err := sys.Scores(patients)
	if err != nil {
		return nil, err
	}
	if err := sys.SetPrecision("f32"); err != nil {
		return nil, err
	}
	rows, err := sys.Scores(patients)
	if err != nil {
		return nil, err
	}
	st := benchfmt.PrecisionStats{Precision: "f32", Patients: len(patients), K: k}
	invariant := 0
	for i, row := range rows {
		st.Drugs = len(row)
		for v, sc := range row {
			if d := math.Abs(sc - oracle[i][v]); d > st.MaxAbsDelta {
				st.MaxAbsDelta = d
			}
		}
		if slices.Equal(metrics.TopK(row, k), metrics.TopK(oracle[i], k)) {
			invariant++
		}
	}
	if len(patients) > 0 {
		st.RankingInvariance = float64(invariant) / float64(len(patients))
	}
	if err := sys.SetPrecision("f64"); err != nil {
		return nil, err
	}
	return []benchfmt.PrecisionStats{st}, nil
}

func parseDrugs(spec string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad drug ID %q: %v", part, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

const subcommands = "train, eval, suggest, explain, info or precision"

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		fmt.Fprintf(os.Stderr, "usage: dssddi <subcommand> [flags]; subcommands: %s\n", subcommands)
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "suggest":
		err = cmdSuggest(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "precision":
		err = cmdPrecision(os.Args[2:])
	case "help", "usage":
		fmt.Fprintf(os.Stderr, "subcommands: %s\n", subcommands)
	default:
		err = fmt.Errorf("unknown subcommand %q (want %s)", cmd, subcommands)
	}
	if err != nil {
		log.Fatal(err)
	}
}
