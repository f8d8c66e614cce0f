// Command perfbench is the repository benchmark. It boots the real
// dssddi-serve (and, for the fleet workload, dssddi-router) from a
// model snapshot, drives them from this one load-generator process,
// checks every answer against an in-process reference built from the
// same snapshot, and prints one JSON result line.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload cold-f64 --seed 1 --seconds 20 --trace 0
//
// run.sh builds this command and the two programs from source into
// .bench_build/ and runs it. Each run is a closed-loop peak phase
// (one client per core) followed by an open-loop paced phase at a
// fixed offered rate, after an untimed warm-up. With --trace 1 the run
// instead climbs a ladder of in-process calls (md, alerts, encode,
// handler, loopback HTTP, router) replaying the workload's requests,
// and reports per-layer times and the counts scraped from /metricsz.
//
// The generator pins itself to the first allowed CPU at GOMAXPROCS=1
// and runs the programs on the others.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dssddi"
	"dssddi/internal/mat"
	"dssddi/internal/obs"
)

// Benchmark model: the serve-smoke shape, from a fixed training seed.
const (
	modelPatients  = 70
	modelHidden    = 384
	modelDDIEpochs = 5
	modelMDEpochs  = 10
	modelSeed      = 1
)

const pinnedEnv = "PERFBENCH_CPUS"

// generatorHeapLimit bounds the generator's heap with proportional
// collection turned off.
const generatorHeapLimit = 384 << 20

var tasksetPath string

func main() {
	genCPU, progCPU := pinGenerator()
	runtime.GOMAXPROCS(1)
	// A collection on the generator's single P stalls the schedule, so
	// collect only between phases (see gcBetweenPhases) or when the heap
	// nears the limit.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(generatorHeapLimit)
	var (
		name    = flag.String("workload", "", "workload: cold-f64, cold-f32 or fleet-mix")
		seed    = flag.Int64("seed", 1, "seed of the generated requests")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced ladder run reporting per-layer metrics")
		root    = flag.String("root", ".", "root of the checkout")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 {
		fail(errors.New("--seconds must be at least 1"))
	}
	r := &runner{
		w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		root: *root, genCPU: genCPU, progCPU: progCPU, origin: time.Now(),
	}
	res, rep, err := r.run()
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// pinGenerator re-executes the benchmark under taskset on the first
// allowed CPU and returns that CPU and the list left for the programs.
// With one CPU, or without taskset, nothing is pinned.
func pinGenerator() (gen, prog string) {
	tasksetPath, _ = exec.LookPath("taskset")
	if v, ok := os.LookupEnv(pinnedEnv); ok {
		gen, prog, _ = strings.Cut(v, ":")
		return gen, prog
	}
	cpus := allowedCPUs()
	if len(cpus) < 2 || tasksetPath == "" {
		os.Setenv(pinnedEnv, ":")
		return "", ""
	}
	parts := make([]string, len(cpus)-1)
	for i, c := range cpus[1:] {
		parts[i] = strconv.Itoa(c)
	}
	gen, prog = strconv.Itoa(cpus[0]), strings.Join(parts, ",")
	os.Setenv(pinnedEnv, gen+":"+prog)
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	err = syscall.Exec(tasksetPath, append([]string{"taskset", "-c", gen, self}, os.Args[1:]...), os.Environ())
	fail(fmt.Errorf("re-executing under taskset: %w", err))
	return "", ""
}

// allowedCPUs parses Cpus_allowed_list of this process.
func allowedCPUs() []int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil
	}
	var cpus []int
	for _, line := range strings.Split(string(b), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			a, err1 := strconv.Atoi(lo)
			z := a
			var err2 error
			if isRange {
				z, err2 = strconv.Atoi(hi)
			}
			if err1 != nil || err2 != nil {
				return nil
			}
			for c := a; c <= z; c++ {
				cpus = append(cpus, c)
			}
		}
	}
	return cpus
}

// ensureModel trains the benchmark model once and caches its snapshot.
func ensureModel(path string) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	males := modelPatients / 2
	data := dssddi.GenerateChronic(modelSeed, modelPatients-males, males)
	cfg := dssddi.DefaultConfig()
	cfg.Backbone = "SGCN"
	cfg.Hidden = modelHidden
	cfg.DDIEpochs = modelDDIEpochs
	cfg.MDEpochs = modelMDEpochs
	cfg.Seed = modelSeed
	sys := dssddi.New(cfg)
	if err := sys.Train(data); err != nil {
		return fmt.Errorf("training the benchmark model: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sys.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sourceDigest hashes the checkout's Go sources, standing in for a
// commit id where the checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions (the package tests check they agree).
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd is what a run with --trace 0 reports.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"suggest_p50_ms", "ms", "lower"},
	{"suggest_p90_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p90_ms", "ms", "lower"},
	{"ok_share", "ratio", "higher"},
	{"model_resident_bytes", "bytes", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what a run with --trace 1 reports.
var perLayer = []metricSpec{
	{"md.score_row_us", "us", "lower"},
	{"md.rank_us", "us", "lower"},
	{"md.embed_us", "us", "lower"},
	{"md.topk_for_us", "us", "lower"},
	{"alerts.screen_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.suggest_handler_us", "us", "lower"},
	{"serve.put_handler_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.cache_hit_share", "ratio", "higher"},
	{"serve.batch_size", "count", "higher"},
	{"serve.shed_share", "ratio", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"wal.append_us", "us", "lower"},
	{"http.loopback_us", "us", "lower"},
	{"router.read_overhead_us", "us", "lower"},
	{"router.write_overhead_us", "us", "lower"},
	{"router.fanouts", "count", "higher"},
	{"router.quorum_failures", "count", "lower"},
	{"router.retries", "count", "lower"},
	{"snapshot.load_ms", "ms", "lower"},
	{"serve.boot_ms", "ms", "lower"},
	{"router.ready_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// withUnits attaches each spec's unit to its value, and fails unless
// values holds exactly the specs' metrics.
func withUnits(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, sp := range specs {
		v, ok := values[sp.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", sp.Name)
		}
		out[sp.Name] = metric{v, sp.Unit}
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(values), len(specs))
	}
	return out, nil
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the human-facing detail printed just before the result.
type report struct {
	Workload    string        `json:"workload"`
	Seed        int64         `json:"seed"`
	Seconds     float64       `json:"seconds"`
	Trace       bool          `json:"trace"`
	NProc       int           `json:"nproc"`
	GenCPU      string        `json:"generator_cpu"`
	ProgramCPUs string        `json:"program_cpus"`
	SIMD        string        `json:"simd"`
	Commit      string        `json:"commit"`
	Source      string        `json:"source_sha256"`
	Precision   string        `json:"precision"`
	PacedRate   float64       `json:"paced_rate"`
	PacedValid  bool          `json:"paced_valid"`
	Phases      []phaseResult `json:"phases"`
	ErrorShare  float64       `json:"error_share"`
	Wrong       int           `json:"wrong_answers"`
	Lost        int           `json:"lost_registrations"`
	Examples    []string      `json:"failure_examples,omitempty"`
	SuggestP99  float64       `json:"suggest_p99_ms"`
	P99Samples  int           `json:"suggest_p99_tail_samples"`
	SetupRuns   []float64     `json:"setup_runs_s"`
	// StealShare is the share of CPU time the host took from this
	// machine's CPUs during the run, a gauge of interference.
	StealShare float64           `json:"steal_share"`
	Metrics    map[string]metric `json:"metrics"`
}

// cpuTicks returns the steal and total ticks of /proc/stat's cpu line.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func stealSince(steal0, total0 int64) float64 {
	steal1, total1 := cpuTicks()
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// runner holds one benchmark invocation.
type runner struct {
	w       *workload
	seed    int64
	budget  time.Duration
	trace   bool
	root    string
	genCPU  string
	progCPU string

	origin time.Time

	e  *env
	o  *oracle
	rp report
}

// clients is the machine's core count (before the generator pinned
// itself): one closed-loop client and one connection per core.
func (r *runner) clients() int {
	if r.progCPU == "" {
		return runtime.NumCPU()
	}
	return 1 + len(strings.Split(r.progCPU, ","))
}

func (r *runner) part(share float64) time.Duration {
	return time.Duration(share * float64(r.budget))
}

func (r *runner) run() (*result, *report, error) {
	build := filepath.Join(r.root, ".bench_build")
	work := filepath.Join(build, "run", r.w.name)
	if err := os.RemoveAll(work); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	snap := filepath.Join(build, "model.snap")
	if err := ensureModel(snap); err != nil {
		return nil, nil, err
	}
	r.e = &env{
		bin: filepath.Join(build, "bin"), work: work, snap: snap, progCPU: r.progCPU,
		control: &http.Client{Timeout: 30 * time.Second},
	}
	for _, b := range []string{"dssddi-serve", "dssddi-router"} {
		if _, err := os.Stat(filepath.Join(r.e.bin, b)); err != nil {
			return nil, nil, fmt.Errorf("program not built (run perfbench/run.sh): %w", err)
		}
	}
	o, err := newOracle(snap, r.w.precision)
	if err != nil {
		return nil, nil, err
	}
	r.o = o
	for p := 0; p < o.data.NumPatients(); p++ {
		if _, err := o.forIndex(p); err != nil {
			return nil, nil, err
		}
	}
	r.rp = report{
		Workload: r.w.name, Seed: r.seed, Seconds: r.budget.Seconds(), Trace: r.trace,
		NProc: r.clients(), GenCPU: r.genCPU, ProgramCPUs: r.progCPU,
		SIMD: mat.SIMD(), Commit: obs.Build().Commit, Source: sourceDigest(r.root),
		Precision: r.w.precision, PacedRate: r.w.pacedRate, PacedValid: true,
	}
	steal0, total0 := cpuTicks()
	var res *result
	if r.trace {
		res, err = r.runTraced()
	} else {
		res, err = r.runTimed()
	}
	if err != nil {
		return nil, nil, err
	}
	r.rp.Metrics = res.Metrics
	r.rp.StealShare = stealSince(steal0, total0)
	if res.Attempted > 0 {
		r.rp.ErrorShare = float64(res.Failed) / float64(res.Attempted)
	}
	var names []string
	total := make(map[string]*phaseResult)
	for _, ph := range r.rp.Phases {
		t, ok := total[ph.Name]
		if !ok {
			names = append(names, ph.Name)
			t = &phaseResult{Name: ph.Name, Loop: ph.Loop}
			total[ph.Name] = t
		}
		t.Seconds += ph.Seconds
		t.Sent += ph.Sent
		t.Succeeded += ph.Succeeded
		t.Failed += ph.Failed
		if ph.KeptUp != nil && !*ph.KeptUp {
			r.rp.PacedValid = false
			fmt.Fprintf(os.Stderr, "perfbench: INVALID: generator fell behind in a %s phase (lateness p50 %.0fus, p99 %.0fus)\n",
				ph.Name, ph.LatenessP50us, ph.LatenessP99us)
		}
	}
	for _, n := range names {
		t := total[n]
		fmt.Fprintf(os.Stderr, "perfbench: %-8s %-6s %6.2fs sent %6d ok %6d failed %d\n",
			t.Name, t.Loop, t.Seconds, t.Sent, t.Succeeded, t.Failed)
	}
	for _, ex := range r.rp.Examples {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", ex)
	}
	return res, &r.rp, nil
}

// session drives one booted deployment: the requests, their record and
// the checks.
type session struct {
	r   *runner
	d   *deployment
	rec *recorder
	c   *client

	attempted, failed int
}

func (r *runner) newSession(d *deployment, traced bool, spans *spanLog) *session {
	rec := newRecorder(r.origin)
	c := &client{
		http:    &http.Client{Transport: newLoadTransport(r.clients()), Timeout: 30 * time.Second},
		base:    d.entry,
		nocache: !r.w.fleet,
		rec:     rec,
		traced:  traced,
		spans:   spans,
	}
	return &session{r: r, d: d, rec: rec, c: c}
}

func (s *session) close() {
	s.c.http.CloseIdleConnections()
}

// hotPool picks the fleet mix's cached index patients from the seed.
func (r *runner) hotPool() []int {
	return rand.New(rand.NewSource(r.seed)).Perm(r.o.data.NumPatients())[:hotPoolSize]
}

// streams returns one request stream per client; salt separates the
// warm-up's requests from the measured ones.
func (r *runner) streams(salt int64) []drawer {
	n := r.clients()
	ids := populationIDs()
	out := make([]drawer, n)
	for c := 0; c < n; c++ {
		var own []string
		for j, id := range ids {
			if j%n == c {
				own = append(own, id)
			}
		}
		start := int(r.seed*7+salt) + c*r.o.data.NumPatients()/n
		out[c] = newStream(r.w, r.seed*1000+salt+int64(c), start, r.o.data.NumPatients(), r.o.data.NumDrugs(), own, r.hotPool())
	}
	return out
}

func (r *runner) pacedStream(salt int64) drawer {
	return newStream(r.w, r.seed*1000+salt+99, int(r.seed+salt), r.o.data.NumPatients(), r.o.data.NumDrugs(), populationIDs(), r.hotPool())
}

func (s *session) add(ph phaseResult) phaseResult {
	s.attempted += ph.Sent
	s.failed += ph.Failed
	s.r.rp.Phases = append(s.r.rp.Phases, ph)
	return ph
}

// preload registers the fleet mix's fixed population.
func (s *session) preload() {
	if !s.r.w.fleet {
		return
	}
	rng := rand.New(rand.NewSource(populationSeed))
	start := time.Now()
	var samples []sample
	for _, id := range populationIDs() {
		req := request{kind: putPatient, id: id, regimen: freshRegimen(rng, s.r.o.data.NumDrugs())}
		samples = append(samples, s.c.send(context.Background(), "preload", req, time.Now()))
	}
	s.add(tally("preload", "serial", time.Since(start), samples))
}

func (s *session) warm(d time.Duration) {
	s.add(closedLoop(s.c, "warmup", s.r.streams(500), d))
}

// probeStream draws the write probe of single-backend workloads: PUTs
// to the volatile registry at a low fixed rate, between the suggest
// phases.
func (r *runner) probeStream() drawer {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%02d", i)
	}
	return &probeStream{rng: rand.New(rand.NewSource(r.seed*1000 + 7)), ids: ids, drugs: r.o.data.NumDrugs()}
}

// verify checks every answer, then (fleet) re-reads every registered
// id through the router and asks it to audit replica convergence.
func (s *session) verify() error {
	s.rec.mu.Lock()
	samples := append([]sample(nil), s.rec.samples...)
	s.rec.mu.Unlock()
	hist := historyOf(samples)
	v, err := s.r.o.check(s.rec, samples, hist)
	if err != nil {
		return err
	}
	s.r.rp.Examples = append(s.r.rp.Examples, v.examples...)
	wrong, lost := v.wrong, 0
	if s.r.w.fleet {
		now := int64(s.rec.since(time.Now()))
		for _, id := range populationIDs() {
			s.attempted++
			var pr struct {
				Regimen []int `json:"regimen"`
			}
			status, gerr := s.r.e.getJSON(s.d.entry+"/v1/patients/"+id, &pr)
			ok := false
			if gerr == nil && status == http.StatusOK {
				for _, reg := range hist.candidates(id, now, now) {
					if regimenKey(reg) == regimenKey(pr.Regimen) {
						ok = true
					}
				}
			}
			if !ok {
				lost++
				if len(s.r.rp.Examples) < 5 {
					s.r.rp.Examples = append(s.r.rp.Examples, fmt.Sprintf("registration %q lost or stale (status %d, %v)", id, status, gerr))
				}
			}
		}
		s.attempted++
		var vr struct {
			OK bool `json:"ok"`
		}
		status, verr := s.r.e.getJSON(s.d.entry+"/v1/admin/registry/verify", &vr)
		if verr != nil || status != http.StatusOK || !vr.OK {
			lost++
			s.r.rp.Examples = append(s.r.rp.Examples, fmt.Sprintf("registry verify: status %d ok %v err %v", status, vr.OK, verr))
		}
	}
	s.failed += wrong + lost
	s.r.rp.Wrong += wrong
	s.r.rp.Lost += lost
	return nil
}

// roundLength is the length of one measured round. A run alternates
// short rounds of peak, paced and (single backend) write-probe phases.
// On a shared virtual machine the host takes CPU time from the machine
// in bursts (steal time in /proc/stat), and a phase it hits measures
// the host rather than the program: at a fifth of the CPU stolen,
// throughput halves. So each metric pools the quarter of its phases
// with the least steal. Steal is host state that no change to the
// program can cause, so the choice favours no version of the program
// over another.
const roundLength = time.Second

// Set-up time is timed on extra boots of the workload's processes, one
// after each round while the measured deployment is idle. An idle core
// boots the first processes slower (about 1.5x on a virtual machine),
// so a few untimed boots come first.
const warmBoots = 4

// timeBoot boots and stops the workload's processes once, returning
// the set-up time and the share of CPU the host took meanwhile.
func (r *runner) timeBoot() (setup, steal float64, err error) {
	steal0, total0 := cpuTicks()
	d, t, err := r.e.boot(r.w, "setup-", false)
	if err != nil {
		return 0, 0, err
	}
	steal = stealSince(steal0, total0)
	d.stop()
	return t.Seconds(), steal, nil
}

// calmest returns the indices of the entries whose steal is at most the
// first quartile: a quarter of them, or all where nothing was taken.
func calmest(steals []float64) []int {
	sorted := append([]float64(nil), steals...)
	sort.Float64s(sorted)
	limit := quantile(sorted, 0.25)
	var out []int
	for i, st := range steals {
		if st <= limit {
			out = append(out, i)
		}
	}
	return out
}

// leastSteal returns the calmest quarter of phases.
func leastSteal(phases []phaseResult) []phaseResult {
	steals := make([]float64, len(phases))
	for i, ph := range phases {
		steals[i] = ph.StealShare
	}
	var out []phaseResult
	for _, i := range calmest(steals) {
		out = append(out, phases[i])
	}
	return out
}

// pooled returns the successful latencies of the given kinds across
// phases, sorted.
func pooled(phases []phaseResult, kinds ...kind) []float64 {
	var out []float64
	for _, ph := range phases {
		out = append(out, latencies(ph.samples, kinds...)...)
	}
	sort.Float64s(out)
	return out
}

// runTimed is the end-to-end run: boot, warm up, then the measured
// rounds with a set-up boot after each.
func (r *runner) runTimed() (*result, error) {
	d, _, err := r.e.boot(r.w, "", false)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	for i := 0; i < warmBoots; i++ {
		if _, _, err := r.timeBoot(); err != nil {
			return nil, err
		}
	}
	s := r.newSession(d, false, nil)
	defer s.close()
	s.preload()
	s.warm(max(time.Second, r.part(0.05)))

	rounds := max(1, int(r.budget/roundLength))
	share := func(f float64) time.Duration { return r.part(f) / time.Duration(rounds) }
	pacedShare := 0.45
	if r.w.fleet {
		pacedShare = 0.6
	}
	streams, pacedReqs, probe := r.streams(0), r.pacedStream(0), r.probeStream()
	var setups, setupSteals []float64
	var peaks, paced, writes []phaseResult
	for i := 0; i < rounds; i++ {
		peaks = append(peaks, s.add(closedLoop(s.c, "peak", streams, share(0.4))))
		paced = append(paced, s.add(openLoop(s.c, "paced", pacedReqs, r.w.pacedRate, share(pacedShare))))
		if !r.w.fleet {
			writes = append(writes, s.add(openLoop(s.c, "probe", probe, r.w.probeRate, share(0.15))))
		}
		t, steal, err := r.timeBoot()
		if err != nil {
			return nil, err
		}
		setups, setupSteals = append(setups, t), append(setupSteals, steal)
	}
	if r.w.fleet {
		writes = paced
	}
	r.rp.SetupRuns = setups
	var calmSetups []float64
	for _, i := range calmest(setupSteals) {
		calmSetups = append(calmSetups, setups[i])
	}
	var succeeded int
	var seconds float64
	for _, ph := range leastSteal(peaks) {
		succeeded += ph.Succeeded
		seconds += ph.Seconds
	}
	sug := pooled(leastSteal(paced), suggestIndex, suggestID)
	wr := pooled(leastSteal(writes), putPatient)
	all := pooled(paced, suggestIndex, suggestID)
	r.rp.SuggestP99 = quantile(all, 0.99)
	r.rp.P99Samples = len(all) - int(0.99*float64(len(all)))
	sc, err := r.e.scrape(d)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := s.verify(); err != nil {
		return nil, err
	}
	metrics, err := withUnits(endToEnd, map[string]float64{
		"setup_s":              median(calmSetups),
		"throughput_rps":       float64(succeeded) / seconds,
		"suggest_p50_ms":       quantile(sug, 0.5),
		"suggest_p90_ms":       quantile(sug, 0.9),
		"write_p50_ms":         quantile(wr, 0.5),
		"write_p90_ms":         quantile(wr, 0.9),
		"ok_share":             1 - float64(s.failed)/float64(s.attempted),
		"model_resident_bytes": float64(sc.modelBytes),
		"peak_rss_mb":          float64(rss) / (1 << 20),
	})
	if err != nil {
		return nil, err
	}
	res := &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
	return res, nil
}
