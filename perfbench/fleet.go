package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dssddi/internal/router"
	"dssddi/internal/serve"
)

// env is where the benchmark runs: the built programs, its scratch
// directory inside the checkout, and how the cores are split.
type env struct {
	bin     string // directory holding dssddi-serve and dssddi-router
	work    string // scratch directory for this run
	snap    string // model snapshot
	progCPU string // taskset list for program processes; "" = unpinned
	control *http.Client
}

// proc is one running program process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{}
}

// deployment is the set of processes one workload drives.
type deployment struct {
	backends []*proc
	router   *proc
	entry    string // base URL the load goes to
}

func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.backends...)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

func (e *env) start(name, binary string, args ...string) (*proc, error) {
	addrFile := filepath.Join(e.work, name+".addr")
	os.Remove(addrFile)
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	path := filepath.Join(e.bin, binary)
	if e.progCPU != "" {
		args = append([]string{"-c", e.progCPU, path}, args...)
		path = tasksetPath
	}
	logf, err := os.Create(filepath.Join(e.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the program if the generator dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls the address file and then /healthz until the process
// answers 200.
func (e *env) waitReady(p *proc, timeout time.Duration) error {
	addrFile := filepath.Join(e.work, p.name+".addr")
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot (see %s)", p.name, p.log.Name())
		default:
		}
		if p.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				p.addr = string(b)
			}
		}
		if p.addr != "" {
			if resp, err := e.control.Get("http://" + p.addr + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%s not serving after %s", p.name, timeout)
}

// stop asks the process to shut down gracefully and waits for it.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (d *deployment) stop() {
	if d == nil {
		return
	}
	if d.router != nil {
		d.router.stop()
	}
	for _, b := range d.backends {
		b.stop()
	}
}

// Fleet shape of the fleet-mix workload.
const (
	fleetBackends    = 2
	fleetReplicas    = 2
	fleetWriteQuorum = 2
)

// boot starts the workload's processes and returns once every one of
// them serves, with the time that took. prefix names their files apart
// from another deployment's. Registry logs from earlier boots are
// removed first, so no boot replays a WAL.
func (e *env) boot(w *workload, prefix string, traceSample bool) (*deployment, time.Duration, error) {
	n := 1
	if w.fleet {
		n = fleetBackends
	}
	var extra []string
	if traceSample {
		extra = []string{"-trace-sample", "1"}
	}
	d := &deployment{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		args := []string{"-m", e.snap, "-precision", w.precision}
		if w.fleet {
			wal := filepath.Join(e.work, fmt.Sprintf("%sbackend-%d.wal", prefix, i))
			os.Remove(wal)
			os.Remove(wal + ".ckpt")
			args = append(args, "-registry-wal", wal)
		}
		p, err := e.start(fmt.Sprintf("%sbackend-%d", prefix, i), "dssddi-serve", append(args, extra...)...)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.backends = append(d.backends, p)
	}
	for _, p := range d.backends {
		if err := e.waitReady(p, 60*time.Second); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	d.entry = "http://" + d.backends[0].addr
	if w.fleet {
		addrs := make([]string, len(d.backends))
		for i, b := range d.backends {
			addrs[i] = b.addr
		}
		args := []string{
			"-backends", strings.Join(addrs, ","),
			"-replicas", strconv.Itoa(fleetReplicas), "-write-quorum", strconv.Itoa(fleetWriteQuorum),
		}
		p, err := e.start(prefix+"router", "dssddi-router", append(args, extra...)...)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.router = p
		if err := e.waitReady(p, 60*time.Second); err != nil {
			d.stop()
			return nil, 0, err
		}
		d.entry = "http://" + p.addr
	}
	return d, time.Since(t0), nil
}

// vmHWM returns a process's peak resident set in bytes.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (e *env) getJSON(url string, v any) (int, error) {
	resp, err := e.control.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// scrape is what the benchmark reads from /metricsz after a run.
type scrape struct {
	modelBytes      int64
	cacheHits       int64
	cacheLookups    int64
	batches         int64
	batchedRequests int64
	sheds           int64
	requests        int64
	fanouts         int64
	quorumFailures  int64
	retries         int64
}

func (e *env) scrape(d *deployment) (scrape, error) {
	var sc scrape
	for _, b := range d.backends {
		var m serve.Metrics
		if _, err := e.getJSON("http://"+b.addr+"/metricsz", &m); err != nil {
			return sc, fmt.Errorf("scraping %s: %w", b.name, err)
		}
		sc.modelBytes += m.Memory.ModelBytes + m.Memory.RegistryEmbeddingBytes
		sc.cacheHits += m.SuggestCache.Hits
		sc.cacheLookups += m.SuggestCache.Hits + m.SuggestCache.Misses
		sc.batches += m.Batching.Batches
		sc.batchedRequests += m.Batching.Requests
		sc.sheds += m.Sheds
		for name, ep := range m.Endpoints {
			if name != "healthz" && name != "metricsz" && name != "registry" {
				sc.requests += ep.Requests
			}
		}
	}
	if d.router != nil {
		var m router.Metrics
		if _, err := e.getJSON("http://"+d.router.addr+"/metricsz", &m); err != nil {
			return sc, fmt.Errorf("scraping router: %w", err)
		}
		sc.fanouts, sc.quorumFailures, sc.retries = m.ReplicationFanouts, m.QuorumFailures, m.Retries
	}
	return sc, nil
}

// peakRSS sums VmHWM over the deployment's processes.
func (d *deployment) peakRSS() (int64, error) {
	var total int64
	for _, p := range d.procs() {
		b, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}
