package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dssddi/internal/serve"
)

// kind is the operation class of one generated request.
type kind uint8

const (
	suggestIndex kind = iota // POST /v1/suggest by dataset patient index
	suggestID                // POST /v1/suggest by registered patient id
	putPatient               // PUT /v1/patients/{id} with a fresh regimen
)

// request is one generated operation. Its fields are fixed by the
// stream that drew it, so the same seed replays the same requests.
type request struct {
	kind    kind
	patient int
	id      string
	regimen []int
}

// suggestK is the list length every suggest asks for.
const suggestK = 4

// workload is one traffic mix against one deployment shape.
type workload struct {
	name      string
	why       string
	precision string // serving precision of every backend
	fleet     bool   // router over replicated WAL-backed backends
	// pacedRate is the fixed offered rate (req/s) of the open-loop phases:
	// about half the closed-loop peak on a 2-core virtual machine for the
	// cold workloads; a fifth for the fleet mix, whose three processes
	// share one core and whose peak halves when the host takes CPU, so a
	// slow spell does not tip it into overload.
	pacedRate float64
	// probeRate is the offered rate (PUT/s) of the write probe that gives
	// single-backend workloads their write latency; the fleet mix
	// measures writes inside its paced phase instead.
	probeRate float64
}

var workloads = []workload{
	{
		name:      "cold-f64",
		why:       "no-cache index suggests at f64, paced at 200 req/s: md engine, batcher, alerts and encode do the work",
		precision: "f64", pacedRate: 200, probeRate: 300,
	},
	{
		name:      "cold-f32",
		why:       "the cold-f64 traffic on a -precision f32 backend, paced at 300 req/s: the f32 SIMD kernel tier does the work",
		precision: "f32", pacedRate: 300, probeRate: 300,
	},
	{
		name:      "fleet-mix",
		why:       "router, 2 WAL backends, replicas 2, paced at 500 req/s: 1/4 PUTs, 1/4 suggests by id, 1/2 cached index suggests",
		precision: "f64", fleet: true, pacedRate: 500,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Fleet-mix population: registered ids are preloaded before any timed
// phase with regimens drawn from a fixed seed, so every run starts from
// the same registry; PUTs replace regimens and never add ids.
const (
	populationSize = 96
	populationSeed = 1
	hotPoolSize    = 8
)

func populationIDs() []string {
	ids := make([]string, populationSize)
	for i := range ids {
		ids[i] = fmt.Sprintf("pb-%03d", i)
	}
	return ids
}

// freshRegimen draws 2 to 6 distinct drugs in ascending order.
func freshRegimen(rng *rand.Rand, drugs int) []int {
	n := 2 + rng.Intn(5)
	reg := rng.Perm(drugs)[:n]
	sort.Ints(reg)
	return reg
}

// stream draws one client's requests. Cold workloads walk the cohort
// round-robin; the fleet mix picks an operation class per request.
type stream struct {
	w        *workload
	rng      *rand.Rand
	next     int
	patients int
	drugs    int
	ids      []string // registry ids this stream reads and writes
	hot      []int    // index-suggest hot pool
}

func newStream(w *workload, seed int64, start, patients, drugs int, ids []string, hot []int) *stream {
	return &stream{
		w: w, rng: rand.New(rand.NewSource(seed)), next: start % patients,
		patients: patients, drugs: drugs, ids: ids, hot: hot,
	}
}

func (s *stream) draw() request {
	if !s.w.fleet {
		p := s.next
		s.next = (s.next + 1) % s.patients
		return request{kind: suggestIndex, patient: p}
	}
	switch r := s.rng.Intn(4); r {
	case 0:
		return request{kind: putPatient, id: s.ids[s.rng.Intn(len(s.ids))], regimen: freshRegimen(s.rng, s.drugs)}
	case 1:
		return request{kind: suggestID, id: s.ids[s.rng.Intn(len(s.ids))]}
	default:
		return request{kind: suggestIndex, patient: s.hot[s.rng.Intn(len(s.hot))]}
	}
}

// probeStream draws PUTs only, for the single-backend write probe.
type probeStream struct {
	rng   *rand.Rand
	ids   []string
	drugs int
}

func (p *probeStream) draw() request {
	return request{kind: putPatient, id: p.ids[p.rng.Intn(len(p.ids))], regimen: freshRegimen(p.rng, p.drugs)}
}

type drawer interface{ draw() request }

// sample is one finished request. Times are offsets from the
// recorder's origin; due is the scheduled send time (equal to sent in
// closed loops).
type sample struct {
	req    request
	phase  string
	status int // 0: transport error
	hash   uint64
	bad    bool // failed an inline check (PUT echo)
	due    time.Duration
	sent   time.Duration
	done   time.Duration
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 && !s.bad }

// recorder collects samples and one copy of every distinct suggest
// body, so answers are checked after the timed phases instead of
// costing the generator CPU while it measures.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	// samples is the full history, appended in completion order.
	samples []sample
	bodies  map[uint64][]byte
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, bodies: make(map[uint64][]byte)}
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.origin) }

func (r *recorder) add(s sample, body []byte) {
	r.mu.Lock()
	if body != nil {
		if _, ok := r.bodies[s.hash]; !ok {
			r.bodies[s.hash] = body
		}
	}
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// client sends generated requests to one entry point.
type client struct {
	http    *http.Client
	base    string
	nocache bool
	rec     *recorder
	// traced tags every request with an X-Request-Id and records a
	// client span for it, so spans line up with the program's
	// /debug/tracez entries.
	traced bool
	spans  *spanLog
	seq    int64
	seqMu  sync.Mutex
}

// newLoadTransport caps the generator at conns connections, so queueing
// beyond them happens in the generator and is charged to latency.
func newLoadTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

func encodeRequest(r *request) (method, path string, body []byte) {
	b := make([]byte, 0, 96)
	switch r.kind {
	case putPatient:
		b = append(b, `{"regimen":[`...)
		for i, d := range r.regimen {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, "]}"...)
		return http.MethodPut, "/v1/patients/" + r.id, b
	case suggestID:
		b = append(b, `{"patient_id":"`...)
		b = append(b, r.id...)
		b = append(b, `","k":`...)
	default:
		b = append(b, `{"patient":`...)
		b = strconv.AppendInt(b, int64(r.patient), 10)
		b = append(b, `,"k":`...)
	}
	b = strconv.AppendInt(b, suggestK, 10)
	b = append(b, '}')
	return http.MethodPost, "/v1/suggest", b
}

// send issues one request and records it. due is when the schedule
// wanted it sent.
func (c *client) send(ctx context.Context, phase string, r request, due time.Time) sample {
	method, path, body := encodeRequest(&r)
	s := sample{req: r, phase: phase, due: c.rec.since(due)}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built from validated parts; only a bug reaches here
	}
	hr.Header.Set("Content-Type", "application/json")
	if c.nocache && r.kind != putPatient {
		hr.Header.Set("Cache-Control", "no-cache")
	}
	var rid string
	if c.traced {
		c.seqMu.Lock()
		c.seq++
		rid = fmt.Sprintf("pb-%s-%d", phase, c.seq)
		c.seqMu.Unlock()
		hr.Header.Set("X-Request-Id", rid)
	}
	sent := time.Now()
	s.sent = c.rec.since(sent)
	resp, err := c.http.Do(hr)
	var rbody []byte
	if err == nil {
		rbody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			s.status = resp.StatusCode
		}
	}
	done := time.Now()
	s.done = c.rec.since(done)
	if c.traced {
		c.spans.add(span{Trace: rid, Name: "client." + phase, Start: s.sent, End: s.done})
	}
	keep := []byte(nil)
	if s.status >= 200 && s.status < 300 {
		s.hash = hashBody(rbody)
		if r.kind == putPatient {
			s.bad = !putEchoOK(rbody, &r)
		} else {
			keep = rbody
		}
	}
	c.rec.add(s, keep)
	return s
}

// putEchoOK checks a PUT acknowledgement names the patient and regimen
// that were sent.
func putEchoOK(body []byte, r *request) bool {
	var pr serve.PatientResponse
	if json.Unmarshal(body, &pr) != nil || pr.ID != r.id || len(pr.Regimen) != len(r.regimen) {
		return false
	}
	for i := range pr.Regimen {
		if pr.Regimen[i] != r.regimen[i] {
			return false
		}
	}
	return true
}

// phaseResult summarises one phase.
type phaseResult struct {
	Name      string  `json:"name"`
	Loop      string  `json:"loop"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	// OfferedRate is the schedule's rate for open loops.
	OfferedRate float64 `json:"offered_rate,omitempty"`
	// Lateness is how far behind schedule the generator issued sends.
	LatenessP50us float64 `json:"lateness_p50_us,omitempty"`
	LatenessP99us float64 `json:"lateness_p99_us,omitempty"`
	LatenessMaxus float64 `json:"lateness_max_us,omitempty"`
	KeptUp        *bool   `json:"kept_up,omitempty"`
	// StealShare is the share of CPU time the host took from this
	// machine during the phase.
	StealShare float64 `json:"steal_share"`
	// P50ms and P90ms are the phase's latencies, timed from the schedule.
	P50ms float64 `json:"p50_ms,omitempty"`
	P90ms float64 `json:"p90_ms,omitempty"`

	samples []sample
}

func tally(name, loop string, elapsed time.Duration, samples []sample) phaseResult {
	pr := phaseResult{Name: name, Loop: loop, Seconds: elapsed.Seconds(), Sent: len(samples), samples: samples}
	for i := range samples {
		if samples[i].status >= 200 && samples[i].status < 300 && !samples[i].bad {
			pr.Succeeded++
		} else {
			pr.Failed++
		}
	}
	return pr
}

// closedLoop runs one client per stream, each sending its next request
// as soon as the previous one answered, until d has passed.
func closedLoop(c *client, name string, streams []drawer, d time.Duration) phaseResult {
	runtime.GC()
	steal0, total0 := cpuTicks()
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	start := time.Now()
	end := start.Add(d)
	out := make([][]sample, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st drawer) {
			defer wg.Done()
			for time.Now().Before(end) {
				now := time.Now()
				out[i] = append(out[i], c.send(ctx, name, st.draw(), now))
			}
		}(i, st)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	pr := tally(name, "closed", elapsed, all)
	pr.StealShare = stealSince(steal0, total0)
	return pr
}

// Generator health: an open-loop phase is valid only if the generator
// issued most sends on schedule and stalled rarely. On a shared host,
// millisecond stalls of the generator's core are common; longer or
// frequent ones mean the latencies measure the generator.
const (
	maxLatenessP50 = 200 * time.Microsecond
	maxLatenessP99 = 5 * time.Millisecond
)

// openLoop sends st's requests at a fixed rate for d, each timed from
// its scheduled send time, whether or not earlier ones have answered.
func openLoop(c *client, name string, st drawer, rate float64, d time.Duration) phaseResult {
	runtime.GC()
	steal0, total0 := cpuTicks()
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	lateness := make([]float64, 0, n)
	out := make([]sample, n)
	var wg sync.WaitGroup
	timer := newPreciseTimer()
	defer timer.close()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		timer.sleepUntil(due)
		lateness = append(lateness, float64(time.Since(due))/1e3)
		r := st.draw()
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			out[i] = c.send(ctx, name, r, due)
		}(i, r, due)
	}
	wg.Wait()
	pr := tally(name, "open", time.Since(start), out)
	pr.StealShare = stealSince(steal0, total0)
	pr.OfferedRate = rate
	sort.Float64s(lateness)
	pr.LatenessP50us = quantile(lateness, 0.50)
	pr.LatenessP99us = quantile(lateness, 0.99)
	pr.LatenessMaxus = quantile(lateness, 1)
	lat := latencies(out, suggestIndex, suggestID, putPatient)
	pr.P50ms, pr.P90ms = quantile(lat, 0.5), quantile(lat, 0.9)
	kept := pr.LatenessP50us <= float64(maxLatenessP50)/1e3 && pr.LatenessP99us <= float64(maxLatenessP99)/1e3
	pr.KeptUp = &kept
	return pr
}
