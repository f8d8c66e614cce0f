package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dssddi"
	"dssddi/internal/alerts"
	"dssddi/internal/router"
	"dssddi/internal/serve"
	"dssddi/internal/wal"
)

// serveConfig mirrors the dssddi-serve flag defaults, so the in-process
// rungs run the configuration the booted programs run.
func serveConfig(w *workload, walPath string) serve.Config {
	cfg := serve.Config{
		MaxBatch: 64, BatchWindow: time.Millisecond, CacheSize: 4096, DefaultK: 4,
		Precision: w.precision, MaxInflight: 256, MaxQueue: 512,
	}
	if walPath != "" {
		cfg.WALPath, cfg.WALSync, cfg.WALSyncInterval, cfg.CheckpointEvery = walPath, "interval", 100*time.Millisecond, 1024
	}
	return cfg
}

// listening is an in-process HTTP server on a loopback port.
type listening struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listening, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listening{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		l.hs.Serve(ln)
		close(l.done)
	}()
	return l, nil
}

func (l *listening) close() {
	l.hs.Close()
	<-l.done
}

// ladder is the in-process deployment the traced run climbs: the
// workload's backends and a router in front of them, all inside the
// generator process.
type ladder struct {
	r       *runner
	spans   *spanLog
	origin  time.Time
	sys     *dssddi.System
	checker *alerts.Checker

	servers  []*serve.Server
	handlers []http.Handler
	backends []*listening
	byAddr   map[string]http.Handler
	rt       *router.Router
	front    *listening
	client   *http.Client
	log      *wal.Log
}

func (l *ladder) span(trace, name string, t0, t1 time.Time) {
	l.spans.add(span{Trace: trace, Name: name, Parent: "ladder.request", Start: t1.Sub(l.origin) - t1.Sub(t0), End: t1.Sub(l.origin)})
}

// timed runs f and records it as a span.
func (l *ladder) timed(trace, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.span(trace, name, t0, time.Now())
	if err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	return nil
}

func (l *ladder) close() {
	if l.front != nil {
		l.front.close()
	}
	if l.rt != nil {
		l.rt.Close()
	}
	for _, b := range l.backends {
		b.close()
	}
	for _, s := range l.servers {
		s.Close()
	}
	if l.log != nil {
		l.log.Close()
	}
	l.client.CloseIdleConnections()
}

func (r *runner) walPath(name string) string {
	p := filepath.Join(r.e.work, name)
	os.Remove(p)
	os.Remove(p + ".ckpt")
	return p
}

// bootLadder times snapshot loads, server and router construction, and
// leaves the in-process deployment running.
func (r *runner) bootLadder(spans *spanLog) (*ladder, error) {
	l := &ladder{
		r: r, spans: spans, origin: r.origin, byAddr: make(map[string]http.Handler),
		// One kept-alive connection per host, so no rung pays a dial.
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second},
	}
	const repeats = 5
	for i := 0; i < repeats; i++ {
		if err := l.timed("boot", "snapshot.load", func() error {
			var err error
			l.sys, err = loadSystem(r.e.snap)
			return err
		}); err != nil {
			return l, err
		}
		walFile := ""
		if r.w.fleet {
			walFile = r.walPath("ladder-boot.wal")
		}
		var srv *serve.Server
		if err := l.timed("boot", "serve.boot", func() error {
			var err error
			srv, err = serve.New(l.sys, serveConfig(r.w, walFile))
			return err
		}); err != nil {
			return l, err
		}
		srv.Close()
	}
	if err := l.sys.SetPrecision(r.w.precision); err != nil {
		return l, err
	}
	emb, err := l.sys.DrugRelationEmbeddings()
	if err != nil {
		return l, err
	}
	data := l.sys.Data()
	names := make([]string, data.NumDrugs())
	for i := range names {
		names[i] = data.DrugName(i)
	}
	l.checker = alerts.NewChecker(data.Dataset().DDI, emb, names)

	n, replicas := 1, 1
	if r.w.fleet {
		n, replicas = fleetBackends, fleetReplicas
	}
	var addrs []string
	for i := 0; i < n; i++ {
		sys, err := loadSystem(r.e.snap)
		if err != nil {
			return l, err
		}
		walFile := ""
		if r.w.fleet {
			walFile = r.walPath(fmt.Sprintf("ladder-%d.wal", i))
		}
		srv, err := serve.New(sys, serveConfig(r.w, walFile))
		if err != nil {
			return l, err
		}
		h := srv.Handler()
		l.servers, l.handlers = append(l.servers, srv), append(l.handlers, h)
		b, err := listen(h)
		if err != nil {
			return l, err
		}
		l.backends = append(l.backends, b)
		l.byAddr[b.addr] = h
		addrs = append(addrs, b.addr)
	}
	for i := 0; i < repeats; i++ {
		var rt *router.Router
		var front *listening
		if err := l.timed("boot", "router.ready", func() error {
			var err error
			rt, err = router.New(router.Config{Backends: addrs, ReplicationFactor: replicas, WriteQuorum: replicas})
			if err != nil {
				return err
			}
			if front, err = listen(rt.Handler()); err != nil {
				return err
			}
			resp, err := l.client.Get("http://" + front.addr + "/healthz")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("router healthz %d", resp.StatusCode)
			}
			return nil
		}); err != nil {
			return l, err
		}
		if i < repeats-1 {
			front.close()
			rt.Close()
		} else {
			l.rt, l.front = rt, front
		}
	}
	l.log, err = wal.Open(r.walPath("ladder-append.wal"), wal.Options{Sync: wal.SyncInterval, Interval: 100 * time.Millisecond},
		func(uint64, []byte) error { return nil })
	if err != nil {
		return l, err
	}
	rng := rand.New(rand.NewSource(populationSeed))
	for _, id := range populationIDs() {
		reg := freshRegimen(rng, data.NumDrugs())
		if _, _, err := l.roundTrip("http://"+l.front.addr, &request{kind: putPatient, id: id, regimen: reg}, false); err != nil {
			return l, err
		}
	}
	for p := 0; p < data.NumPatients(); p++ {
		if _, _, err := l.roundTrip("http://"+l.front.addr, &request{kind: suggestIndex, patient: p}, false); err != nil {
			return l, err
		}
	}
	return l, nil
}

// roundTrip sends one request over loopback and returns the backend
// the router named, if any.
func (l *ladder) roundTrip(base string, r *request, nocache bool) (backend string, body []byte, err error) {
	method, path, reqBody := encodeRequest(r)
	hr, err := http.NewRequest(method, base+path, bytes.NewReader(reqBody))
	if err != nil {
		return "", nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if nocache {
		hr.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := l.client.Do(hr)
	if err != nil {
		return "", nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return "", nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, body)
	}
	return resp.Header.Get("X-Backend"), body, nil
}

// serveHTTP runs one request through a server's handler in process.
func serveHTTP(h http.Handler, r *request, nocache bool) error {
	method, path, body := encodeRequest(r)
	hr := httptest.NewRequest(method, path, bytes.NewReader(body))
	if nocache {
		hr.Header.Set("Cache-Control", "no-cache")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	if rec.Code < 200 || rec.Code >= 300 {
		return fmt.Errorf("%s %s: status %d", method, path, rec.Code)
	}
	return nil
}

// walPayload is a registry-sized WAL record: an id and a regimen in
// the shape the durable registry logs.
func walPayload(id string, regimen []int) []byte {
	b := []byte{1}
	b = strconv.AppendInt(b, int64(len(id)), 10)
	b = append(b, id...)
	for _, d := range regimen {
		b = append(b, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return append(b, 0, 0, 0, 0)
}

// climb replays the workload's requests down the rungs until d has
// passed. Each iteration times the index-suggest ladder on an index
// patient, the registry ladder on a population id, and the request
// itself as the workload sends it (the top rung).
func (l *ladder) climb(d time.Duration) error {
	st := l.r.pacedStream(0)
	data := l.sys.Data()
	row := make([]float64, data.NumDrugs())
	rng := rand.New(rand.NewSource(l.r.seed*1000 + 3))
	ids := populationIDs()
	front := "http://" + l.front.addr
	top := front
	if !l.r.w.fleet {
		top = "http://" + l.backends[0].addr
	}
	var version uint64
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		tr := "ladder-" + strconv.Itoa(i)
		req := st.draw()
		t0 := time.Now()
		p := i % data.NumPatients()
		if req.kind == suggestIndex {
			p = req.patient
		}
		var suggs []dssddi.Suggestion
		regimen := data.Medications(p)
		steps := []struct {
			name string
			f    func() error
		}{
			{"md.score_row", func() error { return l.sys.ScoresInto([][]float64{row}, []int{p}) }},
			{"md.rank", func() error {
				var err error
				suggs, err = l.sys.SuggestFromScores(row, suggestK)
				return err
			}},
			{"alerts.screen", func() error {
				ids := make([]int, len(suggs))
				for j, sg := range suggs {
					ids[j] = sg.DrugID
					l.checker.ScreenAgainst(regimen, []int{sg.DrugID})
				}
				l.checker.ScreenList(ids)
				return nil
			}},
			{"serve.encode", func() error {
				resp := serve.SuggestResponse{Patient: p, K: suggestK, Regimen: regimen}
				for _, sg := range suggs {
					resp.Suggestions = append(resp.Suggestions, serve.SuggestionOut{DrugID: sg.DrugID, DrugName: sg.DrugName, Score: sg.Score})
				}
				var buf bytes.Buffer
				return json.NewEncoder(&buf).Encode(resp)
			}},
			{"serve.suggest_handler", func() error {
				return serveHTTP(l.handlers[0], &request{kind: suggestIndex, patient: p}, true)
			}},
		}
		for _, s := range steps {
			if err := l.timed(tr, s.name, s.f); err != nil {
				return err
			}
		}
		// Loopback and proxy overheads are timed on cache hits, which
		// never reach the batcher, so its window does not blur them.
		var owner string
		hit := &request{kind: suggestIndex, patient: p}
		hitSteps := []struct {
			name string
			f    func() error
		}{
			{"router.read", func() error {
				var err error
				owner, _, err = l.roundTrip(front, hit, false)
				return err
			}},
			{"http.direct", func() error {
				_, _, err := l.roundTrip("http://"+owner, hit, false)
				return err
			}},
			{"serve.hit_handler", func() error { return serveHTTP(l.byAddr[owner], hit, false) }},
		}
		for _, s := range hitSteps {
			if err := l.timed(tr, s.name, s.f); err != nil {
				return err
			}
		}

		id := ids[i%len(ids)]
		if req.kind != suggestIndex {
			id = req.id
		}
		reg := freshRegimen(rng, data.NumDrugs())
		var emb *dssddi.PatientEmbedding
		version++
		regSteps := []struct {
			name string
			f    func() error
		}{
			{"md.embed", func() error {
				var err error
				emb, err = l.sys.EmbedPatient(dssddi.PatientProfile{Regimen: reg})
				return err
			}},
			{"md.topk_for", func() error {
				_, err := l.sys.SuggestForEmbedding(emb, suggestK)
				return err
			}},
			{"wal.append", func() error { return l.log.Append(version, walPayload(id, reg)) }},
			{"router.write", func() error {
				var err error
				owner, _, err = l.roundTrip(front, &request{kind: putPatient, id: id, regimen: reg}, false)
				return err
			}},
			{"http.put_direct", func() error {
				_, _, err := l.roundTrip("http://"+owner, &request{kind: putPatient, id: id, regimen: reg}, false)
				return err
			}},
			{"serve.put_handler", func() error {
				return serveHTTP(l.byAddr[owner], &request{kind: putPatient, id: id, regimen: reg}, false)
			}},
		}
		for _, s := range regSteps {
			if err := l.timed(tr, s.name, s.f); err != nil {
				return err
			}
		}

		// The top rung: the drawn request exactly as the workload sends it.
		if req.kind != putPatient {
			if err := l.timed(tr, "rung.top", func() error {
				_, _, err := l.roundTrip(top, &req, !l.r.w.fleet)
				return err
			}); err != nil {
				return err
			}
		}
		l.spans.add(span{Trace: tr, Name: "ladder.request", Start: t0.Sub(l.origin), End: time.Since(l.origin)})
	}
	return nil
}

// metrics turns the recorded spans into per-layer metrics. A layer's
// self time is the difference between its rung and the rungs below
// it, taken per iteration and then as a median.
func (l *ladder) metrics() map[string]float64 {
	m := l.spans.medianUs
	d := l.spans.pairedUs
	return map[string]float64{
		"md.score_row_us":          m("md.score_row"),
		"md.rank_us":               m("md.rank"),
		"md.embed_us":              m("md.embed"),
		"md.topk_for_us":           m("md.topk_for"),
		"alerts.screen_us":         m("alerts.screen"),
		"serve.encode_us":          m("serve.encode"),
		"serve.suggest_handler_us": m("serve.suggest_handler"),
		"serve.put_handler_us":     m("serve.put_handler"),
		"serve.self_us":            d("serve.suggest_handler", "md.score_row", "md.rank", "alerts.screen", "serve.encode"),
		"wal.append_us":            m("wal.append"),
		"http.loopback_us":         d("http.direct", "serve.hit_handler"),
		"router.read_overhead_us":  d("router.read", "http.direct"),
		"router.write_overhead_us": d("router.write", "http.put_direct"),
		"snapshot.load_ms":         m("snapshot.load") / 1e3,
		"serve.boot_ms":            m("serve.boot") / 1e3,
		"router.ready_ms":          m("router.ready") / 1e3,
	}
}

// runTraced is the per-layer run: the ladder first, with no program
// running, then the booted programs untraced (for the scraped counts
// and the loaded latency) and traced (for the tracing overhead).
func (r *runner) runTraced() (*result, error) {
	spans := &spanLog{}
	l, err := r.bootLadder(spans)
	if err == nil {
		err = l.climb(r.part(0.35))
	}
	l.close()
	if err != nil {
		return nil, err
	}
	metrics := l.metrics()
	topUs := spans.medianUs("rung.top")

	res := &result{Correct: true}
	var untraced, traced float64
	for _, withTrace := range []bool{false, true} {
		d, _, err := r.e.boot(r.w, "", withTrace)
		if err != nil {
			return nil, err
		}
		var sessionSpans *spanLog
		if withTrace {
			sessionSpans = spans
		}
		s := r.newSession(d, withTrace, sessionSpans)
		s.preload()
		s.warm(time.Second)
		if !withTrace {
			s.add(closedLoop(s.c, "peak", r.streams(0), r.part(0.15)))
		}
		paced := s.add(openLoop(s.c, "paced", r.pacedStream(0), r.w.pacedRate, r.part(0.2)))
		p50 := quantile(latencies(paced.samples, suggestIndex, suggestID), 0.5)
		if withTrace {
			traced = p50
		} else {
			untraced = p50
			sc, err := r.e.scrape(d)
			if err != nil {
				d.stop()
				return nil, err
			}
			metrics["serve.cache_hit_share"] = ratio(sc.cacheHits, sc.cacheLookups)
			metrics["serve.batch_size"] = ratio(sc.batchedRequests, sc.batches)
			metrics["serve.shed_share"] = ratio(sc.sheds, sc.requests)
			metrics["router.fanouts"] = float64(sc.fanouts)
			metrics["router.quorum_failures"] = float64(sc.quorumFailures)
			metrics["router.retries"] = float64(sc.retries)
		}
		verr := s.verify()
		s.close()
		d.stop()
		if verr != nil {
			return nil, verr
		}
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	metrics["serve.queue_wait_us"] = untraced*1e3 - topUs
	metrics["trace.overhead_ms"] = traced - untraced
	res.Correct = res.Failed == 0
	if res.Metrics, err = withUnits(perLayer, metrics); err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(r.e.work, fmt.Sprintf("spans-seed%d.json", r.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
