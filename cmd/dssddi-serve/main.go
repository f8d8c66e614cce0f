// Command dssddi-serve exposes a trained DSSDDI model snapshot as a
// concurrent HTTP JSON API: medication suggestions with interaction
// alerts, raw scores, explanations, DDI screening, a live patient
// registry and zero-downtime model hot-reload (see internal/serve for
// the endpoint reference).
//
// Usage:
//
//	dssddi train -o model.snap               # once
//	dssddi-serve -m model.snap -addr :8080   # many
//
// Use -addr 127.0.0.1:0 to bind an ephemeral port; the bound address
// is printed to stderr and, with -addr-file, written to a file so
// scripts (and the CI smoke test) can discover it.
//
// The serving model can be replaced without restarting: POST
// /v1/admin/reload, send SIGHUP, or run with -watch to reload
// automatically whenever the snapshot file changes. Requests in
// flight during a reload finish on the model they started with.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dssddi"
	"dssddi/internal/mat"
	"dssddi/internal/obs"
	"dssddi/internal/serve"
)

func main() {
	var (
		model       = flag.String("m", "", "model snapshot to serve (required; produce with 'dssddi train -o')")
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers     = flag.Int("workers", 0, "kernel worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		maxBatch    = flag.Int("batch-max", 64, "max patients coalesced into one score-matrix call")
		batchWindow = flag.Duration("batch-window", 0, "how long a lone request waits for company (0 = never wait, only batch what is already queued: a batch costs the sum of its rows, so waiting just idles the core)")
		cacheSize   = flag.Int("cache", 4096, "result cache entries across endpoints (negative disables)")
		defaultK    = flag.Int("default-k", 4, "suggestion list length when a request omits k")
		precision   = flag.String("precision", "f64", "serving precision: f64 (oracle), f32 (SIMD quantized) or int8-experimental; hot reloads keep it unless the reload request names another")
		watch       = flag.Bool("watch", false, "watch the -m snapshot file and hot-reload it when it changes")
		watchEvery  = flag.Duration("watch-interval", time.Second, "how often -watch polls the snapshot file")

		walPath      = flag.String("registry-wal", "", "write-ahead log for the patient registry; registrations survive crashes and are replayed on boot (empty = volatile registry)")
		walSync      = flag.String("wal-sync", "interval", "WAL durability: always (fsync per write), interval (background fsync), off (OS decides)")
		walSyncEvery = flag.Duration("wal-sync-interval", 100*time.Millisecond, "background fsync cadence for -wal-sync interval")
		ckptEvery    = flag.Int("checkpoint-every", 1024, "compact the WAL into a checkpoint after this many logged mutations (<= 0 disables)")
		maxInflight  = flag.Int("max-inflight", 256, "admission control: concurrent requests executing per endpoint (negative = unlimited)")
		maxQueue     = flag.Int("max-queue", 512, "admission control: requests waiting per endpoint beyond -max-inflight; anything more is shed with a fast 503 (negative = no queue)")

		traceSample = flag.Float64("trace-sample", 0, "fraction of requests traced into /debug/tracez (0 = off, 1 = all)")
		traceRing   = flag.Int("trace-ring", obs.DefaultTraceRing, "tracez ring capacity for each of recent/slowest/errored traces")
		slowMs      = flag.Int("slow-ms", 0, "log a warning for every request slower than this many milliseconds (0 = off)")
		pprof       = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logFormat   = flag.String("log-format", "off", "structured log output: json, text or off")
		logLevel    = flag.String("log-level", "info", "structured log level: debug (per-request access logs), info, warn or error")
	)
	flag.Parse()
	log.SetFlags(0)
	if *model == "" {
		log.Fatal("dssddi-serve: -m model.snap is required (train one with 'dssddi train -o model.snap')")
	}
	logger, err := obs.NewLogger(*logFormat, *logLevel, os.Stderr)
	if err != nil {
		log.Fatalf("dssddi-serve: %v", err)
	}
	mat.SetWorkers(*workers)

	f, err := os.Open(*model)
	if err != nil {
		log.Fatalf("dssddi-serve: %v", err)
	}
	sys, err := dssddi.Load(f)
	f.Close()
	if err != nil {
		log.Fatalf("dssddi-serve: %v", err)
	}
	info, err := sys.SnapshotInfo()
	if err != nil {
		log.Fatalf("dssddi-serve: %v", err)
	}

	srv, err := serve.New(sys, serve.Config{
		MaxBatch:        *maxBatch,
		BatchWindow:     *batchWindow,
		CacheSize:       *cacheSize,
		DefaultK:        *defaultK,
		Precision:       *precision,
		SnapshotPath:    *model,
		WALPath:         *walPath,
		WALSync:         *walSync,
		WALSyncInterval: *walSyncEvery,
		CheckpointEvery: *ckptEvery,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		TraceSample:     *traceSample,
		TraceRing:       *traceRing,
		SlowMs:          *slowMs,
		Logger:          logger,
	})
	if err != nil {
		log.Fatalf("dssddi-serve: %v", err)
	}
	defer srv.Close()
	if *walPath != "" {
		fmt.Fprintf(os.Stderr, "dssddi-serve: durable registry: WAL %s (sync %s), checkpoint every %d writes\n",
			*walPath, *walSync, *ckptEvery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dssddi-serve: %v", err)
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "dssddi-serve: build %s (%s) %s model (%d patients, %d drugs, dataset %s) precision %s simd %s listening on %s\n",
		obs.Build().Short(), obs.Build().GoVersion, info.Backbone, info.Patients, info.Drugs, info.DatasetSHA256[:12], sys.Precision(), mat.SIMD(), bound)
	if logger != nil {
		logger.Info("boot", "service", "dssddi-serve", "build", obs.Build(), "addr", bound)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			log.Fatalf("dssddi-serve: writing -addr-file: %v", err)
		}
	}

	reload := func(reason string) {
		epoch, err := srv.ReloadFromPath(*model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dssddi-serve: %s reload failed (still serving the previous model): %v\n", reason, err)
			return
		}
		fmt.Fprintf(os.Stderr, "dssddi-serve: %s reload OK, now serving epoch %d\n", reason, epoch)
	}

	// SIGHUP: operator-triggered hot reload of the -m snapshot.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			reload("SIGHUP")
		}
	}()

	// -watch: poll the snapshot's mtime/size and reload on change. A
	// half-written file is harmless — the snapshot checksum makes the
	// load fail and the previous epoch keeps serving until the next
	// successful poll.
	if *watch {
		go func() {
			var lastMod time.Time
			var lastSize int64
			if st, err := os.Stat(*model); err == nil {
				lastMod, lastSize = st.ModTime(), st.Size()
			}
			for range time.Tick(*watchEvery) {
				st, err := os.Stat(*model)
				if err != nil {
					continue
				}
				if st.ModTime().Equal(lastMod) && st.Size() == lastSize {
					continue
				}
				lastMod, lastSize = st.ModTime(), st.Size()
				reload("watch")
			}
		}()
	}

	handler := srv.Handler()
	if *pprof {
		handler = obs.WithPprof(handler)
		fmt.Fprintln(os.Stderr, "dssddi-serve: pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "dssddi-serve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatalf("dssddi-serve: %v", err)
	}
	<-done
	// Graceful close: httpSrv.Shutdown has already drained in-flight
	// requests (which empties the batcher — every parked request holds
	// an epoch ref); Close then writes a final registry checkpoint and
	// fsync-closes the WAL, so the next boot replays nothing.
	srv.Close()
	if *walPath != "" {
		fmt.Fprintln(os.Stderr, "dssddi-serve: final checkpoint written, WAL closed")
	}
}
