// Command dssddi-router is the fleet front tier: it consistent-hashes
// patient keys (dataset indices and registered patient ids) onto a
// health-checked pool of dssddi-serve backends, so per-patient state —
// registry profiles, cached embeddings, result-cache entries — stays
// local to one backend and cache hit rates survive replication.
//
// Usage:
//
//	dssddi-serve -m model.snap -addr 127.0.0.1:9001 &
//	dssddi-serve -m model.snap -addr 127.0.0.1:9002 &
//	dssddi-serve -m model.snap -addr 127.0.0.1:9003 &
//	dssddi-router -backends 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 -addr :8080
//
// Clients talk to the router exactly as they would to a single
// dssddi-serve: the /v1 API is proxied transparently (responses gain
// an X-Backend header naming the serving replica). POST
// /v1/admin/reload on the router performs a coordinated rolling
// reload: canary first, each backend verified (epoch bump, model
// identity, smoke suggest) before the next, abort-and-report on any
// mismatch. GET /healthz and /metricsz aggregate fleet health,
// per-backend latency quantiles, retry/ejection counters and
// key-distribution stats.
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
	"strings"
	"syscall"
	"time"

	"dssddi/internal/obs"
	"dssddi/internal/router"
)

func main() {
	var (
		backends      = flag.String("backends", "", "comma-separated dssddi-serve addresses (host:port,host:port,...); required")
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
		addrFile      = flag.String("addr-file", "", "write the bound address to this file once listening")
		vnodes        = flag.Int("vnodes", 128, "virtual nodes per backend on the hash ring")
		replicas      = flag.Int("replicas", 1, "backends holding each registered patient's record: the ring owner plus replicas-1 successors (1 = no replication)")
		writeQuorum   = flag.Int("write-quorum", 1, "replica-group acks a registry mutation needs before the router acknowledges it (bounded by the members in rotation)")
		probeInterval = flag.Duration("probe-interval", time.Second, "active health-check cadence")
		failAfter     = flag.Int("fail-after", 3, "consecutive transport failures before a backend is ejected")
		cooldown      = flag.Duration("cooldown", 2*time.Second, "how long an ejected backend sits out before a half-open trial")
		retries       = flag.Int("retries", 2, "max retries after a transport failure, for reads and for full-replace PUT and DELETE (PATCH never retries)")
		retryBackoff  = flag.Duration("retry-backoff", 25*time.Millisecond, "initial retry backoff, doubling per attempt")
		timeout       = flag.Duration("timeout", 10*time.Second, "per-attempt backend request timeout")
		budget        = flag.Duration("budget", 0, "end-to-end request budget across attempts and backoffs; each attempt stamps the remainder onto the backend as X-Deadline-Ms (0 = 2x -timeout)")

		traceSample = flag.Float64("trace-sample", 0, "fraction of routed requests traced into /debug/tracez (0 = off, 1 = all)")
		traceRing   = flag.Int("trace-ring", obs.DefaultTraceRing, "tracez ring capacity for each of recent/slowest/errored traces")
		slowMs      = flag.Int("slow-ms", 0, "log a warning for every routed request slower than this many milliseconds (0 = off)")
		pprof       = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logFormat   = flag.String("log-format", "off", "structured log output: json, text or off")
		logLevel    = flag.String("log-level", "info", "structured log level: debug (per-request access logs), info, warn or error")
	)
	flag.Parse()
	log.SetFlags(0)
	if *backends == "" {
		log.Fatal("dssddi-router: -backends host:port[,host:port...] is required")
	}
	logger, err := obs.NewLogger(*logFormat, *logLevel, os.Stderr)
	if err != nil {
		log.Fatalf("dssddi-router: %v", err)
	}
	pool := strings.Split(*backends, ",")
	for i := range pool {
		pool[i] = strings.TrimSpace(pool[i])
	}

	rt, err := router.New(router.Config{
		Backends:          pool,
		VNodes:            *vnodes,
		ReplicationFactor: *replicas,
		WriteQuorum:       *writeQuorum,
		ProbeInterval:     *probeInterval,
		FailAfter:         *failAfter,
		Cooldown:          *cooldown,
		MaxRetries:        *retries,
		RetryBackoff:      *retryBackoff,
		Timeout:           *timeout,
		RequestBudget:     *budget,
		TraceSample:       *traceSample,
		TraceRing:         *traceRing,
		SlowMs:            *slowMs,
		Logger:            logger,
	})
	if err != nil {
		log.Fatalf("dssddi-router: %v", err)
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dssddi-router: %v", err)
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "dssddi-router: build %s (%s) %d backends (%s) listening on %s\n",
		obs.Build().Short(), obs.Build().GoVersion, len(pool), strings.Join(pool, ", "), bound)
	if logger != nil {
		logger.Info("boot", "service", "dssddi-router", "build", obs.Build(), "addr", bound)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			log.Fatalf("dssddi-router: writing -addr-file: %v", err)
		}
	}

	handler := rt.Handler()
	if *pprof {
		handler = obs.WithPprof(handler)
		fmt.Fprintln(os.Stderr, "dssddi-router: pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "dssddi-router: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatalf("dssddi-router: %v", err)
	}
	<-done
}
