// Package obs is the zero-dependency observability layer shared by
// the serving tier (internal/serve), the fleet router
// (internal/router) and the WAL (internal/wal). It provides the four
// primitives the rest of the system composes:
//
//   - Request identity: every request entering the fleet is stamped
//     with an X-Request-Id (client-supplied or minted), propagated
//     router -> backend and echoed on every response, so a slow or
//     wrong answer is attributable across tiers.
//
//   - Request tracing: a sampled, bounded ring of per-request span
//     timelines (admission-queue wait, batch wait, score compute,
//     encode; router-side per-attempt spans annotated with the
//     backend) served at GET /debug/tracez as text and JSON, in the
//     spirit of golang.org/x/net/trace. Tracing costs nothing when a
//     request is not sampled: every Trace method is a nil-receiver
//     no-op, so the hot path stays allocation-free.
//
//   - Latency histograms: fixed exponential buckets backed by atomic
//     counters — recording is a couple of atomic adds, scraping never
//     locks or sorts, and two histograms merge exactly (bucket-wise
//     integer addition), so the router can sum fleet histograms
//     without approximation.
//
//   - Prometheus text exposition: a renderer that writes a tagged
//     metrics struct (the same value a tier's JSON view encodes) as
//     counters, gauges and histograms in the text format (version
//     0.0.4), plus a strict parser used by tests and cmd/obscheck to
//     prove scrapes round-trip.
//
// BuildInfo (git commit + toolchain, via -ldflags -X and
// debug.ReadBuildInfo), a slog construction helper and a flag-gated
// net/http/pprof mux wrapper round out the package.
package obs
