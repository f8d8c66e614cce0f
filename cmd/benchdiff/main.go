// Command benchdiff compares two benchtab/loadgen -json reports
// (typically a committed baseline against a fresh run) and enforces
// the regression gates:
//
//   - any training entry whose allocs/op exceeds the baseline by more
//     than -max-alloc-ratio fails the run;
//   - cold-suggest entries (name containing "suggest-cold") also gate
//     on ns/op: the interactive cold path is the product metric, so a
//     >-max-ns-ratio wall-clock regression fails even though other
//     entries' ns/op stay informational (wall-clock is
//     machine-dependent; allocation counts are not);
//   - serving entries overlapping by name are diffed on req/s. By
//     default this is informational — serving throughput on shared CI
//     runners is too noisy to gate hard — but -min-rps-ratio N fails
//     any suggest entry whose current req/s drops below N x baseline.
//
// A second mode asserts replication scaling inside ONE report:
//
//	benchdiff -scale cluster-suggest:suggest:2.0 BENCH_cluster.json
//
// fails unless entry "cluster-suggest" achieves at least 2.0x the
// req/s of entry "suggest" — the cluster smoke's proof that fleet
// throughput actually scales with replica count.
//
// A third mode gates on the replication section of ONE report:
//
//	benchdiff -replication-gate BENCH_chaos.json
//
// requires the report to carry replication stats (a chaos run with
// -verify-registry) and fails when lost_registrations is nonzero — an
// acknowledged registration that vanished is a hard failure, never a
// threshold. The same gate applies automatically in two-report mode
// when the current report carries a replication section.
//
// A fourth mode gates on the precision section of ONE report:
//
//	benchdiff -precision-gate BENCH_serve.json
//
// requires the report to carry precision stats ('dssddi precision
// -bench') and hard-fails when the f32 entry's max absolute score
// divergence from the float64 oracle exceeds -max-abs-delta, or its
// top-K ranking invariance drops below -min-ranking-invariance.
//
// Usage:
//
//	benchdiff [-max-alloc-ratio 2.0] [-max-ns-ratio 2.0] [-min-rps-ratio 0] baseline.json current.json
//	benchdiff -scale scaled:base:minratio report.json
//	benchdiff -replication-gate report.json
//	benchdiff -precision-gate [-max-abs-delta 1e-4] [-min-ranking-invariance 0.95] report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dssddi/internal/benchfmt"
)

func load(path string) (benchfmt.Report, error) {
	var r benchfmt.Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	maxAllocRatio := flag.Float64("max-alloc-ratio", 2.0, "fail when current allocs/op exceeds baseline by this factor")
	maxNsRatio := flag.Float64("max-ns-ratio", 2.0, "fail when a cold-suggest entry's ns/op exceeds baseline by this factor")
	minRPSRatio := flag.Float64("min-rps-ratio", 0, "fail when a serving suggest entry's req/s falls below this fraction of baseline (0 = informational only)")
	scale := flag.String("scale", "", "single-report scaling assertion: scaledEntry:baseEntry:minRatio (e.g. cluster-suggest:suggest:2.0)")
	replGate := flag.Bool("replication-gate", false, "single-report replication gate: require a replication section and fail when lost_registrations > 0")
	precGate := flag.Bool("precision-gate", false, "single-report precision gate: require precision stats and fail when the f32 divergence or ranking invariance breaks the thresholds")
	maxAbsDelta := flag.Float64("max-abs-delta", 1e-4, "precision gate: max tolerated |score_f32 - score_f64|")
	minInvariance := flag.Float64("min-ranking-invariance", 0.95, "precision gate: min fraction of sampled patients whose f32 top-K matches the f64 oracle")
	flag.Parse()

	if *precGate {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -precision-gate report.json")
			os.Exit(2)
		}
		rep, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := checkPrecision(rep, *maxAbsDelta, *minInvariance); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}

	if *replGate {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -replication-gate report.json")
			os.Exit(2)
		}
		rep, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if rep.Replication == nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -replication-gate: %s has no replication section (run loadgen with -verify-registry)\n", flag.Arg(0))
			os.Exit(2)
		}
		if err := checkReplication(rep.Replication); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}

	if *scale != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -scale scaled:base:minratio report.json")
			os.Exit(2)
		}
		rep, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := assertScale(rep, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-alloc-ratio N] [-max-ns-ratio N] [-min-rps-ratio N] baseline.json current.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	matched := 0
	failed := false
	if len(cur.Training) > 0 {
		m, f := diffTraining(base, cur, *maxAllocRatio, *maxNsRatio)
		matched += m
		failed = failed || f
	}
	if len(cur.Serving) > 0 {
		m, f := diffServing(base, cur, *minRPSRatio)
		matched += m
		failed = failed || f
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no overlapping entries between reports")
		os.Exit(2)
	}
	// The lost-registration gate is unconditional: when the current
	// report carries a replication section, zero lost is a hard
	// requirement, not a ratio against the baseline.
	if cur.Replication != nil {
		if err := checkReplication(cur.Replication); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			failed = true
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: regression beyond thresholds (allocs %.1fx, cold ns %.1fx, min rps %.2fx)\n",
			*maxAllocRatio, *maxNsRatio, *minRPSRatio)
		os.Exit(1)
	}
}

func diffTraining(base, cur benchfmt.Report, maxAllocRatio, maxNsRatio float64) (matched int, failed bool) {
	baseline := make(map[string]benchfmt.TrainBench, len(base.Training))
	for _, tb := range base.Training {
		baseline[tb.Name] = tb
	}
	fmt.Printf("%-28s %14s %14s %9s %14s %14s %9s\n",
		"benchmark", "base ns/op", "cur ns/op", "speedup", "base allocs", "cur allocs", "ratio")
	for _, tb := range cur.Training {
		b, ok := baseline[tb.Name]
		if !ok {
			fmt.Printf("%-28s %14s (no baseline entry, skipped)\n", tb.Name, "-")
			continue
		}
		matched++
		speedup := 0.0
		if tb.NsPerOp > 0 {
			speedup = b.NsPerOp / tb.NsPerOp
		}
		// A zero-alloc baseline must not disable the gate: treat it as
		// one alloc/op so any real regression still trips the ratio.
		denom := b.AllocsPerOp
		if denom < 1 {
			denom = 1
		}
		ratio := tb.AllocsPerOp / denom
		status := ""
		if ratio > maxAllocRatio {
			status = "  <-- ALLOC REGRESSION"
			failed = true
		}
		if strings.Contains(tb.Name, "suggest-cold") && b.NsPerOp > 0 && tb.NsPerOp > maxNsRatio*b.NsPerOp {
			status += "  <-- COLD-PATH NS REGRESSION"
			failed = true
		}
		fmt.Printf("%-28s %14.0f %14.0f %8.2fx %14.1f %14.1f %8.2fx%s\n",
			tb.Name, b.NsPerOp, tb.NsPerOp, speedup, b.AllocsPerOp, tb.AllocsPerOp, ratio, status)
	}
	return matched, failed
}

// diffServing compares serving throughput entry by entry. Suggest
// entries (the product metric) gate when minRPSRatio > 0; everything
// is always printed so CI job summaries carry the trajectory even
// when the gate is off.
func diffServing(base, cur benchfmt.Report, minRPSRatio float64) (matched int, failed bool) {
	baseline := make(map[string]benchfmt.ServeBench, len(base.Serving))
	for _, sb := range base.Serving {
		baseline[sb.Name] = sb
	}
	fmt.Printf("%-28s %14s %14s %9s %9s %9s\n",
		"serving entry", "base req/s", "cur req/s", "ratio", "cur p99", "cur errs")
	for _, sb := range cur.Serving {
		b, ok := baseline[sb.Name]
		if !ok {
			fmt.Printf("%-28s %14s (no baseline entry, skipped)\n", sb.Name, "-")
			continue
		}
		matched++
		ratio := 0.0
		if b.RPS > 0 {
			ratio = sb.RPS / b.RPS
		}
		status := ""
		if minRPSRatio > 0 && strings.Contains(sb.Name, "suggest") && b.RPS > 0 && sb.RPS < minRPSRatio*b.RPS {
			status = "  <-- THROUGHPUT REGRESSION"
			failed = true
		}
		fmt.Printf("%-28s %14.0f %14.0f %8.2fx %7.2fms %9d%s\n",
			sb.Name, b.RPS, sb.RPS, ratio, sb.P99Ms, sb.Errors, status)
	}
	return matched, failed
}

// checkReplication prints a report's replication section and returns
// an error when any acknowledged registration was lost.
func checkReplication(r *benchfmt.ReplicationStats) error {
	fmt.Printf("replication: %d registrations verified, %d lost | replica reads %d, read repairs %d, fanouts %d, quorum failures %d, anti-entropy %d syncs / %d records, pinned 503s %d\n",
		r.VerifiedRegistrations, r.LostRegistrations, r.ReplicaReads, r.ReadRepairs,
		r.ReplicationFanouts, r.QuorumFailures, r.AntiEntropySyncs, r.AntiEntropyRecords, r.PinnedUnavailable)
	if r.LostRegistrations > 0 {
		return fmt.Errorf("replication gate: %d acknowledged registrations lost (must be 0)", r.LostRegistrations)
	}
	return nil
}

// checkPrecision prints a report's precision characterization and
// enforces the f32 accuracy gate: the quantized path only ships while
// it provably tracks the float64 oracle. Missing stats are an error —
// a pipeline that forgets the characterization step must not pass.
func checkPrecision(rep benchfmt.Report, maxAbsDelta, minInvariance float64) error {
	if len(rep.Precisions) == 0 {
		return fmt.Errorf("-precision-gate: report has no precision stats (run 'dssddi precision -bench')")
	}
	var gated bool
	var gateErr error
	for _, ps := range rep.Precisions {
		fmt.Printf("precision %-18s max|dscore| %.3e, top-%d ranking invariance %.3f over %d patients x %d drugs\n",
			ps.Precision, ps.MaxAbsDelta, ps.K, ps.RankingInvariance, ps.Patients, ps.Drugs)
		if ps.Precision != "f32" {
			continue
		}
		gated = true
		if ps.MaxAbsDelta > maxAbsDelta {
			gateErr = fmt.Errorf("precision gate: f32 max|dscore| %.3e exceeds %.3e", ps.MaxAbsDelta, maxAbsDelta)
		} else if ps.RankingInvariance < minInvariance {
			gateErr = fmt.Errorf("precision gate: f32 ranking invariance %.3f below %.3f", ps.RankingInvariance, minInvariance)
		}
	}
	if !gated {
		return fmt.Errorf("-precision-gate: report has no f32 precision entry")
	}
	return gateErr
}

// assertScale enforces scaledEntry.RPS >= minRatio * baseEntry.RPS
// within one report.
func assertScale(rep benchfmt.Report, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("-scale %q: want scaledEntry:baseEntry:minRatio", spec)
	}
	minRatio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || minRatio <= 0 {
		return fmt.Errorf("-scale %q: bad ratio %q", spec, parts[2])
	}
	entries := make(map[string]benchfmt.ServeBench, len(rep.Serving))
	for _, sb := range rep.Serving {
		entries[sb.Name] = sb
	}
	scaled, ok := entries[parts[0]]
	if !ok {
		return fmt.Errorf("-scale: entry %q not in report", parts[0])
	}
	baseEntry, ok := entries[parts[1]]
	if !ok {
		return fmt.Errorf("-scale: entry %q not in report", parts[1])
	}
	if baseEntry.RPS <= 0 {
		return fmt.Errorf("-scale: base entry %q has no throughput", parts[1])
	}
	ratio := scaled.RPS / baseEntry.RPS
	fmt.Printf("scale: %s %.0f req/s vs %s %.0f req/s = %.2fx (require >= %.2fx)\n",
		parts[0], scaled.RPS, parts[1], baseEntry.RPS, ratio, minRatio)
	if ratio < minRatio {
		return fmt.Errorf("scaling assertion failed: %s is %.2fx of %s, want >= %.2fx",
			parts[0], ratio, parts[1], minRatio)
	}
	return nil
}
