package main

import (
	"testing"

	"dssddi/internal/benchfmt"
)

func TestCheckPrecision(t *testing.T) {
	f32 := func(delta, inv float64) benchfmt.PrecisionStats {
		return benchfmt.PrecisionStats{Precision: "f32", Patients: 14, Drugs: 86, K: 4, MaxAbsDelta: delta, RankingInvariance: inv}
	}
	for _, tc := range []struct {
		name  string
		stats []benchfmt.PrecisionStats
		ok    bool
	}{
		{"within bounds", []benchfmt.PrecisionStats{f32(7e-8, 1)}, true},
		{"at the bounds", []benchfmt.PrecisionStats{f32(1e-4, 0.95)}, true},
		{"over max-abs-delta", []benchfmt.PrecisionStats{f32(2e-4, 1)}, false},
		{"under min-ranking-invariance", []benchfmt.PrecisionStats{f32(7e-8, 0.94)}, false},
		{"no f32 entry", []benchfmt.PrecisionStats{{Precision: "bf16", MaxAbsDelta: 0, RankingInvariance: 1}}, false},
		{"no stats", nil, false},
	} {
		err := checkPrecision(benchfmt.Report{Precisions: tc.stats}, 1e-4, 0.95)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkPrecision error = %v, want pass=%v", tc.name, err, tc.ok)
		}
	}
}

func TestAssertScale(t *testing.T) {
	rep := benchfmt.Report{Serving: []benchfmt.ServeBench{
		{Name: "suggest-cold", RPS: 600},
		{Name: "suggest-cold-f32", RPS: 1000},
		{Name: "idle", RPS: 0},
	}}
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"suggest-cold-f32:suggest-cold:1.5", true},
		{"suggest-cold-f32:suggest-cold:1.7", false}, // 1.67x is below the ratio
		{"suggest-cold-int8:suggest-cold:1.5", false},
		{"suggest-cold-f32:suggest-warm:1.5", false},
		{"suggest-cold-f32:suggest-cold", false},
		{"suggest-cold-f32:suggest-cold:fast", false},
		{"suggest-cold-f32:suggest-cold:0", false},
		{"suggest-cold-f32:idle:1.5", false}, // zero-rps base
	} {
		if err := assertScale(rep, tc.spec); (err == nil) != tc.ok {
			t.Errorf("-scale %s: error = %v, want pass=%v", tc.spec, err, tc.ok)
		}
	}
}

func TestCheckReplication(t *testing.T) {
	if err := checkReplication(&benchfmt.ReplicationStats{VerifiedRegistrations: 40}); err != nil {
		t.Errorf("0 lost registrations failed the gate: %v", err)
	}
	if err := checkReplication(&benchfmt.ReplicationStats{VerifiedRegistrations: 40, LostRegistrations: 1}); err == nil {
		t.Error("1 lost registration passed the gate")
	}
}
