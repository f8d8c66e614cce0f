package md

// Benchmarks for the f32 scoring path, directly comparable to the f64
// ones in score_bench_test.go: same model, same patient, same
// serial-worker discipline. BenchmarkTopKPrecisionWidths sweeps the
// representation width so the f32:f64 kernel ratio can be read at the
// widths the serve smoke trains at.

import (
	"fmt"
	"testing"

	"dssddi/internal/mat"
)

func withBenchPrecision(b *testing.B, m *Model, p Precision) {
	b.Helper()
	if err := m.SetPrecision(p); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.SetPrecision(F64) })
}

func BenchmarkScoreOnePatientF32(b *testing.B) {
	m := benchModel(b)
	withBenchPrecision(b, m, F32)
	p := m.Data.Test[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scores([]int{p})
	}
}

func BenchmarkTopKOnePatientF32(b *testing.B) {
	m := benchModel(b)
	withBenchPrecision(b, m, F32)
	p := m.Data.Test[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TopKScores(p, 4)
	}
}

func BenchmarkTopKPrecisionWidths(b *testing.B) {
	for _, hidden := range []int{48, 96, 192} {
		mat.SetWorkers(1)
		d := smallDataset(31)
		cfg := DefaultConfig()
		cfg.Hidden = hidden
		cfg.Epochs = 4
		cfg.SelectOnVal = false
		m := NewModel(d, nil, cfg)
		m.Train()
		p := m.Data.Test[0]
		for _, prec := range []Precision{F64, F32} {
			b.Run(fmt.Sprintf("h%d/%s", hidden, prec), func(b *testing.B) {
				withBenchPrecision(b, m, prec)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.TopKScores(p, 4)
				}
			})
		}
	}
}
