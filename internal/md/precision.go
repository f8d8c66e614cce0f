package md

import (
	"fmt"
	"unsafe"

	"dssddi/internal/mat"
	"dssddi/internal/nn"
)

// This file is the precision control of the serving engine. The f64
// model is always the source of truth and the accuracy oracle; the f32
// view is derived from it deterministically (IEEE round-to-nearest-
// even) and can be rebuilt or dropped at any time without touching
// the trained parameters. Every engine entry point scores through the
// f32 view when one is set, else through the f64 view.

// Precision selects the serving-side numeric representation of the
// frozen model.
type Precision uint8

const (
	// F64 scores through the full float64 model — the accuracy oracle.
	F64 Precision = iota
	// F32 scores through float32 copies of the frozen drug
	// representations, treatment rows and decoder, on the eight-lane
	// f32 SIMD kernels. Half the resident bytes of F64; the divergence
	// from the oracle is characterized and gated (see precision_test.go
	// and benchdiff -precision-gate).
	F32
)

// String returns the flag spelling of the precision.
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision maps a -precision flag value to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return F64, fmt.Errorf("md: unknown precision %q (want f64 or f32)", s)
}

// SetPrecision derives (or drops, for F64) the f32 view of the frozen
// model: float32 copies of the final drug representations, the
// per-cluster treatment rows and the fused decoder. The derivation is
// deterministic, so a given snapshot always yields the same view. It
// must not run concurrently with scoring — the serving layer applies
// it to a freshly loaded model before publishing the epoch, which also
// makes a hot reload switch precision atomically. Training drops the
// view (back to F64). Re-requesting the active precision is a
// read-only no-op, so re-publishing a system that is still serving an
// older epoch at the same precision never writes fields that epoch's
// in-flight requests are reading.
func (m *Model) SetPrecision(p Precision) error {
	switch {
	case p == m.Precision():
		return nil
	case p == F64:
		m.f32 = nil
		return nil
	case m.drugCache == nil:
		return fmt.Errorf("md: precision %v needs a frozen model — train to completion or load a snapshot first", p)
	}
	trows := make([][]float32, len(m.Treatment.clusterRow))
	for c, r := range m.Treatment.clusterRow {
		trows[c] = mat.Floats32(r)
	}
	m.f32 = &view[float32]{nn.NewPairDecoder32(m.pd), mat.Floats32(m.drugCache.Data()), trows}
	return nil
}

// Precision reports the active serving precision.
func (m *Model) Precision() Precision {
	if m.f32 != nil {
		return F32
	}
	return F64
}

// ResidentModelBytes returns the explicit resident byte count of the
// active serving representation — the frozen drug representations, the
// per-cluster treatment rows and the fused decoder at the active
// precision. This is the accounting /metricsz and the bench reports
// record: measured from the blobs themselves, not from runtime.MemStats.
func (m *Model) ResidentModelBytes() int {
	if m.f32 != nil {
		return m.f32.bytes()
	}
	v := m.view64()
	return v.bytes()
}

func (v *view[T]) bytes() int {
	n := len(v.drugs)
	for _, r := range v.trows {
		n += len(r)
	}
	return int(unsafe.Sizeof(T(0)))*n + v.pd.Bytes()
}
