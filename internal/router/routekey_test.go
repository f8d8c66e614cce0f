package router

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRouteKey checks the routing rule on arbitrary bodies: it never
// panics; a body is pinned exactly when it decodes with a non-empty
// patient_id, and then routes by that patient's registered key; any
// other body routes by a dataset-index or a drug-set key.
func FuzzRouteKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		key, pinned := routeKey(body)
		var probe struct {
			PatientID string `json:"patient_id"`
		}
		json.Unmarshal(body, &probe)
		switch {
		case pinned != (probe.PatientID != ""):
			t.Fatalf("routeKey(%q) pinned = %t, but patient_id decodes as %q", body, pinned, probe.PatientID)
		case pinned && key != registeredKey(probe.PatientID):
			t.Fatalf("routeKey(%q) = %q, want %q", body, key, registeredKey(probe.PatientID))
		case !pinned && !strings.HasPrefix(key, "i|") && !strings.HasPrefix(key, "d|"):
			t.Fatalf("routeKey(%q) = %q, want an i| or d| key", body, key)
		}
	})
}
