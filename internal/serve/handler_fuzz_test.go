package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// fuzzRoutes are the request-body routes FuzzHandler drives. The
// reload route stays out: its body names a file, and a failed load
// answers 500 by design.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodPost, "/v1/suggest"},
	{http.MethodPost, "/v1/scores"},
	{http.MethodPost, "/v1/explain"},
	{http.MethodPost, "/v1/alerts"},
	{http.MethodPut, "/v1/patients/"},
	{http.MethodPatch, "/v1/patients/"},
	{http.MethodGet, "/v1/patients/"},
	{http.MethodDelete, "/v1/patients/"},
	{http.MethodPost, "/v1/admin/registry/apply"},
	{http.MethodPost, "/v1/admin/registry/sync"},
}

// FuzzHandler sends arbitrary bodies to one handler over the shared
// test model with a volatile registry. route picks one of fuzzRoutes,
// and id names the patient of the /v1/patients routes. Malformed input
// must get a 4xx: no request may panic or answer 5xx.
func FuzzHandler(f *testing.F) {
	s, err := New(system(f), Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, id string, body []byte) {
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		target := rt.path
		if target == "/v1/patients/" {
			target += url.PathEscape(id)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rt.method, target, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %s with body %q answered %d: %s", rt.method, target, body, rec.Code, rec.Body.Bytes())
		}
	})
}
