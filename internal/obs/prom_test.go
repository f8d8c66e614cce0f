package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

type roundTripEndpoint struct {
	Requests int64             `prom:"dssddi_requests_total,counter" help:"Requests by endpoint."`
	Latency  HistogramSnapshot `prom:"dssddi_request_duration_seconds,histogram" help:"Latency by endpoint."`
}

// TestPromRoundTrip writes an exposition with the renderer the daemons
// use, then parses and validates it with the same parser the smoke
// test uses — proving the two ends agree on the format.
func TestPromRoundTrip(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	var sb strings.Builder
	WriteProm(&sb, struct {
		Endpoints map[string]roundTripEndpoint `label:"endpoint"`
		Up        int64                        `prom:"dssddi_up,gauge" help:"Always 1."`
	}{
		Endpoints: map[string]roundTripEndpoint{"suggest": {100, h.Snapshot()}, "scores": {Requests: 40}},
		Up:        1,
	})

	set, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, sb.String())
	}
	if v, ok := set.Value("dssddi_requests_total", map[string]string{"endpoint": "suggest"}); !ok || v != 100 {
		t.Fatalf("counter round-trip: got %v, %v", v, ok)
	}
	if v, ok := set.Value("dssddi_up", nil); !ok || v != 1 {
		t.Fatalf("gauge round-trip: got %v, %v", v, ok)
	}
	n, err := set.CheckHistograms()
	if err != nil {
		t.Fatalf("histogram validation: %v", err)
	}
	if n != 2 {
		t.Fatalf("validated %d histogram instances, want 2", n)
	}
	if v, ok := set.Value("dssddi_request_duration_seconds_count", map[string]string{"endpoint": "suggest"}); !ok || v != 100 {
		t.Fatalf("_count round-trip: got %v, %v", v, ok)
	}
}

// TestPromHistogramMergeEqualsSum is the fleet-aggregation contract:
// the router's merged exposition must carry bucket counts exactly
// equal to the sum of what each backend would expose.
func TestPromHistogramMergeEqualsSum(t *testing.T) {
	var h1, h2 Histogram
	for i := 1; i <= 60; i++ {
		h1.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 1; i <= 40; i++ {
		h2.Observe(time.Duration(i) * 50 * time.Microsecond)
	}
	merged := h1.Snapshot()
	merged.Add(h2.Snapshot())

	render := func(s HistogramSnapshot) *PromSet {
		var sb strings.Builder
		WriteProm(&sb, struct {
			Lat HistogramSnapshot `prom:"lat_seconds,histogram" help:"x"`
		}{s})
		set, err := ParseProm(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("render: %v", err)
		}
		return set
	}
	m, a, b := render(merged), render(h1.Snapshot()), render(h2.Snapshot())
	for i := 0; i < NumBuckets; i++ {
		le := promValue(BucketUpperSeconds(i))
		want := map[string]string{"le": le}
		mv, _ := m.Value("lat_seconds_bucket", want)
		av, _ := a.Value("lat_seconds_bucket", want)
		bv, _ := b.Value("lat_seconds_bucket", want)
		if mv != av+bv {
			t.Fatalf("bucket le=%s: merged %v != %v + %v", le, mv, av, bv)
		}
	}
	mc, _ := m.Value("lat_seconds_count", nil)
	if mc != 100 {
		t.Fatalf("merged count %v, want 100", mc)
	}
}

func TestPromEscaping(t *testing.T) {
	path := `C:\x"y` + "\nz"
	var sb strings.Builder
	WriteProm(&sb, struct {
		M map[string]int64 `prom:"m,gauge" help:"x" label:"path"`
	}{map[string]int64{path: 2}})
	set, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("escaped label does not parse: %v\n%q", err, sb.String())
	}
	if v, ok := set.Value("m", map[string]string{"path": path}); !ok || v != 2 {
		t.Fatalf("escape round-trip failed: %v %v in %+v", v, ok, set.Series)
	}
}

type promSection struct {
	Hits   int64   `json:"hits" prom:"t_hits_total,counter" help:"Hits."`
	Misses int64   `json:"misses" prom:"t_misses_total,counter" help:"Misses."`
	Rate   float64 `json:"rate" prom:"-"`
}

// TestWriteProm pins the renderer's output for every tag form. The
// _bucket lines of histograms are left out of want; the parser and
// CheckHistograms vouch for them.
func TestWriteProm(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"counter", struct {
			N int64 `prom:"t_total,counter" help:"A counter."`
		}{3}, "# HELP t_total A counter.\n# TYPE t_total counter\nt_total 3\n"},
		{"gauge", &struct {
			F float64 `prom:"t_ratio,gauge" help:"A gauge."`
			N int     `prom:"t_count,gauge" help:"An int."`
		}{0.25, 7}, "# HELP t_ratio A gauge.\n# TYPE t_ratio gauge\nt_ratio 0.25\n# HELP t_count An int.\n# TYPE t_count gauge\nt_count 7\n"},
		{"bool", struct {
			On  bool `prom:"t_on,gauge" help:"On."`
			Off bool `prom:"t_off,gauge" help:"Off."`
		}{On: true}, "# HELP t_on On.\n# TYPE t_on gauge\nt_on 1\n# HELP t_off Off.\n# TYPE t_off gauge\nt_off 0\n"},
		{"string info", struct {
			P string `prom:"t_info,gauge" help:"Info." label:"precision"`
		}{"f32"}, "# HELP t_info Info.\n# TYPE t_info gauge\nt_info{precision=\"f32\"} 1\n"},
		{"histogram", struct {
			H HistogramSnapshot `json:"-" prom:"t_seconds,histogram" help:"Latency."`
		}{h.Snapshot()}, "# HELP t_seconds Latency.\n# TYPE t_seconds histogram\nt_seconds_sum 0.003\nt_seconds_count 1\n"},
		{"constant labels group by family", struct {
			A promSection `label:"cache=a"`
			B promSection `label:"cache=b"`
		}{promSection{Hits: 1, Misses: 2}, promSection{Hits: 3, Misses: 4}},
			"# HELP t_hits_total Hits.\n# TYPE t_hits_total counter\nt_hits_total{cache=\"a\"} 1\nt_hits_total{cache=\"b\"} 3\n" +
				"# HELP t_misses_total Misses.\n# TYPE t_misses_total counter\nt_misses_total{cache=\"a\"} 2\nt_misses_total{cache=\"b\"} 4\n"},
		{"map label in key order", struct {
			M map[string]promSection `label:"endpoint"`
		}{map[string]promSection{"b": {Hits: 2}, "a": {Hits: 1}}},
			"# HELP t_hits_total Hits.\n# TYPE t_hits_total counter\nt_hits_total{endpoint=\"a\"} 1\nt_hits_total{endpoint=\"b\"} 2\n" +
				"# HELP t_misses_total Misses.\n# TYPE t_misses_total counter\nt_misses_total{endpoint=\"a\"} 0\nt_misses_total{endpoint=\"b\"} 0\n"},
		{"nil pointer section", struct {
			P *promSection `label:"cache=p"`
		}{}, ""},
		{"pointer section", struct {
			P *promSection `label:"cache=p"`
		}{&promSection{Hits: 5}}, "# HELP t_hits_total Hits.\n# TYPE t_hits_total counter\nt_hits_total{cache=\"p\"} 5\n" +
			"# HELP t_misses_total Misses.\n# TYPE t_misses_total counter\nt_misses_total{cache=\"p\"} 0\n"},
		{"dash and untagged fields stay out", struct {
			Skipped promSection `prom:"-"`
			Derived float64     `prom:"-"`
			JSON    int64       `json:"json_only"`
			Path    string
			Kept    int64 `prom:"t_kept,gauge" help:"Kept."`
		}{Derived: 1, JSON: 2, Path: "p", Kept: 3}, "# HELP t_kept Kept.\n# TYPE t_kept gauge\nt_kept 3\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := WriteProm(&sb, tc.v); err != nil {
				t.Fatal(err)
			}
			set, err := ParseProm(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("output does not parse: %v\n%s", err, sb.String())
			}
			if _, err := set.CheckHistograms(); err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(sb.String(), "\n") {
				if !strings.Contains(line, "_bucket{") {
					got.WriteString(line)
				}
			}
			if got.String() != tc.want {
				t.Fatalf("got\n%s\nwant\n%s", got.String(), tc.want)
			}
		})
	}
}

type fuzzEntry struct {
	Count int64             `prom:"fz_count_total,counter" help:"Count."`
	Ratio float64           `prom:"fz_ratio,gauge" help:"Ratio."`
	Info  string            `prom:"fz_info,gauge" help:"Info." label:"info"`
	Lat   HistogramSnapshot `prom:"fz_seconds,histogram" help:"Latency."`
}

// FuzzWriteProm renders arbitrary label values (quotes, backslashes,
// newlines, braces, invalid UTF-8) and numbers, and requires each to
// come back exactly through the parser, with consistent histograms.
// The seed corpus is in testdata/fuzz/FuzzWriteProm.
func FuzzWriteProm(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, info string, n int64, x float64, ns int64) {
		var h Histogram
		h.Observe(time.Duration(ns))
		in := map[string]fuzzEntry{
			key:        {Count: n, Ratio: x, Info: info, Lat: h.Snapshot()},
			key + "\\": {Count: -n, Ratio: -x, Info: key},
		}
		var sb strings.Builder
		if err := WriteProm(&sb, struct {
			M map[string]fuzzEntry `label:"key"`
		}{in}); err != nil {
			t.Fatal(err)
		}
		set, err := ParseProm(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("output does not parse: %v\n%q", err, sb.String())
		}
		if _, err := set.CheckHistograms(); err != nil {
			t.Fatal(err)
		}
		for k, e := range in {
			for _, c := range []struct {
				name   string
				labels map[string]string
				want   float64
			}{
				{"fz_count_total", map[string]string{"key": k}, float64(e.Count)},
				{"fz_ratio", map[string]string{"key": k}, e.Ratio},
				{"fz_info", map[string]string{"key": k, "info": e.Info}, 1},
				{"fz_seconds_count", map[string]string{"key": k}, float64(e.Lat.Count)},
			} {
				got, ok := set.Value(c.name, c.labels)
				if !ok || math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
					t.Fatalf("%s%v = %v (found %v), want %v\n%q", c.name, c.labels, got, ok, c.want, sb.String())
				}
			}
		}
	})
}

func TestParsePromRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE m counter\nm{x=unquoted} 1\n",
		"# TYPE m counter\nm{x=\"v\"} notanumber\n",
		"# TYPE m counter\nm{x=\"unterminated 1\n",
		"# TYPE m counter\n1leading_digit 1\n",
		// Two families interleaved, as a hand-written exposition once
		// wrote its two cache counters: the text format wants each
		// family's lines in one group.
		`# HELP dssddi_cache_hits_total Result-cache hits by cache.
# TYPE dssddi_cache_hits_total counter
# HELP dssddi_cache_misses_total Result-cache misses by cache.
# TYPE dssddi_cache_misses_total counter
dssddi_cache_hits_total{cache="suggest"} 2026
dssddi_cache_misses_total{cache="suggest"} 746
dssddi_cache_hits_total{cache="explain"} 0
dssddi_cache_misses_total{cache="explain"} 0
`,
		// A histogram's series come back after another family.
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n# TYPE g gauge\ng 1\nh_sum 1\nh_count 1\n",
		// A family declared twice.
		"# TYPE m counter\nm 1\n# TYPE m counter\nm{x=\"a\"} 2\n",
	}
	for _, in := range bad {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestCheckHistogramsCatchesBroken(t *testing.T) {
	in := `# TYPE h histogram
h_bucket{le="0.1"} 5
h_bucket{le="+Inf"} 4
h_sum 1
h_count 4
`
	set, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := set.CheckHistograms(); err == nil {
		t.Fatal("non-cumulative buckets passed validation")
	}
	in2 := `# TYPE h histogram
h_bucket{le="0.1"} 4
h_bucket{le="+Inf"} 5
h_sum 1
h_count 4
`
	set2, _ := ParseProm(strings.NewReader(in2))
	if _, err := set2.CheckHistograms(); err == nil {
		t.Fatal("+Inf != _count passed validation")
	}
}
