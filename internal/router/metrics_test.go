package router

import (
	"reflect"
	"strings"
	"testing"

	"dssddi/internal/obs"
	"dssddi/internal/serve"
)

// TestMetricsDeclaredOnce walks the /metricsz types of both tiers (the
// backend's too, since the router tests already build on serve). Every
// number, bool or histogram leaf must carry a prom tag, naming its
// family or "-" for a value derived from others, so a counter cannot
// join the JSON view alone. Each family must be declared by one field,
// with help text, a known type, and the _total suffix on counters only.
func TestMetricsDeclaredOnce(t *testing.T) {
	histogram := reflect.TypeFor[obs.HistogramSnapshot]()
	declared := map[string]string{} // family -> declaring field
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		if seen[st] {
			return // a section type used twice declares its families once
		}
		seen[st] = true
		for i := range st.NumField() {
			f := st.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Map {
				ft = ft.Elem()
			}
			where := st.Name() + "." + f.Name
			tag, tagged := f.Tag.Lookup("prom")
			switch {
			case tag == "-":
				continue
			case ft.Kind() == reflect.Struct && ft != histogram:
				walk(ft)
				continue
			case !tagged && ft.Kind() == reflect.String:
				continue
			case !tagged:
				t.Errorf("%s has no prom tag: name its family, or tag it prom:\"-\" if it is derived from others", where)
				continue
			}
			name, typ, _ := strings.Cut(tag, ",")
			if prev, dup := declared[name]; dup {
				t.Errorf("family %s declared by both %s and %s", name, prev, where)
			}
			declared[name] = where
			switch {
			case !strings.HasPrefix(name, "dssddi_"):
				t.Errorf("%s: family %s lacks the dssddi_ prefix", where, name)
			case (typ == "histogram") != (ft == histogram):
				t.Errorf("%s: type %q, but the field is a %s", where, typ, ft)
			case typ != "counter" && typ != "gauge" && typ != "histogram":
				t.Errorf("%s: unknown metric type %q", where, typ)
			case (typ == "counter") != strings.HasSuffix(name, "_total"):
				t.Errorf("%s: %s %s: counters, and only counters, end in _total", where, typ, name)
			case f.Tag.Get("help") == "":
				t.Errorf("%s: family %s has no help text", where, name)
			case ft.Kind() == reflect.String && f.Tag.Get("label") == "":
				t.Errorf("%s: a string metric needs the label that carries it", where)
			}
		}
	}
	walk(reflect.TypeFor[serve.Metrics]())
	walk(reflect.TypeFor[Metrics]())
}
