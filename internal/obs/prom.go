package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeProm answers a Prometheus scrape: a build-identity gauge named
// buildInfo, then the metrics declared on v (see WriteProm).
func ServeProm(w http.ResponseWriter, buildInfo string, v any) {
	b := Build()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# HELP %s Build identity of the running binary (value is always 1).\n# TYPE %s gauge\n", buildInfo, buildInfo)
	promLine(&buf, buildInfo, promLabel("commit", b.Short())+","+promLabel("go", b.GoVersion), "1")
	WriteProm(&buf, v)
	w.Header().Set("Content-Type", PromContentType)
	w.Write(buf.Bytes())
}

// WriteProm writes v, a struct or a pointer to one, in the text
// exposition format. Field tags declare the metrics, so a struct that
// is also a JSON document needs no second declaration:
//
//	prom:"name,type"  the field is family name, of type counter, gauge
//	                  or histogram (for a HistogramSnapshot field); a
//	                  field tagged "-" or untagged is left out
//	help:"text"       the family's # HELP text
//	label:"k=v"       on a struct or pointer field: label k="v" on every
//	                  sample inside it
//	label:"k"         on a map field: label k carries each key, in
//	                  sorted order; on a string field: label k carries
//	                  the string and the sample is 1 (an info gauge)
//
// Numbers render as themselves, bools as 0 or 1, and a nil pointer as
// nothing. Samples collect by family, so each family is one group of
// lines whatever the order of the fields.
func WriteProm(w io.Writer, v any) error {
	e := promWriter{byName: map[string]*promFamily{}}
	e.walk(reflect.ValueOf(v), "", "")
	for _, f := range e.families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s", f.name, f.help, f.name, f.typ, f.body.String()); err != nil {
			return err
		}
	}
	return nil
}

// promFamily is one family's header fields and its sample lines.
type promFamily struct {
	name, typ, help string
	body            strings.Builder
}

type promWriter struct {
	families []*promFamily // in order of first sample
	byName   map[string]*promFamily
}

func (e *promWriter) family(name, typ string, tag reflect.StructTag) io.Writer {
	f := e.byName[name]
	if f == nil {
		f = &promFamily{name: name, typ: typ, help: tag.Get("help")}
		e.byName[name] = f
		e.families = append(e.families, f)
	}
	return &f.body
}

var histogramType = reflect.TypeFor[HistogramSnapshot]()

// walk renders v, reached through a field with the given tag, with
// labels (a comma-joined promLabel list) on every sample.
func (e *promWriter) walk(v reflect.Value, tag reflect.StructTag, labels string) {
	name, typ, _ := strings.Cut(tag.Get("prom"), ",")
	label := tag.Get("label")
	switch {
	case name == "-":
	case v.Kind() == reflect.Pointer:
		if !v.IsNil() {
			e.walk(v.Elem(), tag, labels)
		}
	case v.Type() == histogramType:
		if name != "" {
			promHistogram(e.family(name, typ, tag), name, labels, v.Interface().(HistogramSnapshot))
		}
	case v.Kind() == reflect.Struct:
		if k, val, ok := strings.Cut(label, "="); ok {
			labels = joinLabels(labels, promLabel(k, val))
		}
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				e.walk(v.Field(i), f.Tag, labels)
			}
		}
	case v.Kind() == reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		for _, k := range keys {
			e.walk(v.MapIndex(k), tag, joinLabels(labels, promLabel(label, k.String())))
		}
	case name == "":
		// Not a metric: the field is in the JSON view only.
	default:
		value := "1" // a string is an info gauge
		switch {
		case v.Kind() == reflect.String:
			labels = joinLabels(labels, promLabel(label, v.String()))
		case v.Kind() == reflect.Bool:
			if !v.Bool() {
				value = "0"
			}
		case v.CanInt():
			value = strconv.FormatInt(v.Int(), 10)
		case v.CanFloat():
			value = promValue(v.Float())
		default:
			panic("obs: prom tag on a field of type " + v.Type().String())
		}
		promLine(e.family(name, typ, tag), name, labels, value)
	}
}

// promHistogram writes one label set's series of a histogram family:
// cumulative _bucket series (le-labelled, ending at +Inf), _sum
// (seconds) and _count.
func promHistogram(w io.Writer, name, labels string, s HistogramSnapshot) {
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		le := promLabel("le", promValue(BucketUpperSeconds(i)))
		promLine(w, name+"_bucket", joinLabels(labels, le), strconv.FormatInt(cum, 10))
	}
	promLine(w, name+"_sum", labels, promValue(float64(s.SumNs)/1e9))
	promLine(w, name+"_count", labels, strconv.FormatInt(cum, 10))
}

// promLine writes one sample line.
func promLine(w io.Writer, name, labels, value string) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s %s\n", name, value)
}

// promLabel renders one label pair, escaping the value per the
// exposition format.
func promLabel(k, v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return k + `="` + v + `"`
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// promValue renders a float sample value.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromSeries is one parsed sample: a metric name, its sorted
// label-pair rendering and the value.
type PromSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// labelKey renders the label set deterministically (sorted keys,
// le excluded when excludeLe) for grouping histogram series.
func (s PromSeries) labelKey(excludeLe bool) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		if excludeLe && k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + s.Labels[k]
	}
	return strings.Join(parts, ",")
}

// PromSet is a parsed exposition: every sample plus the declared
// types per metric family.
type PromSet struct {
	Series []PromSeries
	Types  map[string]string // family name -> counter|gauge|histogram|...
}

// Value returns the value of the first series with the given name
// whose labels include every pair in want (nil matches anything).
func (p *PromSet) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range p.Series {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseProm parses the Prometheus text exposition format, strictly
// enough to prove a scrape is well-formed: every non-comment line
// must be `name[{labels}] value`, label values must be quoted, every
// sample's family must have been declared with one # TYPE line, and
// each family's lines (a histogram's _bucket, _sum and _count
// included) must form one group. It is a validator for our own output
// (and a test oracle), not a general scraper.
func ParseProm(r io.Reader) (*PromSet, error) {
	set := &PromSet{Types: make(map[string]string)}
	// current is the family of the last line; ended holds the families
	// whose group of lines is over and may not resume.
	current, ended := "", map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var family string
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			switch {
			case len(fields) >= 4 && fields[1] == "TYPE":
				if _, dup := set.Types[fields[2]]; dup {
					return nil, fmt.Errorf("prom: line %d: second # TYPE line for %s", lineNo, fields[2])
				}
				set.Types[fields[2]] = fields[3]
				family = fields[2]
			case len(fields) >= 3 && fields[1] == "HELP":
				family = fields[2]
			case len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP"):
				return nil, fmt.Errorf("prom: line %d: malformed %s comment", lineNo, fields[1])
			default:
				continue
			}
		} else {
			s, err := parsePromSample(line)
			if err != nil {
				return nil, fmt.Errorf("prom: line %d: %w", lineNo, err)
			}
			family = s.Name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(s.Name, suffix)
				if base != s.Name && set.Types[base] == "histogram" {
					family = base
					break
				}
			}
			if _, ok := set.Types[family]; !ok {
				return nil, fmt.Errorf("prom: line %d: sample %q has no # TYPE declaration", lineNo, s.Name)
			}
			set.Series = append(set.Series, s)
		}
		if family != current {
			if ended[family] {
				return nil, fmt.Errorf("prom: line %d: family %s is split into more than one group", lineNo, family)
			}
			ended[current], current = true, family
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

func parsePromSample(line string) (PromSeries, error) {
	s := PromSeries{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set")
		}
		if err := parsePromLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`, got %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	if s.Name == "" || !validPromName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("invalid value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func validPromName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parsePromLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '=': %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := strings.TrimSpace(s[eq+1:])
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %q value must be quoted", key)
		}
		// Scan the quoted value honoring escapes.
		var val strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("label %q value unterminated", key)
		}
		into[key] = val.String()
		s = strings.TrimSpace(rest[i+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return nil
}

// CheckHistograms validates every histogram family in the set: for
// each label group, bucket counts must be cumulative (non-decreasing
// as le grows), the le="+Inf" bucket must exist and equal the _count
// series, and _sum must be present. It returns the number of
// histogram instances validated.
func (p *PromSet) CheckHistograms() (int, error) {
	type group struct {
		buckets []PromSeries
		count   *float64
		sum     *float64
	}
	groups := map[string]map[string]*group{} // family -> labelKey -> group
	for family, typ := range p.Types {
		if typ == "histogram" {
			groups[family] = map[string]*group{}
		}
	}
	for _, s := range p.Series {
		for family := range groups {
			var g *group
			key := s.labelKey(true)
			get := func() *group {
				if groups[family][key] == nil {
					groups[family][key] = &group{}
				}
				return groups[family][key]
			}
			switch s.Name {
			case family + "_bucket":
				g = get()
				g.buckets = append(g.buckets, s)
			case family + "_count":
				g = get()
				v := s.Value
				g.count = &v
			case family + "_sum":
				g = get()
				v := s.Value
				g.sum = &v
			}
		}
	}
	n := 0
	for family, byLabel := range groups {
		for key, g := range byLabel {
			n++
			if g.count == nil || g.sum == nil {
				return n, fmt.Errorf("histogram %s{%s}: missing _count or _sum", family, key)
			}
			if len(g.buckets) == 0 {
				return n, fmt.Errorf("histogram %s{%s}: no _bucket series", family, key)
			}
			sort.Slice(g.buckets, func(i, j int) bool {
				return parseLe(g.buckets[i].Labels["le"]) < parseLe(g.buckets[j].Labels["le"])
			})
			prev := -1.0
			for _, b := range g.buckets {
				if b.Value < prev {
					return n, fmt.Errorf("histogram %s{%s}: buckets not cumulative at le=%s", family, key, b.Labels["le"])
				}
				prev = b.Value
			}
			last := g.buckets[len(g.buckets)-1]
			if !math.IsInf(parseLe(last.Labels["le"]), 1) {
				return n, fmt.Errorf("histogram %s{%s}: missing le=\"+Inf\" bucket", family, key)
			}
			if last.Value != *g.count {
				return n, fmt.Errorf("histogram %s{%s}: +Inf bucket %v != _count %v", family, key, last.Value, *g.count)
			}
		}
	}
	return n, nil
}

func parseLe(s string) float64 {
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}
