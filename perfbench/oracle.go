package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"dssddi"
	"dssddi/internal/alerts"
	"dssddi/internal/serve"
)

// oracle is the in-process reference every 2xx suggest is checked
// against: the same snapshot, loaded here and switched to the
// workload's precision. Index suggests must equal System.Suggest and
// suggests by id must equal SuggestFor on a regimen the id could hold,
// field for field, scores compared by their bits.
type oracle struct {
	sys     *dssddi.System
	data    *dssddi.Data
	checker *alerts.Checker

	index   map[int]*serve.SuggestResponse
	induct  map[string]*serve.SuggestResponse
	decoded map[uint64]*serve.SuggestResponse
}

func loadSystem(path string) (*dssddi.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dssddi.Load(f)
}

func newOracle(snapshot, precision string) (*oracle, error) {
	sys, err := loadSystem(snapshot)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := sys.SetPrecision(precision); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	data := sys.Data()
	emb, err := sys.DrugRelationEmbeddings()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	names := make([]string, data.NumDrugs())
	for i := range names {
		names[i] = data.DrugName(i)
	}
	o := &oracle{
		sys: sys, data: data,
		checker: alerts.NewChecker(data.Dataset().DDI, emb, names),
		index:   make(map[int]*serve.SuggestResponse),
		induct:  make(map[string]*serve.SuggestResponse),
		decoded: make(map[uint64]*serve.SuggestResponse),
	}
	return o, nil
}

// response builds the suggest payload a correct server returns for
// these suggestions, screened the way /v1/suggest screens them, and
// normalises it through one JSON round trip.
func (o *oracle) response(patient int, id string, regimen []int, suggs []dssddi.Suggestion) *serve.SuggestResponse {
	resp := serve.SuggestResponse{Patient: patient, PatientID: id, K: suggestK, Regimen: regimen}
	if resp.Regimen == nil {
		resp.Regimen = []int{}
	}
	ids := make([]int, len(suggs))
	for i, sg := range suggs {
		ids[i] = sg.DrugID
		resp.Suggestions = append(resp.Suggestions, serve.SuggestionOut{
			DrugID: sg.DrugID, DrugName: sg.DrugName, Score: sg.Score,
			Alerts: o.checker.ScreenAgainst(resp.Regimen, []int{sg.DrugID}),
		})
	}
	resp.ListAlerts = o.checker.ScreenList(ids)
	buf, err := json.Marshal(resp)
	if err != nil {
		panic(err) // the payload holds only plain values
	}
	return decodeSuggest(buf)
}

func decodeSuggest(body []byte) *serve.SuggestResponse {
	var r serve.SuggestResponse
	if json.Unmarshal(body, &r) != nil {
		return nil
	}
	return &r
}

func (o *oracle) forIndex(p int) (*serve.SuggestResponse, error) {
	if r, ok := o.index[p]; ok {
		return r, nil
	}
	suggs, err := o.sys.Suggest(p, suggestK)
	if err != nil {
		return nil, err
	}
	r := o.response(p, "", o.data.Medications(p), suggs)
	o.index[p] = r
	return r, nil
}

func regimenKey(reg []int) string {
	var b strings.Builder
	for i, d := range reg {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(d))
	}
	return b.String()
}

func (o *oracle) forRegimen(id string, regimen []int) (*serve.SuggestResponse, error) {
	key := id + "|" + regimenKey(regimen)
	if r, ok := o.induct[key]; ok {
		return r, nil
	}
	suggs, err := o.sys.SuggestFor(dssddi.PatientProfile{Regimen: regimen}, suggestK)
	if err != nil {
		return nil, err
	}
	r := o.response(-1, id, regimen, suggs)
	o.induct[key] = r
	return r, nil
}

func (o *oracle) decode(rec *recorder, hash uint64) *serve.SuggestResponse {
	if r, ok := o.decoded[hash]; ok {
		return r
	}
	r := decodeSuggest(rec.bodies[hash])
	o.decoded[hash] = r
	return r
}

// putEvent is one registry write as the generator saw it.
type putEvent struct {
	regimen    []int
	sent, done int64 // nanoseconds from the recorder's origin
	acked      bool
}

// registryHistory indexes every PUT by id.
type registryHistory map[string][]putEvent

func historyOf(samples []sample) registryHistory {
	h := make(registryHistory)
	for i := range samples {
		s := &samples[i]
		if s.req.kind != putPatient {
			continue
		}
		h[s.req.id] = append(h[s.req.id], putEvent{
			regimen: s.req.regimen, sent: int64(s.sent), done: int64(s.done), acked: s.ok(),
		})
	}
	return h
}

// candidates returns every regimen id could legally hold for a read
// sent at from and answered at to: a write is excluded only if it had
// not started by to, or if another acknowledged write began after it
// finished and was itself acknowledged before from.
func (h registryHistory) candidates(id string, from, to int64) [][]int {
	cutoff := int64(-1 << 62)
	for _, p := range h[id] {
		if p.acked && p.done < from && p.sent > cutoff {
			cutoff = p.sent
		}
	}
	var out [][]int
	for _, p := range h[id] {
		if p.sent < to && p.done >= cutoff {
			out = append(out, p.regimen)
		}
	}
	return out
}

// verdict counts answers that failed the oracle, with a few examples.
type verdict struct {
	wrong    int
	examples []string
}

func (v *verdict) fail(format string, args ...any) {
	v.wrong++
	if len(v.examples) < 5 {
		v.examples = append(v.examples, fmt.Sprintf(format, args...))
	}
}

// check verifies every successful suggest in samples against the
// reference.
func (o *oracle) check(rec *recorder, samples []sample, hist registryHistory) (verdict, error) {
	var v verdict
	for i := range samples {
		s := &samples[i]
		if !s.ok() || s.req.kind == putPatient {
			continue
		}
		got := o.decode(rec, s.hash)
		if got == nil {
			v.fail("%s: undecodable suggest body", s.phase)
			continue
		}
		if s.req.kind == suggestIndex {
			want, err := o.forIndex(s.req.patient)
			if err != nil {
				return v, err
			}
			if !reflect.DeepEqual(got, want) {
				v.fail("%s: patient %d answer differs from the reference", s.phase, s.req.patient)
			}
			continue
		}
		matched := false
		for _, reg := range hist.candidates(s.req.id, int64(s.sent), int64(s.done)) {
			want, err := o.forRegimen(s.req.id, reg)
			if err != nil {
				return v, err
			}
			if reflect.DeepEqual(got, want) {
				matched = true
				break
			}
		}
		if !matched {
			v.fail("%s: patient %q answer matches no regimen it could hold", s.phase, s.req.id)
		}
	}
	return v, nil
}
