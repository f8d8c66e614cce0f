package regproto

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// records decodes fuzz bytes into a batch, three bytes a record: the id
// (p0 to p15, so batches collide, and six shards hold two of them), the
// version (0 to 3) and the contents (odd: a tombstone; even: a one-drug
// regimen). The seed corpus spells records in ASCII: "012" is p0 at v1
// with regimen [25], "031" is p0 deleted at v3, and "?" names p15.
func records(data []byte) []Record {
	var out []Record
	for ; len(data) >= 3; data = data[3:] {
		r := Record{ID: "p" + strconv.Itoa(int(data[0]%16)), Version: uint64(data[1] % 4)}
		if data[2]%2 == 1 {
			r.Deleted = true
		} else {
			r.Regimen = []int{int(data[2] / 2)}
		}
		out = append(out, r)
	}
	return out
}

// merged folds the batches, in order, into an empty map.
func merged(batches ...[]Record) map[string]Record {
	m := make(map[string]Record)
	for _, b := range batches {
		Merge(m, b)
	}
	return m
}

// split reports whether one id appears twice at one version with
// different contents across the batches.
func split(batches ...[]Record) bool {
	type slot struct {
		id      string
		version uint64
	}
	seen := make(map[slot]Record)
	for _, b := range batches {
		for _, r := range b {
			k := slot{r.ID, r.Version}
			if prev, ok := seen[k]; ok && !reflect.DeepEqual(prev, r) {
				return true
			}
			seen[k] = r
		}
	}
	return false
}

// FuzzMerge checks the laws anti-entropy leans on. Merging a batch
// twice gives the map merging it once does. Two batches merge to the
// same map in either order, unless one id appears twice at one version
// with different contents: Merge then keeps the first record seen, so
// the order decides. That excluded case is the defect ROADMAP.md
// describes as two replicas minting the same version with different
// contents; totally ordered versions remove it. And DigestShards gives
// the same digests for any order of records with distinct ids.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := records(x), records(y)
		if once, twice := merged(a), merged(a, a); !reflect.DeepEqual(once, twice) {
			t.Fatalf("merging %v twice gave %v, once %v", a, twice, once)
		}
		ab := merged(a, b)
		if ba := merged(b, a); !split(a, b) && !reflect.DeepEqual(ab, ba) {
			t.Fatalf("merging %v and %v: %v in one order, %v in the other", a, b, ab, ba)
		}

		var byID []Record // distinct ids: one record per slot of the map
		for _, r := range ab {
			byID = append(byID, r)
		}
		slices.SortFunc(byID, func(p, q Record) int { return strings.Compare(p.ID, q.ID) })
		want := DigestShards(byID)
		k := len(x) % (len(byID) + 1)
		rotated := append(slices.Clone(byID[k:]), byID[:k]...)
		reversed := slices.Clone(byID)
		slices.Reverse(reversed)
		for _, order := range [][]Record{rotated, reversed} {
			if got := DigestShards(order); !reflect.DeepEqual(got, want) {
				t.Fatalf("DigestShards of %v = %v, want %v as in id order", order, got, want)
			}
		}
	})
}
