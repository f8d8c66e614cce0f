package router

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func ringOf(replicas int, nodes ...string) *Ring {
	r := NewRing(replicas)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func testKeys(n int) []string {
	keys := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		keys = append(keys, patientKey(i), registeredKey(fmt.Sprintf("patient-%d", i)))
	}
	return keys
}

// TestRingDeterministic: the layout is a pure function of the member
// set — insertion order must not matter.
func TestRingDeterministic(t *testing.T) {
	a := ringOf(128, "n1", "n2", "n3", "n4")
	b := ringOf(128, "n4", "n2", "n1", "n3")
	for _, key := range testKeys(2000) {
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("key %q: insertion order changed the owner (%s vs %s)", key, a.Lookup(key), b.Lookup(key))
		}
	}
}

// TestRingRemapFraction is the acceptance property: removing one of N
// backends remaps ONLY the keys it owned — every other key keeps
// exactly its previous owner — and those keys are ~1/N of the total.
func TestRingRemapFraction(t *testing.T) {
	const n = 5
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("10.0.0.%d:9000", i+1)
	}
	keys := testKeys(5000)

	for _, removed := range nodes {
		r := ringOf(128, nodes...)
		before := make(map[string]string, len(keys))
		ownedByRemoved := 0
		for _, k := range keys {
			before[k] = r.Lookup(k)
			if before[k] == removed {
				ownedByRemoved++
			}
		}
		r.Remove(removed)
		remapped := 0
		for _, k := range keys {
			after := r.Lookup(k)
			if before[k] == removed {
				remapped++
				if after == removed {
					t.Fatalf("key %q still routes to removed node", k)
				}
				continue
			}
			if after != before[k] {
				t.Fatalf("removing %s moved key %q between survivors: %s -> %s", removed, k, before[k], after)
			}
		}
		if remapped != ownedByRemoved {
			t.Fatalf("remapped %d keys, but removed node owned %d", remapped, ownedByRemoved)
		}
		// ~1/N with slack for vnode placement variance (stddev shrinks
		// with replicas; 1.5x of the expected share is generous).
		max := int(1.5 * float64(len(keys)) / n)
		if remapped > max {
			t.Errorf("removing %s remapped %d/%d keys, want <= %d (~1/%d)", removed, remapped, len(keys), max, n)
		}
	}
}

// TestRingRejoinRestoresOwnership: a node that leaves and comes back
// gets exactly its old keys.
func TestRingRejoinRestoresOwnership(t *testing.T) {
	r := ringOf(128, "a:1", "b:1", "c:1")
	keys := testKeys(2000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}
	r.Remove("b:1")
	r.Add("b:1")
	for _, k := range keys {
		if got := r.Lookup(k); got != before[k] {
			t.Fatalf("key %q: owner changed across leave/rejoin: %s -> %s", k, before[k], got)
		}
	}
}

// TestRingSuccessors: the failover sequence starts at the owner,
// holds distinct nodes, and every ring member is reachable.
func TestRingSuccessors(t *testing.T) {
	r := ringOf(128, "a:1", "b:1", "c:1")
	for _, k := range testKeys(500) {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("key %q: got %d successors, want 3", k, len(succ))
		}
		if succ[0] != r.Lookup(k) {
			t.Fatalf("key %q: successor[0] = %s, owner = %s", k, succ[0], r.Lookup(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %q: duplicate successor %s", k, s)
			}
			seen[s] = true
		}
	}
	if got := r.Successors("x", 10); len(got) != 3 {
		t.Fatalf("max beyond pool size: got %d successors, want 3", len(got))
	}
}

// TestRingShares: arc shares sum to 1 and sit near 1/N each, and the
// observed key distribution tracks them.
func TestRingShares(t *testing.T) {
	r := ringOf(256, "a:1", "b:1", "c:1", "d:1")
	shares := r.Shares()
	sum := 0.0
	for node, s := range shares {
		sum += s
		if s < 0.10 || s > 0.45 {
			t.Errorf("node %s arc share %.3f implausibly far from 0.25", node, s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %.12f, want 1", sum)
	}

	counts := map[string]int{}
	keys := testKeys(10000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for node, c := range counts {
		observed := float64(c) / float64(len(keys))
		if math.Abs(observed-shares[node]) > 0.05 {
			t.Errorf("node %s: observed share %.3f vs arc share %.3f", node, observed, shares[node])
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(8)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	if got := r.Successors("k", 2); got != nil {
		t.Fatalf("empty ring Successors = %v, want nil", got)
	}
	r.Add("only:1")
	for _, k := range testKeys(50) {
		if got := r.Lookup(k); got != "only:1" {
			t.Fatalf("single-node ring routed %q to %q", k, got)
		}
	}
}

// FuzzRing checks the ring over arbitrary member sets (the
// comma-separated names, deduplicated, empties dropped), small vnode
// counts and keys: Successors returns min(n, Len) distinct members,
// owner first; a shorter walk is a prefix of the full one, which is
// what lets the router cut one candidate list down to a replica
// group; and removing any member but the owner leaves the owner
// unchanged.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, members string, vnodes int, key string, n int) {
		var names []string
		seen := map[string]bool{}
		for _, name := range strings.Split(members, ",") {
			if name != "" && !seen[name] && len(names) < 12 {
				seen[name] = true
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			t.Skip("no members")
		}
		vn := int(uint(vnodes)%16) + 1
		n = int(uint(n) % uint(len(names)+2)) // 0 through Len+1
		r := ringOf(vn, names...)
		owner := r.Lookup(key)
		full := r.Successors(key, r.Len())
		got := r.Successors(key, n)

		if want := min(n, r.Len()); len(got) != want {
			t.Fatalf("Successors(%q, %d) over %d members = %v, want %d members", key, n, r.Len(), got, want)
		}
		distinct := map[string]bool{}
		for i, m := range got {
			if distinct[m] || !seen[m] {
				t.Fatalf("Successors(%q, %d) = %v: member %q repeated or unknown", key, n, got, m)
			}
			distinct[m] = true
			if m != full[i] {
				t.Fatalf("Successors(%q, %d) = %v is not a prefix of the full walk %v", key, n, got, full)
			}
		}
		if full[0] != owner {
			t.Fatalf("full walk %v does not start at the owner %q", full, owner)
		}
		for _, gone := range names {
			if gone == owner {
				continue
			}
			r.Remove(gone)
			if after := r.Lookup(key); after != owner {
				t.Fatalf("removing %q moved key %q from %q to %q", gone, key, owner, after)
			}
			r.Add(gone)
		}
	})
}
