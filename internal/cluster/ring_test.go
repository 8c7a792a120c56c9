package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func ringIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	return ids
}

// TestRingLookupCoversAllNodes pins lookup's contract: for any key it
// returns every node exactly once, deterministically, with the same
// primary on repeated calls.
func TestRingLookupCoversAllNodes(t *testing.T) {
	r := buildRing(ringIDs(5))
	var buf, buf2 [maxNodes]int
	for k := 0; k < 1000; k++ {
		key := granuleHash(k%3, int64(k))
		order := r.lookup(key, &buf)
		if len(order) != 5 {
			t.Fatalf("key %d: lookup returned %d nodes, want 5", k, len(order))
		}
		seen := make(map[int]bool)
		for _, ni := range order {
			if ni < 0 || ni >= 5 || seen[ni] {
				t.Fatalf("key %d: bad or duplicate node index %d in %v", k, ni, order)
			}
			seen[ni] = true
		}
		if again := r.lookup(key, &buf2); !reflect.DeepEqual(order, again) {
			t.Fatalf("key %d: lookup not deterministic: %v then %v", k, order, again)
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate memberships.
func TestRingEmptyAndSingle(t *testing.T) {
	var buf [maxNodes]int
	if got := buildRing(nil).lookup(12345, &buf); len(got) != 0 {
		t.Fatalf("empty ring lookup = %v, want nothing", got)
	}
	one := buildRing([]string{"solo"})
	for k := 0; k < 100; k++ {
		if got := one.lookup(granuleHash(0, int64(k)), &buf); len(got) != 1 || got[0] != 0 {
			t.Fatalf("single-node ring lookup = %v, want [0]", got)
		}
	}
}

// TestRingConsistency pins the property the router exists for: removing
// one node only remaps the granules that node owned. Every granule whose
// primary survives keeps it.
func TestRingConsistency(t *testing.T) {
	ids := ringIDs(5)
	full := buildRing(ids)
	const gone = 3 // drop node-3
	var rest []string
	for i, id := range ids {
		if i != gone {
			rest = append(rest, id)
		}
	}
	small := buildRing(rest)
	// Map small's node indexes back to full's.
	backMap := make([]int, len(rest))
	for i := range rest {
		if i < gone {
			backMap[i] = i
		} else {
			backMap[i] = i + 1
		}
	}
	keys, moved := 0, 0
	var buf [maxNodes]int
	for f := 0; f < 2; f++ {
		for b := int64(0); b < 4096; b++ {
			key := granuleHash(f, b)
			before := full.lookup(key, &buf)[0]
			after := backMap[small.lookup(key, &buf)[0]]
			keys++
			if before == gone {
				moved++
				continue // had to move somewhere
			}
			if after != before {
				t.Fatalf("granule (%d,%d): primary moved %d -> %d though node %d left",
					f, b, before, after, gone)
			}
		}
	}
	// The departed node owned roughly 1/5 of the keys; demand it owned
	// some, and not a wildly disproportionate share.
	if moved == 0 {
		t.Fatal("departed node owned no granules at all")
	}
	if frac := float64(moved) / float64(keys); frac > 0.45 {
		t.Fatalf("departed node owned %.0f%% of granules — ring badly unbalanced", 100*frac)
	}
}

// TestRingBalance demands a roughly even granule split across nodes — the
// property virtual nodes buy.
func TestRingBalance(t *testing.T) {
	const nodes = 4
	r := buildRing(ringIDs(nodes))
	counts := make([]int, nodes)
	const blocks = 1 << 15
	var buf [maxNodes]int
	for b := int64(0); b < blocks; b++ {
		counts[r.lookup(granuleHash(0, b), &buf)[0]]++
	}
	for n, c := range counts {
		frac := float64(c) / blocks
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("node %d owns %.1f%% of %d granules (counts %v) — want a rough 25%% split",
				n, 100*frac, blocks, counts)
		}
	}
}

// TestRingJoinRemapsAboutOneNth is the join side of consistency: a fifth
// node takes over roughly a fifth of the granules, every one of them
// moves to the newcomer and nowhere else, and the survivors keep their
// relative failover order.
func TestRingJoinRemapsAboutOneNth(t *testing.T) {
	ids := ringIDs(5)
	small := buildRing(ids[:4]) // node-0..node-3 keep their indexes in both rings
	full := buildRing(ids)
	const newcomer = 4
	keys, moved := 0, 0
	var b1, b2 [maxNodes]int
	for f := 0; f < 2; f++ {
		for g := int64(0); g < 4096; g++ {
			key := granuleHash(f, g)
			before, after := small.lookup(key, &b1), full.lookup(key, &b2)
			keys++
			if after[0] != before[0] {
				moved++
				if after[0] != newcomer {
					t.Fatalf("granule (%d,%d): primary moved %d -> %d, not to the joining node", f, g, before[0], after[0])
				}
			}
			rest := after[:0:0]
			for _, ni := range after {
				if ni != newcomer {
					rest = append(rest, ni)
				}
			}
			if !reflect.DeepEqual(rest, before) {
				t.Fatalf("granule (%d,%d): survivors' order %v became %v", f, g, before, rest)
			}
		}
	}
	if frac := float64(moved) / float64(keys); frac < 0.05 || frac > 1.0/5+0.15 {
		t.Fatalf("joining node took over %.0f%% of granules, want about 1/5", 100*frac)
	}
}
