package expt

import (
	"strconv"
	"strings"
	"testing"
)

// TestTable6Findings asserts the read-serving claims the experiment was
// built to prove: on the zipfian client workload the served mode issues
// at least 10× fewer backend read requests than uncached per-handle
// reads (the acceptance bar), the tiny-cache mode still wins clearly,
// the server performs a constant number of opens, and the zipfian reuse
// shows up as a high cache hit rate. Byte identity of every served
// window against the written payloads is asserted in-run by Table6
// itself (zipfClient panics on a mismatch).
func TestTable6Findings(t *testing.T) {
	r := result(t, "tab6", testScale)
	if len(r.Rows) != 3 {
		t.Fatalf("tab6 has %d rows, want 3", len(r.Rows))
	}
	const (
		colOpens  = 3
		colRdReqs = 4
		colHit    = 5
	)
	uncached := cell(t, r, 0, colRdReqs)
	servedBig := cell(t, r, 1, colRdReqs)
	servedSml := cell(t, r, 2, colRdReqs)
	if servedBig*10 > uncached {
		t.Errorf("served (big cache) backend reads %.0f not ≥10× below uncached %.0f", servedBig, uncached)
	}
	if servedSml*2 > uncached {
		t.Errorf("served (1 MiB cache) backend reads %.0f not ≥2× below uncached %.0f", servedSml, uncached)
	}
	if servedBig > servedSml {
		t.Errorf("bigger cache issued more backend reads (%.0f) than the tiny one (%.0f)", servedBig, servedSml)
	}
	// The server opens each physical file once plus the layout parse;
	// uncached opens grow with the client count.
	if opens := cell(t, r, 1, colOpens); opens > 8 {
		t.Errorf("served mode opened files %.0f times, want a small constant", opens)
	}
	if opens := cell(t, r, 0, colOpens); opens < cell(t, r, 1, colOpens)*4 {
		t.Errorf("uncached opens %.0f suspiciously low", opens)
	}
	// Zipfian reuse must show up as cache hits.
	hit, err := strconv.ParseFloat(strings.TrimSpace(r.Rows[1][colHit]), 64)
	if err != nil {
		t.Fatalf("hit%% cell %q: %v", r.Rows[1][colHit], err)
	}
	if hit < 50 {
		t.Errorf("big-cache hit rate %.1f%% below 50%%", hit)
	}
}

// TestTable6Deterministic pins that the experiment is replayable: two
// runs of the served mode produce identical request counters (the LCG
// client sequence and the cache behavior are deterministic), so the
// tab6 assertions cannot flake.
func TestTable6Deterministic(t *testing.T) {
	nwriters := scaleDown(tab6Writers, testScale, 32)
	nclients := scaleDown(tab6Clients, testScale, 256)
	r1, s1 := tab6Mode(nwriters, nclients, tab6CacheBig)
	r2, s2 := tab6Mode(nwriters, nclients, tab6CacheBig)
	if r1 != r2 {
		t.Fatalf("request counters differ between runs: %+v vs %+v", r1, r2)
	}
	if s1 != s2 {
		t.Fatalf("server stats differ between runs: %+v vs %+v", s1, s2)
	}
}
