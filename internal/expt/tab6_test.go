package expt

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestTable6Findings asserts the read-serving claims Table6 does not
// assert in-run: the bigger cache reads no more than the tiny one, the
// server performs a constant number of opens, and the zipfian reuse
// shows up as a high cache hit rate. The ≥10× and ≥2× reductions and the
// byte identity of every window are asserted in-run by Table6 itself.
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
	servedBig := cell(t, r, 1, colRdReqs)
	servedSml := cell(t, r, 2, colRdReqs)
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

// TestTable6Deterministic pins that the experiment is replayable: a
// fresh run reproduces the table (the LCG client sequence and the cache
// behavior are deterministic), so the tab6 assertions cannot flake.
func TestTable6Deterministic(t *testing.T) {
	want := result(t, "tab6", testScale)
	if got := Table6(testScale); !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("a second run differs:\n%v\nvs\n%v", got.Rows, want.Rows)
	}
}
