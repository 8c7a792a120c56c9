package expt

import (
	"strconv"
	"strings"
	"testing"
)

// TestTable7Findings asserts the streaming claims the experiment was
// built to prove. The hard invariants — no torn records, lag under the
// bound, byte identity of the shipped archive, committed totals the
// writer actually attempted — are panics inside Table7 itself, so merely
// completing is most of the assertion; this test additionally pins the
// reported outcomes: the crash sweep covers at least the 100 injected
// interleavings the acceptance bar demands and verifies every one, a
// meaningful fraction of trials exercised the torn-sidecar path, and the
// crash sweep actually destroyed data somewhere (otherwise it proves
// nothing about recovery).
func TestTable7Findings(t *testing.T) {
	r := result(t, "tab7", testScale)
	if len(r.Rows) != 2 {
		t.Fatalf("tab7 has %d rows, want 2", len(r.Rows))
	}
	const (
		colTrials   = 3
		colLag      = 5
		colTorn     = 6
		colVerified = 7
	)
	stream, crash := r.Rows[0], r.Rows[1]

	lag, err := strconv.Atoi(strings.TrimSpace(strings.Split(stream[colLag], "/")[0]))
	if err != nil {
		t.Fatalf("stream lag cell %q: %v", stream[colLag], err)
	}
	if lag > tab7LagBound {
		t.Errorf("reader lag %d flush batches exceeds the bound %d", lag, tab7LagBound)
	}
	if stream[colVerified] != "identical" {
		t.Errorf("stream archive not byte-identical: %q", stream[colVerified])
	}

	trials, err := strconv.Atoi(crash[colTrials])
	if err != nil {
		t.Fatalf("crash trials cell %q: %v", crash[colTrials], err)
	}
	if trials < 100 {
		t.Errorf("crash sweep ran %d trials, acceptance demands ≥ 100", trials)
	}
	if crash[colVerified] != strconv.Itoa(trials)+"/"+strconv.Itoa(trials) {
		t.Errorf("crash sweep verified %q of %d trials", crash[colVerified], trials)
	}
	torn, err := strconv.Atoi(strings.Fields(crash[colTorn])[0])
	if err != nil {
		t.Fatalf("crash torn cell %q: %v", crash[colTorn], err)
	}
	if torn < trials/4 {
		t.Errorf("only %d/%d trials tore a sidecar commit record; want a meaningful fraction", torn, trials)
	}
	lost := false
	for _, n := range r.Notes {
		if strings.Contains(n, "writer-ranks lost") && !strings.HasPrefix(n, "0 writer-ranks") {
			lost = true
		}
	}
	if !lost {
		t.Error("crash sweep never destroyed any data — the recovery claim is vacuous")
	}
}

// TestTable7Deterministic pins that the experiment is replayable: the
// vtime interleaving, the LCG injection points, and the recovered totals
// are identical across runs, so the tab7 assertions cannot flake.
func TestTable7Deterministic(t *testing.T) {
	lag1, shipped1, end1 := tab7StreamPhase(8, 2, tab7Records)
	lag2, shipped2, end2 := tab7StreamPhase(8, 2, tab7Records)
	if lag1 != lag2 || shipped1 != shipped2 || end1 != end2 {
		t.Fatalf("stream phase differs between runs: (%d,%d,%f) vs (%d,%d,%f)",
			lag1, shipped1, end1, lag2, shipped2, end2)
	}
	v1, t1, l1, r1 := tab7CrashPhase(20)
	v2, t2, l2, r2 := tab7CrashPhase(20)
	if v1 != v2 || t1 != t2 || l1 != l2 || r1 != r2 {
		t.Fatalf("crash phase differs between runs: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			v1, t1, l1, r1, v2, t2, l2, r2)
	}
}
