package expt

import (
	"strings"
	"testing"
)

// TestTable9Findings asserts the serving-tier scale-out claims on the
// generated table. The hard guarantees — byte identity in every mode
// (including mid-churn), the ≥2× backend-read reduction, the bounded
// churn tail, and the exact replay — are asserted inside Table9 itself
// (it panics), so this test mostly pins the table's shape and the
// secondary signals.
func TestTable9Findings(t *testing.T) {
	r := result(t, "tab9", testScale)
	if len(r.Rows) != 4 {
		t.Fatalf("tab9 has %d rows, want 4", len(r.Rows))
	}
	const (
		colRdReqs    = 3
		colPeerFills = 4
		colFailovers = 5
		colP99       = 6
		colRedux     = 7
	)
	ind := cell(t, r, 0, colRdReqs)
	clu := cell(t, r, 1, colRdReqs)
	chu := cell(t, r, 2, colRdReqs)
	if clu*2 > ind {
		t.Errorf("cluster backend reads %.0f not ≥2× below independent %.0f", clu, ind)
	}
	// Churn costs something (the departed node's cache is lost) but must
	// stay the same order as the steady cluster — nowhere near the
	// independent baseline.
	if chu*1.5 > ind {
		t.Errorf("churn backend reads %.0f lost the cluster's reduction (independent %.0f)", chu, ind)
	}
	// A static ring never peer-fills: every granule has one owner, whose
	// cache alone holds its blocks. Join/leave remapping is served by peer
	// fills.
	if pf := cell(t, r, 1, colPeerFills); pf != 0 {
		t.Errorf("steady cluster peer fills %.0f, want 0 — a static ring has no second holder to fill from", pf)
	}
	if pf := cell(t, r, 2, colPeerFills); pf <= 0 {
		t.Errorf("churn peer fills %.0f, want > 0 — remapped blocks did not fill from peers", pf)
	}
	// No replica exhaustion, no failover churn in a healthy storm.
	for row := 1; row <= 2; row++ {
		if fo := cell(t, r, row, colFailovers); fo != 0 {
			t.Errorf("row %d: %f failovers in a storm with no injected faults", row, fo)
		}
	}
	// The bounded-tail claim, re-checked on the table.
	if p99 := cell(t, r, 2, colP99); p99 > float64(tab9P99Bound) {
		t.Errorf("churn p99 %.0f above bound %d", p99, tab9P99Bound)
	}
	// The replay row is literally identical to the steady cluster row.
	if rep := cell(t, r, 3, colRdReqs); rep != clu {
		t.Errorf("replay reads %.0f differ from cluster %.0f", rep, clu)
	}
	if got := r.Rows[3][colRedux]; got != "identical" {
		t.Errorf("replay redux cell = %q, want \"identical\"", got)
	}
}

// TestTable9Registered pins the experiment's registration in the runner
// tables (sionbench -exp tab9, All, Names).
func TestTable9Registered(t *testing.T) {
	if ByName("tab9") == nil || ByName("table9") == nil {
		t.Fatal("tab9 not resolvable via ByName")
	}
	found := false
	for _, n := range Names() {
		if n == "tab9" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tab9 missing from Names(): %v", Names())
	}
	if !strings.HasPrefix(Names()[len(Names())-1], "tab") {
		t.Fatalf("Names() tail unexpected: %v", Names())
	}
}
