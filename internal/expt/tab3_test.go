package expt

import (
	"fmt"
	"testing"
)

// TestTable3Findings asserts the collective-I/O claims the experiment was
// built to prove: only ⌈ntasks/group⌉ tasks touch the physical file in
// the collective modes (verified by the simfs request counters), the
// request counts collapse accordingly, and the simulated wall times order
// async-collective ≤ collective ≤ direct. At one-FS-block chunks the
// CollectorAuto row is exactly a fixed group of 4 (4 blocks per collector
// region), far below direct at the same chunk size.
func TestTable3Findings(t *testing.T) {
	r := result(t, "tab3", testScale)
	if len(r.Rows) != 5 {
		t.Fatalf("tab3 has %d rows, want 5", len(r.Rows))
	}
	const (
		colOpens   = 2
		colWrTasks = 3
		colWrReqs  = 4
		colWriteT  = 5
		colRdTasks = 6
		colRdReqs  = 7
		colReadT   = 8
	)
	ntasks := scaleDown(tab3Tasks, testScale, 64)
	group := tab3Group
	if group > ntasks {
		group = ntasks
	}
	collectors := (ntasks + group - 1) / group

	// Direct mode: every task opens, writes, and reads the file.
	if got := int(cell(t, r, 0, colWrTasks)); got != ntasks {
		t.Errorf("direct writer tasks = %d, want %d", got, ntasks)
	}
	if got := int(cell(t, r, 0, colRdTasks)); got != ntasks {
		t.Errorf("direct reader tasks = %d, want %d", got, ntasks)
	}

	// Collective modes: at most ⌈ntasks/group⌉ tasks issue requests.
	for row := 1; row <= 2; row++ {
		label := r.Rows[row][0]
		if got := int(cell(t, r, row, colWrTasks)); got > collectors {
			t.Errorf("%s: %d writer tasks, want ≤ %d", label, got, collectors)
		}
		if got := int(cell(t, r, row, colRdTasks)); got > collectors {
			t.Errorf("%s: %d reader tasks, want ≤ %d", label, got, collectors)
		}
		if d, c := cell(t, r, 0, colWrReqs), cell(t, r, row, colWrReqs); c*50 > d {
			t.Errorf("%s: write requests %.0f not ≪ direct %.0f", label, c, d)
		}
		if d, c := cell(t, r, 0, colRdReqs), cell(t, r, row, colRdReqs); c*50 > d {
			t.Errorf("%s: read requests %.0f not ≪ direct %.0f", label, c, d)
		}
		// One span read per (collector, block), plus ~6 metadata reads.
		if got, max := int(cell(t, r, row, colRdReqs)), collectors*tab3BlocksN+6; got > max {
			t.Errorf("%s: %d read requests, want ≤ %d span + metadata reads", label, got, max)
		}
		if d, c := cell(t, r, 0, colOpens), cell(t, r, row, colOpens); c*2 > d {
			t.Errorf("%s: opens %.0f not well below direct %.0f", label, c, d)
		}
	}

	// Wall-time ordering: async-collective ≤ collective ≤ direct.
	directW := cell(t, r, 0, colWriteT)
	collW := cell(t, r, 1, colWriteT)
	asyncW := cell(t, r, 2, colWriteT)
	if !(asyncW <= collW && collW <= directW) {
		t.Errorf("write times not ordered: async %.3f ≤ coll %.3f ≤ direct %.3f", asyncW, collW, directW)
	}
	// The async overlap should be a real win, not a rounding artifact.
	if asyncW > 0.9*collW {
		t.Errorf("async write %.3f not clearly below collective %.3f", asyncW, collW)
	}
	directR := cell(t, r, 0, colReadT)
	collR := cell(t, r, 1, colReadT)
	asyncR := cell(t, r, 2, colReadT)
	if !(asyncR <= collR*1.001 && collR <= directR) {
		t.Errorf("read times not ordered: async %.3f ≤ coll %.3f ≤ direct %.3f", asyncR, collR, directR)
	}

	// The auto row is a fixed group of 4, cell for cell.
	writeT, readT, wst, rst := tab3Mode(ntasks, tab3Small, 4, true)
	fixed := []string{r.Rows[4][0], kfmt(ntasks),
		fmt.Sprintf("%d", wst.Opens+rst.Opens),
		fmt.Sprintf("%d", wst.WriterTasks),
		fmt.Sprintf("%d", wst.WriteRequests),
		fmt.Sprintf("%.3f", writeT),
		fmt.Sprintf("%d", rst.ReaderTasks),
		fmt.Sprintf("%d", rst.ReadRequests),
		fmt.Sprintf("%.3f", readT),
	}
	if fmt.Sprint(r.Rows[4]) != fmt.Sprint(fixed) {
		t.Errorf("auto row %v, want the CollectorGroup 4 run %v", r.Rows[4], fixed)
	}
	if got := int(cell(t, r, 3, colWrTasks)); got != ntasks {
		t.Errorf("direct 64k writer tasks = %d, want %d", got, ntasks)
	}
	for _, col := range []int{colOpens, colWrReqs, colRdReqs} {
		if d, a := cell(t, r, 3, col), cell(t, r, 4, col); a*2 > d {
			t.Errorf("column %d: auto %.0f not well below direct %.0f at 64k chunks", col, a, d)
		}
	}
}
