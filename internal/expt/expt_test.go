package expt

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// These tests assert that each regenerated experiment reproduces the
// paper's qualitative findings (who wins, where saturation and crossovers
// fall) at a reduced scale, so the reproduction claims are continuously
// verified by `go test`.

const testScale = 16

func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSpace(r.Rows[row][col]), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric", r.Name, row, col, r.Rows[row][col])
	}
	return v
}

func TestFig3aFindings(t *testing.T) {
	r := result(t, "fig3a", testScale)
	last := len(r.Rows) - 1
	create, open, sionT := cell(t, r, last, 1), cell(t, r, last, 2), cell(t, r, last, 3)
	if sionT*20 > create {
		t.Errorf("SION create %.2fs not ≫ faster than %d-file create %.2fs (paper: orders of magnitude)", sionT, 1<<12, create)
	}
	if open >= create {
		t.Errorf("open existing (%.2fs) should be cheaper than create (%.2fs)", open, create)
	}
	if sionT*5 > open {
		t.Errorf("SION create %.2fs should beat even opening existing files %.2fs", sionT, open)
	}
	// Creation time grows with task count.
	if cell(t, r, 0, 1) >= create {
		t.Errorf("creation time not increasing with task count")
	}
}

func TestFig3bFindings(t *testing.T) {
	r := result(t, "fig3b", testScale)
	last := len(r.Rows) - 1
	create, sionT := cell(t, r, last, 1), cell(t, r, last, 3)
	if sionT*10 > create {
		t.Errorf("Jaguar: SION create %.2fs not far faster than task-local create %.2fs", sionT, create)
	}
}

func TestFig4aFindings(t *testing.T) {
	r := result(t, "fig4a", testScale)
	w1 := cell(t, r, 0, 1)
	wLast := cell(t, r, len(r.Rows)-1, 1)
	if wLast < 1.8*w1 {
		t.Errorf("bandwidth does not grow with file count: 1 file %.0f, many %.0f", w1, wLast)
	}
	// Monotone non-decreasing (within 2%) and saturating: the last two
	// configurations should be within 5% of each other.
	prev := 0.0
	for i := range r.Rows {
		w := cell(t, r, i, 1)
		if w < prev*0.98 {
			t.Errorf("write bandwidth dropped at row %d: %.0f after %.0f", i, w, prev)
		}
		prev = w
	}
	w2nd := cell(t, r, len(r.Rows)-2, 1)
	if wLast > w2nd*1.05 {
		t.Errorf("no saturation: %.0f -> %.0f at the largest file counts", w2nd, wLast)
	}
}

func TestFig4bFindings(t *testing.T) {
	r := result(t, "fig4b", 4) // larger tasks counts so the client links don't dominate
	for i := range r.Rows {
		wo, wd := cell(t, r, i, 1), cell(t, r, i, 3)
		if wo < wd*0.999 {
			t.Errorf("row %d: optimized striping (%.0f) not ≥ default (%.0f)", i, wo, wd)
		}
	}
	// Optimized is near-saturated by 2 files (paper: "no benefits of using
	// more than two files"); default keeps climbing.
	wo2 := cell(t, r, 1, 1)
	woLast := cell(t, r, len(r.Rows)-1, 1)
	if woLast > wo2*1.15 {
		t.Errorf("optimized striping should saturate at 2 files: %.0f vs %.0f", wo2, woLast)
	}
	wd2 := cell(t, r, 1, 3)
	wdLast := cell(t, r, len(r.Rows)-1, 3)
	if wdLast < wd2*2 {
		t.Errorf("default striping should keep climbing well past 2 files: %.0f vs %.0f", wd2, wdLast)
	}
}

func TestTable1Findings(t *testing.T) {
	r := result(t, "tab1", 8)
	wAligned, rAligned := cell(t, r, 0, 1), cell(t, r, 0, 2)
	wMis, rMis := cell(t, r, 1, 1), cell(t, r, 1, 2)
	if wAligned < wMis*1.2 {
		t.Errorf("alignment must help writes: %.0f vs %.0f", wAligned, wMis)
	}
	if rAligned < rMis*1.05 {
		t.Errorf("alignment must help reads: %.0f vs %.0f", rAligned, rMis)
	}
	// Write degradation exceeds read degradation (paper: 2.53x vs 1.78x).
	if wAligned/wMis < rAligned/rMis {
		t.Errorf("write degradation (%.2f) should exceed read degradation (%.2f)",
			wAligned/wMis, rAligned/rMis)
	}
}

func TestFig5aFindings(t *testing.T) {
	r := result(t, "fig5a", testScale)
	last := len(r.Rows) - 1
	sw, tw := cell(t, r, last, 1), cell(t, r, last, 3)
	if sw < tw*0.97 {
		t.Errorf("SION write %.0f clearly worse than task-local %.0f (paper: marginally better)", sw, tw)
	}
	// Bandwidth grows with task count up to saturation.
	if cell(t, r, 0, 1) > sw {
		t.Errorf("bandwidth should not shrink with more tasks")
	}
}

func TestFig5bFindings(t *testing.T) {
	r := result(t, "fig5b", 8)
	last := len(r.Rows) - 1
	// SION write at least on par at the largest configuration.
	sw, tw := cell(t, r, last, 1), cell(t, r, last, 3)
	if sw < tw*0.97 {
		t.Errorf("Jaguar: SION write %.0f clearly worse than task-local %.0f", sw, tw)
	}
	// Read crossover: task-local reads win at the smallest configuration
	// where the servers are engaged, SION reads win at the largest
	// (paper: SION read better only ≥1k tasks).
	srLast, trLast := cell(t, r, last, 2), cell(t, r, last, 4)
	if srLast < trLast {
		t.Errorf("SION read (%.0f) should win at large task counts (task-local %.0f)", srLast, trLast)
	}
}

func TestFig6Findings(t *testing.T) {
	r := result(t, "fig6", 4)
	var at33, at1 []float64
	for i := range r.Rows {
		switch r.Rows[i][0] {
		case "33":
			at33 = []float64{cell(t, r, i, 1), cell(t, r, i, 3)}
		case "1":
			at1 = []float64{cell(t, r, i, 1), cell(t, r, i, 3)}
		}
	}
	if at33 == nil || at1 == nil {
		t.Fatal("missing rows")
	}
	if at33[1] < 5*at33[0] {
		t.Errorf("at 33 Mio particles SION (%.2fs) should be ≫ faster than baseline (%.2fs)", at33[0], at33[1])
	}
	// At 1 Mio the one-FS-block-per-task floor erases SIONlib's advantage
	// (paper: advantage only for larger problem sizes).
	if at1[1] > 3*at1[0] {
		t.Errorf("at 1 Mio particles SION (%.2fs) vs baseline (%.2fs): advantage should be small", at1[0], at1[1])
	}
	// SION times must be flat at small sizes (block floor), then grow.
	if cell(t, r, 0, 1)*1.5 > cell(t, r, len(r.Rows)-1, 1) {
		t.Errorf("SION write time should grow for huge particle counts")
	}
	// Baseline rows stop after 33 Mio.
	for i := range r.Rows {
		if r.Rows[i][0] == "100" && r.Rows[i][3] != "-" {
			t.Errorf("baseline must not have rows beyond 33 Mio (paper: limited to small problems)")
		}
	}
}

func TestTable2Findings(t *testing.T) {
	r := result(t, "tab2", 8)
	actTL, actS := cell(t, r, 0, 3), cell(t, r, 1, 3)
	if actTL < 2*actS {
		t.Errorf("activation speedup too small: %.1f vs %.1f", actTL, actS)
	}
	bwTL, bwS := cell(t, r, 0, 4), cell(t, r, 1, 4)
	if bwS < bwTL*0.995 {
		t.Errorf("SION write bandwidth (%.0f) should not trail task-local (%.0f)", bwS, bwTL)
	}
}

func TestResultPrinting(t *testing.T) {
	r := &Result{
		Name:   "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed result missing %q:\n%s", want, out)
		}
	}
}

func TestByNameAndAll(t *testing.T) {
	for _, n := range Names() {
		if ByName(n) == nil {
			t.Fatalf("ByName(%q) = nil", n)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName(nope) should be nil")
	}
}
