package expt

import "testing"

// TestTable10Findings asserts the backend auto-tuning claims on the
// generated table. The hard guarantees — per-rank byte identity on every
// arm and the ≥2× object-store request reduction — are asserted inside
// Table10 itself (it panics), so this test pins the table's shape and
// the geometry the tuning is supposed to have picked.
func TestTable10Findings(t *testing.T) {
	r := result(t, "tab10", testScale)
	if len(r.Rows) != 3 {
		t.Fatalf("tab10 has %d rows, want 3", len(r.Rows))
	}
	const (
		colFiles  = 2
		colFSBlk  = 3
		colRdReqs = 5
		colCopies = 6
		colTotal  = 7
	)
	// The auto arm's geometry must come from the capability descriptor:
	// part-sized FS blocks (smallpart = 1 MiB) and the declared fanout.
	if got := cell(t, r, 2, colFSBlk); got != 1024 {
		t.Errorf("auto arm fsblk = %.0f KiB, want 1024 (the part size)", got)
	}
	if got := cell(t, r, 2, colFiles); got != 8 {
		t.Errorf("auto arm files = %.0f, want the fanout 8", got)
	}
	// POSIX-tuned geometry on the posix backend stays the historical
	// default: one file, the machine's 64 KiB blocks.
	if got := cell(t, r, 0, colFiles); got != 1 {
		t.Errorf("posix arm files = %.0f, want 1", got)
	}
	if got := cell(t, r, 0, colFSBlk); got != 64 {
		t.Errorf("posix arm fsblk = %.0f KiB, want 64", got)
	}
	// Part-misaligned chunks pay staged copies; part-aligned ones none.
	if got := cell(t, r, 1, colCopies); got == 0 {
		t.Error("POSIX-tuned objstore arm paid no staged copies — misalignment not modeled")
	}
	if got := cell(t, r, 2, colCopies); got != 0 {
		t.Errorf("auto-tuned objstore arm paid %.0f staged copies, want 0 (part-aligned chunks)", got)
	}
	// Unbuffered reads cost ~one GET per record; BufferAuto collapses
	// them by orders of magnitude. Re-check the headline bound on the
	// table (Table10 already panics if it fails).
	tuned, auto := cell(t, r, 1, colTotal), cell(t, r, 2, colTotal)
	if auto*2 > tuned {
		t.Errorf("auto-tuned requests %.0f not ≥2× below POSIX-tuned %.0f", auto, tuned)
	}
	if rdTuned, rdAuto := cell(t, r, 1, colRdReqs), cell(t, r, 2, colRdReqs); rdAuto*10 > rdTuned {
		t.Errorf("auto-tuned read GETs %.0f not well below unbuffered %.0f", rdAuto, rdTuned)
	}
}

// TestTable10Registered pins the experiment's registration in the runner
// tables (sionbench -exp tab10, All, Names).
func TestTable10Registered(t *testing.T) {
	if ByName("tab10") == nil || ByName("table10") == nil {
		t.Fatal("tab10 not resolvable via ByName")
	}
	found := false
	for _, n := range Names() {
		if n == "tab10" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tab10 missing from Names(): %v", Names())
	}
}
