package expt

import "testing"

// TestTable5Findings asserts the rescaled-reopen claims tab5 was built to
// prove: every (M, mode) cell recovers all writer bytes (asserted in-run —
// tab5Mode panics on a mismatch), at most ⌈M/group⌉ collectors plus the
// two metadata readers touch the file in collective mode, and the
// collective data path issues no more than ⌈M/group⌉ · blocks span reads
// on top of the open-time metadata reads.
func TestTable5Findings(t *testing.T) {
	r := result(t, "tab5", testScale)
	if len(r.Rows) != 2*len(tab5Readers) {
		t.Fatalf("tab5 has %d rows, want %d", len(r.Rows), 2*len(tab5Readers))
	}
	const (
		colRdTasks = 3
		colRdReqs  = 4
	)
	// Metadata reads at open: rank 0's header parse (2 requests) plus the
	// file-0 parser's header+metablock-2 parse (4 requests).
	const metaReads = 6

	nwriters := scaleDown(tab5Writers, testScale, 64)
	sawMoreReadersThanWriters := false
	for i, mr := range tab5Readers {
		nreaders := scaleDown(mr, testScale, 2)
		if nreaders > nwriters {
			sawMoreReadersThanWriters = true
		}
		collectors := (nreaders + tab5Group - 1) / tab5Group
		direct, coll := r.Rows[2*i], r.Rows[2*i+1]

		// Direct mode: the min(M, N) readers holding owned ranks all touch
		// the file, issuing about blocks reads per writer rank.
		minMN := nreaders
		if nwriters < minMN {
			minMN = nwriters
		}
		if got := int(cell(t, r, 2*i, colRdTasks)); got < minMN || got > minMN+2 {
			t.Errorf("M=%d direct: %d reader tasks, want ≈ %d", nreaders, got, minMN)
		}
		if got := int(cell(t, r, 2*i, colRdReqs)); got < nwriters*tab5BlocksN {
			t.Errorf("M=%d direct: %d read requests, want ≥ %d (one per rank and block)",
				nreaders, got, nwriters*tab5BlocksN)
		}

		// Collective mode: the ⌈M/G⌉ bound on clients and span reads.
		if got := int(cell(t, r, 2*i+1, colRdTasks)); got > collectors+2 {
			t.Errorf("M=%d collective: %d reader tasks, want ≤ %d collectors + 2 metadata readers",
				nreaders, got, collectors)
		}
		budget := collectors*tab5BlocksN + metaReads
		if got := int(cell(t, r, 2*i+1, colRdReqs)); got > budget {
			t.Errorf("M=%d collective: %d read requests, want ≤ ⌈M/G⌉·blocks + metadata = %d",
				nreaders, got, budget)
		}
		// The request reduction must be substantial, not incidental (3× is
		// the worst case: M≫N at test scale, where a collector group holds
		// few writer ranks and the metadata reads weigh relatively more).
		if d, c := cell(t, r, 2*i, colRdReqs), cell(t, r, 2*i+1, colRdReqs); c*3 > d {
			t.Errorf("M=%d: collective reads %.0f not well below direct %.0f (%s vs %s)",
				nreaders, c, d, coll[0], direct[0])
		}
	}
	if !sawMoreReadersThanWriters {
		t.Errorf("scaled reader counts %v never exceed %d writers; the M>N case went untested",
			tab5Readers, nwriters)
	}
}
