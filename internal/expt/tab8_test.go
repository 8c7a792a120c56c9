package expt

import (
	"strconv"
	"testing"
)

// TestTable8Findings asserts the chaos claims the experiment was built to
// prove. The hard invariants — ≥99% request success under the retry
// budget, byte identity on every successful read, zero give-ups in the
// writer storm, the full breaker lifecycle, zero counters without
// injection — are panics inside Table8 itself, so completing is most of
// the assertion; this test additionally pins the reported outcomes.
func TestTable8Findings(t *testing.T) {
	r := result(t, "tab8", testScale)
	if len(r.Rows) != 5 {
		t.Fatalf("tab8 has %d rows, want 5", len(r.Rows))
	}
	const (
		colOkPct    = 3
		colRetries  = 4
		colGiveUps  = 5
		colDegraded = 6
		colOpens    = 7
	)
	num := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d %q: %v", row, col, row[col], err)
		}
		return v
	}
	noRetry, retry, writer, drill, clean := r.Rows[0], r.Rows[1], r.Rows[2], r.Rows[3], r.Rows[4]

	// The storm is real: without retries some requests fail, and the
	// budget absorbs all of them.
	if num(noRetry, colGiveUps) == 0 {
		t.Errorf("no-retry storm rode out p=%.2f faults with zero give-ups: %v", tab8ReadErr, noRetry)
	}
	if pct := num(retry, colOkPct); pct < 100*tab8SuccessFloor {
		t.Errorf("retry storm ok%% = %v, want >= %v", pct, 100*tab8SuccessFloor)
	}
	if num(retry, colRetries) == 0 {
		t.Errorf("retry storm absorbed faults without retrying: %v", retry)
	}

	// The writer storm retried and never gave up.
	if num(writer, colRetries) == 0 || num(writer, colGiveUps) != 0 {
		t.Errorf("writer storm row %v, want retries > 0 and zero give-ups", writer)
	}

	// The drill opened exactly one circuit and fast-failed some requests.
	if num(drill, colOpens) != 1 || num(drill, colDegraded) == 0 {
		t.Errorf("breaker drill row %v, want opens 1 and degraded > 0", drill)
	}

	// Zero overhead without injection.
	for _, col := range []int{colRetries, colGiveUps, colDegraded, colOpens} {
		if num(clean, col) != 0 {
			t.Errorf("no-injection row moved a resilience counter: %v", clean)
		}
	}
	if num(clean, colOkPct) != 100 {
		t.Errorf("no-injection ok%% = %v, want 100", num(clean, colOkPct))
	}
}
