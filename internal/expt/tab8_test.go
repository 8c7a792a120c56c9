package expt

import (
	"strconv"
	"testing"
)

// TestTable8Findings asserts the chaos claims Table8 does not assert
// in-run: the storm is real (without retries some requests give up) and
// the budget absorbs it by retrying. The hard invariants — ≥99% request
// success under the retry budget, byte identity on every successful read,
// zero give-ups in the writer storm, the full breaker lifecycle, zero
// counters without injection — are panics inside Table8 itself.
func TestTable8Findings(t *testing.T) {
	r := result(t, "tab8", testScale)
	if len(r.Rows) != 5 {
		t.Fatalf("tab8 has %d rows, want 5", len(r.Rows))
	}
	const (
		colRetries = 4
		colGiveUps = 5
	)
	num := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d %q: %v", row, col, row[col], err)
		}
		return v
	}
	noRetry, retry := r.Rows[0], r.Rows[1]
	if num(noRetry, colGiveUps) == 0 {
		t.Errorf("no-retry storm rode out p=%.2f faults with zero give-ups: %v", tab8ReadErr, noRetry)
	}
	if num(retry, colRetries) == 0 {
		t.Errorf("retry storm absorbed faults without retrying: %v", retry)
	}
}
