package main

import "testing"

// The example checks itself: run fails unless every task reads back, in
// parallel and through the serial view, exactly what it wrote.
func TestRun(t *testing.T) {
	if err := run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
