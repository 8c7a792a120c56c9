package main

import "testing"

// The example checks itself: run fails unless every thread stream of
// every task reads back exactly what it wrote.
func TestRun(t *testing.T) {
	if err := run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
