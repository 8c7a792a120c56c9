package main

import "testing"

// The example checks itself: run fails unless every rank reads back
// exactly the record it wrote.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
