package main

import "testing"

// The example checks itself: run fails unless every restart task reads its
// writer ranks back bit-exactly, with direct and with collective mapped
// reads.
func TestRun(t *testing.T) {
	if err := run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
